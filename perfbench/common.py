"""Paths, program processes and statistics shared by the workloads."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def program_env() -> dict[str, str]:
    """Environment of every program process: ``src`` importable, no cache or
    worker defaults inherited from the caller's shell."""
    env = dict(os.environ)
    for key in ("REPRO_CACHE_DIR", "REPRO_SWEEP_WORKERS", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fresh_dir(label: str) -> Path:
    """A new empty directory under the work root; the caller removes it."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_program(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one program process to completion: ``(exit code, wall s, peak RSS MB)``.

    Wall time runs from just before the spawn to the reap.  The peak RSS is
    the child's own ``ru_maxrss`` as ``wait4`` reports it, which also covers
    the pool workers it reaped.  Standard output and error go to ``log``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=program_env(), cwd=ROOT, stdout=out, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def report_failure(what: str, log: Path | None = None) -> None:
    """Say on standard error which operation failed, with the end of its log."""
    print(f"perfbench: FAILED {what}", file=sys.stderr)
    if log is not None and log.exists():
        tail = log.read_text(errors="replace").splitlines()[-15:]
        for line in tail:
            print(f"    {line}", file=sys.stderr)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when fewer than ten samples lie
    beyond it (a tail is only reported with ten samples past it)."""
    if not values or len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def setup_samples(setup_once, count: int) -> list[float]:
    """Time ``setup_once`` ``count`` times after one untimed warm-up.

    The warm-up fills the bytecode cache under ``src`` and the page cache,
    which the first run in a fresh checkout pays once.
    """
    setup_once()
    return [setup_once() for _ in range(count)]


class Tally:
    """Operations attempted and failed in one run; safe across threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, what: str, problems: list[str], log: Path | None = None) -> bool:
        """Count one operation; report it when ``problems`` is non-empty."""
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
        if problems:
            report_failure(f"{what}: {'; '.join(problems[:5])}", log)
        return not problems
