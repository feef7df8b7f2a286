"""The three CLI workloads: one ``python -m repro.experiments`` process per
invocation, each writing every artefact format into a fresh ``--out``."""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from common import PERFBENCH, Tally, fresh_dir, median, remove, run_program, setup_samples

IDLE_SCENARIOS = [
    "ideal-m3-idle",
    "perth-m1-idle",
    "htree-teleport-fused-idle",
    "htree-dual-rail-idle",
]
EXEC_SCENARIOS = [
    "htree-dual-rail-m3",
    "dual-rail-bb-m2",
    "htree-teleport-executed",
    "htree-teleport-fused",
]

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_SAMPLES = 7


@dataclass(frozen=True)
class CliWorkload:
    """One CLI workload: the command line it runs and how its output is checked."""

    experiment: list[str]
    scenarios: list[str]
    shots: int
    workers: int

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        return [
            *self.experiment,
            *self.scenarios,
            "--shots",
            str(self.shots),
            "--seed",
            str(seed),
            "--workers",
            str(self.workers if workers is None else workers),
            "--no-cache",
            "--out",
            str(out),
        ]

    def problems(self, out: Path) -> list[str]:
        if self.scenarios:
            return checks.scenario_problems(out, self.scenarios)
        return checks.figure_problems(out)


WORKLOADS = {
    "scenario-idle": CliWorkload(["scenario"], IDLE_SCENARIOS, shots=256, workers=1),
    "scenario-exec": CliWorkload(["scenario"], EXEC_SCENARIOS, shots=2048, workers=2),
    "figures-quick": CliWorkload(["all", "--quick"], [], shots=1024, workers=1),
}


def _setup_once() -> float:
    """One fresh interpreter importing the CLI module, spawn to exit."""
    work = fresh_dir("setup")
    try:
        code, wall, _ = run_program(
            [sys.executable, "-c", "import repro.experiments.__main__"], work / "log"
        )
    finally:
        remove(work)
    if code != 0:
        raise RuntimeError("importing repro.experiments.__main__ failed")
    return wall


class CliRun:
    """One benchmark run of a CLI workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seeds = random.Random(f"{name}:{seed}")
        self.tally = Tally()
        self.identity_checked = False

    def invoke(
        self, *, workers: int | None = None, traced: bool = False, seed: int | None = None
    ) -> tuple[float, float, list[dict], int, Path]:
        """One invocation: ``(wall s, peak RSS MB, spans, seed, out dir)``.

        The caller removes the returned ``--out`` directory.
        """
        seed = self.seeds.randrange(1, 2**31) if seed is None else seed
        out = fresh_dir("out")
        logs = fresh_dir("log")
        args = self.workload.argv(seed, out, workers)
        spans_file = logs / "spans.jsonl"
        if traced:
            argv = [sys.executable, str(PERFBENCH / "launch.py"), str(spans_file), "cli", "cli", *args]
        else:
            argv = [sys.executable, "-m", "repro.experiments", *args]
        code, wall, rss = run_program(argv, logs / "stdout")
        problems = [f"exit code {code}"] if code else self.workload.problems(out)
        self.tally.record(f"{self.name} seed {seed}", problems, logs / "stdout")
        spans = layers.load(spans_file)
        remove(logs)
        return wall, rss, spans, seed, out

    def check_identity_once(self, seed: int, out: Path) -> None:
        """Artefacts at the workload's worker count equal a ``--workers 1`` run."""
        if self.identity_checked or self.workload.workers == 1:
            return
        self.identity_checked = True
        _, _, _, _, serial = self.invoke(workers=1, seed=seed)
        self.tally.record(
            f"{self.name} workers {self.workload.workers} vs 1",
            checks.identical_trees(out, serial),
        )
        remove(serial)

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced run: end-to-end metrics plus sample counts."""
        setup = setup_samples(_setup_once, SETUP_SAMPLES)
        walls: list[float] = []
        rss: list[float] = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, peak, _, seed, out = self.invoke()
            walls.append(wall)
            rss.append(peak)
            self.check_identity_once(seed, out)
            remove(out)
        metrics = {
            "setup_s": median(setup),
            "latency_p50_ms": median(walls) * 1e3,
            "peak_rss_mb": median(rss),
        }
        samples = {"setup_s": len(setup), "latency_p50_ms": len(walls), "peak_rss_mb": len(rss)}
        return metrics, samples

    def trace(self, seconds: float) -> dict:
        """Traced run: alternating untraced and traced invocations.

        Layer metrics come from traced ``--workers 1`` invocations (the
        workload's own invocation when it already runs serially); the
        parent-side sweep wall time and the tracing overhead come from
        traced invocations at the workload's worker count.
        """
        untraced: list[float] = []
        traced: list[float] = []
        per_invocation: list[dict] = []
        wall_at_workers: list[float] = []
        serial = self.workload.workers == 1
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            wall, _, _, _, out = self.invoke()
            remove(out)
            untraced.append(wall)
            wall, _, spans, _, out = self.invoke(traced=True)
            remove(out)
            traced.append(wall)
            wall_at_workers.append(layers.accumulate(spans)["sweep.wall_s"])
            if not serial:
                wall, _, spans, _, out = self.invoke(traced=True, workers=1)
                remove(out)
            metrics = layers.accumulate(spans)
            metrics["trace.remainder_s"] = wall - layers.self_total(spans)
            per_invocation.append(metrics)
        result = {}
        for name, unit in layers.METRICS:
            # Counts repeat exactly for a seed, so they come from the first
            # invocation; times are medians over every traced invocation.
            if unit in ("count", "bytes"):
                result[name] = per_invocation[0][name]
            else:
                result[name] = median([metrics[name] for metrics in per_invocation])
        result["sweep.wall_s"] = median(wall_at_workers)
        if result["sweep.wall_s"]:
            result["sweep.efficiency"] = result["sweep.busy_s"] / (
                self.workload.workers * result["sweep.wall_s"]
            )
        result["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
        top = layers.largest_self_time(result)
        print(f"largest self time on {self.name}: {top} = {result[top]:.4f} s")
        return result
