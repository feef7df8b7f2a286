"""End-to-end benchmark of the QRAM reproduction: CLI sweeps and HTTP serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario-idle --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 15] [--trace 0]

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, measured
with no tracing.  ``--trace 1`` runs the program under ``launch.py``, which
records spans at every layer boundary, and prints the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload
in turn and prints each metric with its unit and sample count.

The seed picks every input the program receives: scenario seeds, the
reader's request sequence and the writer's cold submissions.  The program
builds from ``src`` in the same checkout; without it the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, remove  # noqa: E402

CLI_WORKLOADS = ("scenario-idle", "scenario-exec", "figures-quick")
WORKLOADS = (*CLI_WORKLOADS, "serve-mixed")
UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def environment() -> str:
    import os
    import platform

    import numpy

    return (
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object."""
    import layers

    if name == "serve-mixed":
        from serve_bench import ServeRun

        run = ServeRun(seed)
    else:
        from cli_bench import CliRun

        run = CliRun(name, seed)
    if trace:
        values = run.trace(seconds)
        units = layers.UNITS
        samples = {}
    else:
        values, samples = run.measure(seconds)
        units = UNITS
    metrics = {}
    for metric, value in values.items():
        metrics[metric] = {"value": value, "unit": units[metric]}
        count = f" (n={samples[metric]})" if metric in samples else ""
        print(f"{name} {metric} = {value:.6g} {units[metric]}{count}")
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choice = parser.add_mutually_exclusive_group(required=True)
    choice.add_argument("--workload", choices=WORKLOADS)
    choice.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks decode with the program's reader
    names = WORKLOADS if args.all else (args.workload,)
    print(environment())
    try:
        results = [
            run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    finally:
        remove(WORK)
    if args.all:
        print(json.dumps({name: result for name, result in zip(names, results)}))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
