"""Result-cache benchmark: warm hits are bit-identical and orders faster.

The workload is the heaviest builtin scenario, ``htree-teleport-executed``
(expanded hop chains, mid-circuit measurement), run fresh through the
sharded sweep runner and then re-read warm from a content-addressed cache.
Two properties are measured:

* **Bit-identity** (always gates): the warm records must equal the fresh
  ones exactly -- the cache may never change an answer, only its latency.
* **Warm-hit speedup** (gated vs the committed baseline): fresh wall-clock
  over warm wall-clock.  A warm hit is one memory-mapped ``.rrec`` read
  (no JSON parse), so the ratio is huge; the committed baseline is
  deliberately conservative (the gate catches the cache silently
  re-executing, not file-system jitter).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cache.py
    PYTHONPATH=src python benchmarks/bench_cache.py \
        --report-only --json BENCH_cache.json
"""

import argparse
import json
import os
import tempfile
import time

from repro.cache import ResultCache
from repro.scenarios import run_scenario

SCENARIO = "htree-teleport-executed"
SHOTS = 64
SEED = 7
#: Floor the warm-hit speedup must clear on any machine: a warm hit that is
#: not at least this much faster means the cache re-computed something.
SPEEDUP_TARGET = 10.0


def _timed_run(cache: ResultCache, workers: int = 1) -> tuple[float, list]:
    start = time.perf_counter()
    records = run_scenario(
        SCENARIO, shots=SHOTS, seed=SEED, workers=workers, cache=cache
    )
    return time.perf_counter() - start, records


def bench_cache_warm_hit(benchmark):
    """pytest-benchmark harness: warm hit latency on a pre-warmed cache."""
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        _timed_run(cache)
        records = benchmark(
            run_scenario, SCENARIO, shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        assert records


def main(argv: list[str] | None = None) -> int:
    """Measure fresh-vs-warm latency and gate identity + speedup."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="downgrade a missed speedup target from failure to warning "
        "(bit-identity always gates)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="warm-hit repeats (best-of)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    print(
        f"workload: {SCENARIO}, {SHOTS} shots, seed {SEED}, "
        f"{os.cpu_count()} cores"
    )
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        fresh_seconds, fresh_records = _timed_run(cache)
        warm_seconds = float("inf")
        warm_records = None
        for _ in range(args.repeats):
            elapsed, warm_records = _timed_run(cache)
            warm_seconds = min(warm_seconds, elapsed)
        document_bytes = cache.path_for(cache.fingerprints()[0]).stat().st_size

    identical = warm_records == fresh_records
    speedup = fresh_seconds / warm_seconds
    print(
        f"fresh {fresh_seconds * 1e3:.0f} ms, warm hit {warm_seconds * 1e3:.2f} ms "
        f"({speedup:.0f}x), cached document {document_bytes} bytes"
    )
    print(f"warm records bit-identical to fresh run: {identical}")

    if args.json:
        payload = {
            "benchmark": "cache",
            "workload": {
                "scenario": SCENARIO,
                "shots": SHOTS,
                "seed": SEED,
                "cores": os.cpu_count(),
            },
            "timings_seconds": {"fresh": fresh_seconds, "warm": warm_seconds},
            "document_bytes": document_bytes,
            "identical": identical,
            "gates": {"warm_hit_speedup": speedup},
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not identical:
        print("FAIL: warm cache hit returned different records than the fresh run")
        return 1
    if speedup < SPEEDUP_TARGET:
        message = (
            f"warm-hit speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_TARGET:.0f}x floor"
        )
        if args.report_only:
            print(f"WARN: {message}")
            return 0
        print(f"FAIL: {message}")
        return 1
    print(f"OK: {speedup:.0f}x warm-hit speedup")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
