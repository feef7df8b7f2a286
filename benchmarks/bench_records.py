"""Record-store benchmark: mmap shard merge vs JSON, packed size vs JSON.

The workload is a synthetic 120k-record sweep split into 8 worker shards,
committed once as ``.rrec`` files and once as JSON documents.  Three
properties are measured:

* **Bit-identity** (always gates): the memory-mapped k-way merge's output
  bytes must equal one serial re-encode of the concatenated records, and
  its rows must equal the JSON parse-and-concatenate merge.  The merge may
  never change an answer, only its latency.
* **Merge speedup** (gated vs the committed baseline): JSON merge
  wall-clock (parse every shard, concatenate, re-serialize) over mmap merge
  wall-clock.  The binary path copies int64 matrices and remaps string
  columns; it never materializes a record, so the ratio is large.
* **Size advantage** (gated): merged JSON bytes over merged ``.rrec``
  bytes.  At 8 bytes per field plus one interning table the packed file is
  well under 0.4x the JSON document (advantage well above 2.5x).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_records.py
    PYTHONPATH=src python benchmarks/bench_records.py \
        --report-only --json BENCH_records.json
"""

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.records import merge_record_files, read_records, write_records
from repro.scenarios.record import ScenarioRecord

ROWS = 120_000
SHARDS = 8
#: Floors the merge must clear on any machine (the committed baseline is the
#: conservative reference the regression checker applies its tolerance to).
MERGE_SPEEDUP_TARGET = 5.0
#: json_bytes / rrec_bytes must exceed this -- equivalently, the packed file
#: is at most 0.4x the JSON document.
SIZE_ADVANTAGE_TARGET = 2.5

_SCENARIOS = ("htree-swap-m3", "htree-teleport-m3", "ideal-m3", "perth-m1")


def synthesize(rows: int) -> list[ScenarioRecord]:
    """A deterministic synthetic sweep of ``rows`` records (no RNG)."""
    records = []
    for index in range(rows):
        records.append(
            ScenarioRecord(
                scenario=_SCENARIOS[index % len(_SCENARIOS)],
                architecture="virtual",
                m=2 + index % 3,
                k=index % 2,
                mapping="htree",
                routing="swap",
                router="greedy-swap",
                device="htree-grid",
                num_qubits=20 + index % 40,
                logical_gates=100 + index % 1000,
                executed_gates=140 + index % 1400,
                extra_swaps=index % 60,
                link_operations=index % 12,
                measurements=index % 8,
                logical_depth=30 + index % 300,
                executed_depth=40 + index % 500,
                idle_error=1e-5 * (index % 7),
                readout_error=1e-4 * (index % 5),
                error_reduction_factor=float(1 + index % 100),
                shots=1024,
                engine="feynman-tape",
                fidelity=(index % 1000) / 1000.0,
                std_error=(index % 97) / 10_000.0,
                kept_fraction=1.0 - (index % 13) / 100.0,
            )
        )
    return records


def _shard(records: list, shards: int) -> list[list]:
    size = (len(records) + shards - 1) // shards
    return [records[start : start + size] for start in range(0, len(records), size)]


def _json_merge(paths: list[Path], output: Path) -> None:
    """The replaced path: parse every shard document, concatenate, re-dump."""
    merged = []
    for path in paths:
        with path.open(encoding="utf-8") as handle:
            merged.extend(json.load(handle))
    with output.open("w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def bench_records_mmap_merge(run_once):
    """pytest-benchmark harness: mmap-merge 8 shards of a 40k-record sweep."""
    with tempfile.TemporaryDirectory() as root:
        chunks = _shard(synthesize(40_000), SHARDS)
        paths = [
            write_records(Path(root, f"shard-{i}.rrec"), chunk)
            for i, chunk in enumerate(chunks)
        ]
        merged = run_once(
            merge_record_files, paths, Path(root, "merged.rrec")
        )
        assert Path(merged).stat().st_size > 0


def main(argv: list[str] | None = None) -> int:
    """Measure merge latency and file size; gate identity + both ratios."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="downgrade missed speedup/size targets from failure to warning "
        "(bit-identity always gates)",
    )
    parser.add_argument(
        "--rows", type=int, default=ROWS, help="synthetic sweep size"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="merge repeats (best-of)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    print(
        f"workload: {args.rows} synthetic records, {SHARDS} shards, "
        f"{os.cpu_count()} cores"
    )
    records = synthesize(args.rows)
    chunks = _shard(records, SHARDS)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        rrec_paths, json_paths = [], []
        for index, chunk in enumerate(chunks):
            rrec_paths.append(write_records(root / f"s{index}.rrec", chunk))
            json_path = root / f"s{index}.json"
            with json_path.open("w", encoding="utf-8") as handle:
                json.dump(
                    [record.json_dict() for record in chunk],
                    handle,
                    indent=2,
                    sort_keys=True,
                    allow_nan=False,
                )
                handle.write("\n")
            json_paths.append(json_path)

        mmap_seconds = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            merge_record_files(rrec_paths, root / "merged.rrec", tag="bench")
            mmap_seconds = min(mmap_seconds, time.perf_counter() - start)

        json_seconds = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            _json_merge(json_paths, root / "merged.json")
            json_seconds = min(json_seconds, time.perf_counter() - start)

        rrec_bytes = (root / "merged.rrec").stat().st_size
        json_bytes = (root / "merged.json").stat().st_size

        serial = write_records(root / "serial.rrec", records, tag="bench")
        byte_identical = (
            (root / "merged.rrec").read_bytes() == serial.read_bytes()
        )
        with (root / "merged.json").open(encoding="utf-8") as handle:
            json_rows = json.load(handle)
        row_identical = (
            read_records(root / "merged.rrec")
            == [ScenarioRecord.from_dict(row) for row in json_rows]
        )

    merge_speedup = json_seconds / mmap_seconds
    size_advantage = json_bytes / rrec_bytes
    print(
        f"json merge {json_seconds * 1e3:.0f} ms, mmap merge "
        f"{mmap_seconds * 1e3:.1f} ms ({merge_speedup:.0f}x)"
    )
    print(
        f"merged size: json {json_bytes} bytes, rrec {rrec_bytes} bytes "
        f"({rrec_bytes / json_bytes:.2f}x on disk, {size_advantage:.1f}x smaller)"
    )
    print(f"mmap merge byte-identical to serial encode: {byte_identical}")
    print(f"mmap merge rows equal JSON merge rows: {row_identical}")

    if args.json:
        payload = {
            "benchmark": "records",
            "workload": {
                "rows": args.rows,
                "shards": SHARDS,
                "cores": os.cpu_count(),
            },
            "timings_seconds": {"json_merge": json_seconds, "mmap_merge": mmap_seconds},
            "merged_bytes": {"json": json_bytes, "rrec": rrec_bytes},
            "identical": bool(byte_identical and row_identical),
            "gates": {
                "merge_speedup": merge_speedup,
                "size_advantage": size_advantage,
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not (byte_identical and row_identical):
        print("FAIL: the mmap merge changed the answer")
        return 1
    failures = []
    if merge_speedup < MERGE_SPEEDUP_TARGET:
        failures.append(
            f"merge speedup {merge_speedup:.1f}x is below the "
            f"{MERGE_SPEEDUP_TARGET:.0f}x floor"
        )
    if size_advantage < SIZE_ADVANTAGE_TARGET:
        failures.append(
            f"size advantage {size_advantage:.1f}x is below the "
            f"{SIZE_ADVANTAGE_TARGET:.1f}x floor (rrec must be <= 0.4x json)"
        )
    if failures:
        for message in failures:
            print(f"{'WARN' if args.report_only else 'FAIL'}: {message}")
        return 0 if args.report_only else 1
    print(
        f"OK: {merge_speedup:.0f}x merge speedup, {size_advantage:.1f}x "
        "smaller on disk"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
