"""Dual-rail erasure detection vs the bare circuit under biased device noise.

The dual-rail tentpole's quantitative acceptance, as the bare-vs-dual
ablation pair ``bare-bb-m2`` / ``dual-rail-bb-m2`` on the erasure-biased
``dual-rail-cavity`` calibration (X/Y-dominant noise, the physical regime
dual-rail qubits are built for).  Three properties gate:

* **Zero-noise exactness** (always gates): the encoded bucket-brigade
  workload reproduces the logical output exactly on the Feynman engine --
  every shot fidelity 1.0 and ``kept_fraction == 1.0`` (every parity check
  passes).
* **Postselected advantage** (always gates): at ``eps_r = 10`` the
  dual-rail variant's postselected fidelity strictly exceeds the bare
  variant's, despite the encoding's ~3x gate overhead.
* **Magnitude + determinism** (gates vs the committed baseline): the
  infidelity-reduction ratio, the advantage with its reciprocal (the
  reciprocal turns the checker's one-sided floor into a two-sided
  bracket) and the kept fraction -- all pure functions of the seed, with
  the records bit-identical across worker counts and shard sizes (checked
  every run).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dual_rail.py
    PYTHONPATH=src python benchmarks/bench_dual_rail.py \
        --json BENCH_dual_rail.json
"""

import argparse
import json

import numpy as np

from repro.experiments.common import format_table
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario
from repro.sim.feynman import FeynmanPathSimulator
from repro.sim.noise import NoiselessModel
from repro.sim.seeding import ShotSeeds

SEED = 7
SHOTS = 2048
FACTOR = 10.0
ENGINES = ("feynman-tape",)


def _gate_variant(base: str, tag: str):
    return get_scenario(base).variant(
        f"{base}-bench-{tag}",
        "erasure-biased ablation point (dual-rail benchmark)",
        error_reduction_factors=(FACTOR,),
    )


def _zero_noise_exact() -> bool:
    """All fidelities exactly 1.0 and every check passes."""
    compiled = compile_scenario(get_scenario("dual-rail-bb-m2"), SEED)
    for engine in ENGINES:
        result = FeynmanPathSimulator(engine=engine).query_fidelities(
            compiled.circuit,
            compiled.input_state,
            NoiselessModel(),
            16,
            keep_qubits=list(compiled.keep_qubits),
            ideal_output=compiled.ideal_output,
            rng=ShotSeeds(seed=SEED),
            postselect=compiled.postselect,
        )
        if result.kept_fraction != 1.0 or not np.all(result.fidelities == 1.0):
            return False
    return True


def _sharding_invariant(spec) -> bool:
    """Records (kept_fraction included) identical for any worker/shard split."""
    reference = run_scenario(spec, shots=256, seed=SEED, workers=1)
    sharded = run_scenario(spec, shots=256, seed=SEED, workers=4, shard_size=16)
    return reference == sharded


def bench_dual_rail_serial(benchmark):
    """Serial dual-rail bucket-brigade sweep: m=2, eps_r=10, 64 shots."""
    spec = _gate_variant("dual-rail-bb-m2", "pytest")
    records = benchmark(run_scenario, spec, shots=64, seed=SEED, workers=1)
    assert 0.0 <= records[0]["kept_fraction"] <= 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=4, help="sweep workers (records invariant)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    bare_spec = _gate_variant("bare-bb-m2", "gate")
    dual_spec = _gate_variant("dual-rail-bb-m2", "gate")
    bare_compiled = compile_scenario(bare_spec, SEED)
    dual_compiled = compile_scenario(dual_spec, SEED)
    print(
        f"workload: bucket-brigade m=2 on {dual_compiled.device.name}, "
        f"eps_r={FACTOR}, {SHOTS} shots, seed={SEED}"
    )
    print(
        f"qubits: bare {bare_compiled.circuit.num_qubits} vs dual "
        f"{dual_compiled.circuit.num_qubits}; gates: "
        f"{bare_compiled.executed_gates} vs {dual_compiled.executed_gates} "
        f"({dual_compiled.measurements} checks)"
    )

    exact = _zero_noise_exact()
    print(f"dual-rail zero-noise exact: {exact}")
    invariant = _sharding_invariant(dual_spec)
    print(f"records sharding-invariant: {invariant}")

    results = {}
    for label, spec in (("bare", bare_spec), ("dual-rail", dual_spec)):
        [record] = run_scenario(spec, shots=SHOTS, seed=SEED, workers=args.workers)
        results[label] = record
    rows = [
        [label, record["fidelity"], record["std_error"], record["kept_fraction"]]
        for label, record in results.items()
    ]
    print(
        format_table(
            ["variant", f"fidelity@eps_r={FACTOR}", "std_error", "kept_fraction"],
            rows,
        )
    )
    advantage = results["dual-rail"]["fidelity"] - results["bare"]["fidelity"]
    reduction = (1.0 - results["bare"]["fidelity"]) / (
        1.0 - results["dual-rail"]["fidelity"]
    )
    kept_fraction = results["dual-rail"]["kept_fraction"]
    print(
        f"postselected advantage: {advantage:+.4f} "
        f"(infidelity reduced {reduction:.2f}x, kept {kept_fraction:.3f})"
    )

    if args.json:
        payload = {
            "benchmark": "dual_rail",
            "workload": {
                "architecture": "bucket-brigade",
                "qram_width": 2,
                "device": dual_compiled.device.name,
                "error_reduction_factor": FACTOR,
                "shots": SHOTS,
                "seed": SEED,
            },
            "zero_noise_exact": exact,
            "sharding_invariant": invariant,
            "fidelities": {
                label: {
                    "fidelity": record["fidelity"],
                    "std_error": record["std_error"],
                    "kept_fraction": record["kept_fraction"],
                }
                for label, record in results.items()
            },
            "gates": {
                "infidelity_reduction_ratio": reduction,
                "dual_advantage_x100": advantage * 100.0,
                "dual_advantage_reciprocal": (
                    1.0 / advantage if advantage > 0 else 0.0
                ),
                "kept_fraction_x100": kept_fraction * 100.0,
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not exact:
        print("FAIL: dual-rail encoding is not exact at zero noise")
        return 1
    if not invariant:
        print("FAIL: records differ across worker counts / shard sizes")
        return 1
    if advantage <= 0:
        print(
            "FAIL: dual-rail does not beat bare under erasure-biased noise "
            f"(advantage {advantage:+.4f})"
        )
        return 1
    print(
        f"OK: dual-rail beats bare by {advantage:+.4f} "
        f"({reduction:.2f}x lower infidelity) at kept_fraction {kept_fraction:.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
