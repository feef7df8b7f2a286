"""Compiled gate-tape engine timings on a plain and a branching workload.

The per-query cost of the paper's evaluation is ``O(n_gates * n_paths)``
(Sec. 6.2); the compiled engine keeps the constant in front of it small with
fused, opcode-dispatched groups and sparse per-shot error events.  The main
workload is the noisy Monte-Carlo setting of Figures 9-11 (capacity-32
virtual QRAM, 256 shots, phase-flip noise at ``eps = 1e-3``); the branching
workload (fused-teleportation links, which double and collapse the path set
mid-shot) times the code paths the plain query never touches.  Timings are
reported, not gated.

The gate is determinism: on both workloads, running the shot range as
consecutive ``ShotSeeds`` windows and concatenating the blocks must
reproduce the unsharded run bit for bit -- the property every sharded sweep
rests on.  The dense oracle cannot hold the m=5 circuit, so equality with
it is checked by the test suite on smaller circuits instead.

Run standalone for a quick timing table::

    PYTHONPATH=src python benchmarks/bench_compiled_engine.py

or through the benchmark harness (``pytest benchmarks/ --benchmark-only``).
``--json PATH`` writes the measurements for
``benchmarks/check_regression.py`` to compare against the committed
baseline.
"""

import json
import time

import numpy as np

from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM
from repro.sim import GateNoiseModel, PauliChannel, ShotSeeds, get_engine

M = 5
SHOTS = 256
EPSILON = 1e-3
BRANCH_SHOTS = 128
BRANCH_SEED = 7


def _workload():
    architecture = VirtualQRAM(memory=random_memory(M), qram_width=M)
    compiled = architecture.compiled_query()
    noise = GateNoiseModel(PauliChannel.phase_flip(EPSILON))
    return architecture, compiled, noise


def _branching_workload():
    """The m=3 fused-teleportation circuit: the branching micro-benchmark.

    Entanglement-swapping links branch the path set mid-circuit (Bell-pair
    ``H``) and collapse it again at the Bell measurements, so this workload
    times exactly the doubling/contraction machinery the plain QRAM query
    never touches.  Imported lazily: the scenario registry sits above the
    engines and the default workload must not pay for it.
    """
    from repro.scenarios import get_scenario
    from repro.scenarios.compile import compile_scenario

    compiled = compile_scenario(get_scenario("htree-teleport-fused"), BRANCH_SEED)
    noise = GateNoiseModel(PauliChannel.phase_flip(EPSILON))
    return compiled, noise


def _run(compiled, noise, shots: int, seeds: ShotSeeds):
    return get_engine("feynman-tape").run_noisy_shots(
        compiled.circuit, compiled.input_state, noise, shots, rng=seeds
    )


def bench_tape_engine_noisy_m5(benchmark):
    """Compiled tape engine: 256 noisy shots of a capacity-32 QRAM query."""
    _, compiled, noise = _workload()
    bits, _ = benchmark(_run, compiled, noise, SHOTS, ShotSeeds(seed=0))
    assert bits.shape[0] == SHOTS * compiled.input_state.num_paths


def bench_tape_engine_branching_m3(benchmark):
    """Tape engine on the branching fused-teleportation workload."""
    compiled, noise = _branching_workload()
    seeds = ShotSeeds(seed=BRANCH_SEED)
    bits, _ = benchmark(_run, compiled, noise, BRANCH_SHOTS, seeds)
    assert bits.shape[0] == BRANCH_SHOTS * compiled.input_state.num_paths


def bench_tape_engine_noiseless_m6(benchmark):
    """Noiseless compiled execution of a capacity-64 query (197 qubits)."""
    architecture = VirtualQRAM(memory=random_memory(6), qram_width=6)
    compiled = architecture.compiled_query()
    engine = get_engine("feynman-tape")
    output = benchmark(engine.run, compiled.circuit, compiled.input_state)
    assert output.num_paths == 64


def _best_of_5(compiled, noise, shots: int, seed: int) -> float:
    """Best wall time of five runs, after one run that warms the caches."""
    seeds = ShotSeeds(seed=seed)
    _run(compiled, noise, shots, seeds)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        _run(compiled, noise, shots, seeds)
        timings.append(time.perf_counter() - start)
    return min(timings)


def _windows_reproduce_run(compiled, noise, shots: int, seed: int) -> bool:
    """Four consecutive ``ShotSeeds`` windows concatenate to the whole run."""
    seeds = ShotSeeds(seed=seed)
    whole_bits, whole_amps = _run(compiled, noise, shots, seeds)
    width = shots // 4
    pieces = [
        _run(compiled, noise, min(width, shots - start), seeds.shifted(start))
        for start in range(0, shots, width)
    ]
    return np.array_equal(
        whole_bits, np.concatenate([bits for bits, _ in pieces])
    ) and np.array_equal(whole_amps, np.concatenate([amps for _, amps in pieces]))


def main(json_path: str | None = None) -> int:
    architecture, compiled, noise = _workload()
    tape = compiled.tape
    print(
        f"workload: {architecture.name} m={M}, {compiled.circuit.num_qubits} qubits, "
        f"{tape.num_gates} gates fused into {tape.num_groups} groups, "
        f"{SHOTS} shots, phase-flip eps={EPSILON}"
    )
    timing = _best_of_5(compiled, noise, SHOTS, 0)
    shards_identical = _windows_reproduce_run(compiled, noise, SHOTS, 0)
    print(f"feynman-tape best of 5: {timing * 1e3:.1f} ms")
    print(f"windows reproduce the unsharded run: {shards_identical}")

    branch_compiled, branch_noise = _branching_workload()
    branch_timing = _best_of_5(branch_compiled, branch_noise, BRANCH_SHOTS, BRANCH_SEED)
    branch_identical = _windows_reproduce_run(
        branch_compiled, branch_noise, BRANCH_SHOTS, BRANCH_SEED
    )
    print(
        f"branching workload ({branch_compiled.circuit.num_qubits} qubits, "
        f"{branch_compiled.measurements} measurements, {BRANCH_SHOTS} shots): "
        f"tape {branch_timing * 1e3:.0f} ms"
    )
    print(f"branching windows reproduce the unsharded run: {branch_identical}")
    if json_path:
        payload = {
            "benchmark": "compiled_engine",
            "workload": {
                "m": M,
                "shots": SHOTS,
                "epsilon": EPSILON,
                "qubits": compiled.circuit.num_qubits,
                "gates": tape.num_gates,
                "groups": tape.num_groups,
            },
            "timings_seconds": {"feynman-tape": timing},
            "branching_timings_seconds": {"feynman-tape": branch_timing},
            "shards_identical": bool(shards_identical),
            "branching_shards_identical": bool(branch_identical),
            "gates": {},
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")
    if not shards_identical:
        print("FAIL: sharded windows diverge from the unsharded run")
        return 1
    if not branch_identical:
        print("FAIL: sharded windows diverge on the branching workload")
        return 1
    print("OK: sharded windows reproduce the unsharded run on both workloads")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    cli_args = parser.parse_args()
    raise SystemExit(main(json_path=cli_args.json))
