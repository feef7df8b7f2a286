"""Compiled gate-tape engine vs. the interpreted Feynman-path runner.

The per-query cost of the paper's evaluation is ``O(n_gates * n_paths)``
(Sec. 6.2); what the compiled engine removes is the constant in front of it:
per-gate string dispatch and full-block masked Pauli updates.  Both engines
draw through the same per-shot ``ShotSeeds`` streams, so on the production
path the shared draw bounds the ratio.  The main workload is the noisy
Monte-Carlo setting of Figures 9-11 (capacity-32 virtual QRAM, 256 shots,
phase-flip noise at ``eps = 1e-3``); its tape-over-interp ratio is reported,
not gated.  The branching workload (fused-teleportation links, which double
and collapse the path set mid-shot) gates a parity floor instead.

Run standalone for a quick speedup table::

    PYTHONPATH=src python benchmarks/bench_compiled_engine.py

or through the benchmark harness (``pytest benchmarks/ --benchmark-only``).
``--report-only`` downgrades a missed speedup floor from failure to a
warning (used in CI, where shared-runner wall-clock timing is unreliable);
the interp/tape trajectory bit-identity checks on both workloads always
gate.  ``--json PATH`` writes the measurements (including the gated branching
speedup) for ``benchmarks/check_regression.py`` to compare against the
committed baseline.
"""

import json
import time

import numpy as np

from repro.experiments.common import format_table, random_memory
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


def _run_branching(engine_name: str, compiled, noise):
    return get_engine(engine_name).run_noisy_shots(
        compiled.circuit,
        compiled.input_state,
        noise,
        BRANCH_SHOTS,
        rng=ShotSeeds(seed=BRANCH_SEED),
    )


def _run(engine_name: str, compiled, noise, seed: int = 0):
    engine = get_engine(engine_name)
    return engine.run_noisy_shots(
        compiled.circuit,
        compiled.input_state,
        noise,
        SHOTS,
        rng=ShotSeeds(seed=seed),
    )


def bench_interpreted_engine_noisy_m5(benchmark):
    """Interpreted runner: 256 noisy shots of a capacity-32 QRAM query."""
    _, compiled, noise = _workload()
    bits, _ = benchmark(_run, "feynman-interp", compiled, noise)
    assert bits.shape[0] == SHOTS * compiled.input_state.num_paths


def bench_tape_engine_noisy_m5(benchmark):
    """Compiled tape engine on the identical workload."""
    _, compiled, noise = _workload()
    bits, _ = benchmark(_run, "feynman-tape", compiled, noise)
    assert bits.shape[0] == SHOTS * compiled.input_state.num_paths


def bench_tape_engine_branching_m3(benchmark):
    """Tape engine on the branching fused-teleportation workload."""
    compiled, noise = _branching_workload()
    bits, _ = benchmark(_run_branching, "feynman-tape", compiled, noise)
    assert bits.shape[0] == BRANCH_SHOTS * compiled.input_state.num_paths


def bench_tape_engine_noiseless_m6(benchmark):
    """Noiseless compiled execution of a capacity-64 query (197 qubits)."""
    architecture = VirtualQRAM(memory=random_memory(6), qram_width=6)
    compiled = architecture.compiled_query()
    engine = get_engine("feynman-tape")
    output = benchmark(engine.run, compiled.circuit, compiled.input_state)
    assert output.num_paths == 64


def main(gate_speedup: bool = True, json_path: str | None = None) -> int:
    architecture, compiled, noise = _workload()
    tape = compiled.tape
    print(
        f"workload: {architecture.name} m={M}, {compiled.circuit.num_qubits} qubits, "
        f"{tape.num_gates} gates fused into {tape.num_groups} groups, "
        f"{SHOTS} shots, phase-flip eps={EPSILON}"
    )

    timings: dict[str, float] = {}
    results: dict[str, tuple] = {}
    for name in ("feynman-interp", "feynman-tape"):
        _run(name, compiled, noise)  # warm caches (tape, noise sites)
        repeats = 5
        best = min(
            _timed(name, compiled, noise) for _ in range(repeats)
        )
        timings[name] = best
        results[name] = _run(name, compiled, noise)

    same_bits = np.array_equal(results["feynman-interp"][0], results["feynman-tape"][0])
    same_amps = np.array_equal(results["feynman-interp"][1], results["feynman-tape"][1])
    speedup = timings["feynman-interp"] / timings["feynman-tape"]

    rows = [
        ["feynman-interp", timings["feynman-interp"] * 1e3, 1.0],
        ["feynman-tape", timings["feynman-tape"] * 1e3, speedup],
    ]
    print(format_table(["engine", "best of 5 (ms)", "speedup"], rows))
    print(f"trajectories bit-identical (interp/tape): bits={same_bits} amps={same_amps}")

    # Branching micro-benchmark: the fused-teleportation circuit doubles and
    # collapses the path set mid-shot, the code paths the QRAM query above
    # never executes.  Both engines must stay bit-identical on it (hard
    # gate), and the tape engine's lead over the interpreter must not
    # regress (speedup gate vs the committed baseline).
    branch_compiled, branch_noise = _branching_workload()
    branch_timings: dict[str, float] = {}
    branch_results: dict[str, tuple] = {}
    for name in ("feynman-interp", "feynman-tape"):
        _run_branching(name, branch_compiled, branch_noise)  # warm caches
        branch_timings[name] = min(
            _timed_branching(name, branch_compiled, branch_noise)
            for _ in range(5)
        )
        branch_results[name] = _run_branching(name, branch_compiled, branch_noise)
    branch_identical = np.array_equal(
        branch_results["feynman-tape"][0], branch_results["feynman-interp"][0]
    ) and np.array_equal(
        branch_results["feynman-tape"][1], branch_results["feynman-interp"][1]
    )
    branching_speedup = (
        branch_timings["feynman-interp"] / branch_timings["feynman-tape"]
    )
    print(
        f"branching workload ({branch_compiled.circuit.num_qubits} qubits, "
        f"{branch_compiled.measurements} measurements, {BRANCH_SHOTS} shots): "
        f"tape {branch_timings['feynman-tape'] * 1e3:.0f} ms, "
        f"{branching_speedup:.2f}x over interp"
    )
    print(f"branching trajectories bit-identical (interp/tape): {branch_identical}")
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
            "timings_seconds": dict(timings),
            "branching_timings_seconds": dict(branch_timings),
            "bit_identical": bool(same_bits and same_amps),
            "branching_bit_identical": bool(branch_identical),
            "ratios": {"tape_vs_interp_speedup": speedup},
            "gates": {"branching_tape_vs_interp_speedup": branching_speedup},
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")
    if not (same_bits and same_amps):
        print("FAIL: engines disagree")
        return 1
    if not branch_identical:
        print("FAIL: engines disagree on the branching workload")
        return 1
    if branching_speedup < 0.75:
        # Measurement collapse forces per-shot execution, so tape's lead
        # shrinks to parity on branching workloads -- but falling clearly
        # behind the interpreter flags a regression in the doubling path.
        message = (
            f"tape engine branching speedup {branching_speedup:.2f}x over "
            "interp is below the 0.75x parity floor"
        )
        if gate_speedup:
            print(f"FAIL: {message}")
            return 1
        # Wall-clock gating is flaky on shared CI runners; report instead.
        print(f"WARN: {message}")
        return 0
    print(
        f"OK: engines bit-identical; tape is {speedup:.2f}x (reported) and "
        f"{branching_speedup:.2f}x (branching, gated) over interp"
    )
    return 0


def _timed(name, compiled, noise) -> float:
    start = time.perf_counter()
    _run(name, compiled, noise)
    return time.perf_counter() - start


def _timed_branching(name, compiled, noise) -> float:
    start = time.perf_counter()
    _run_branching(name, compiled, noise)
    return time.perf_counter() - start


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="warn instead of failing when the speedup target is missed "
        "(bit-identity always gates)",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    cli_args = parser.parse_args()
    raise SystemExit(
        main(gate_speedup=not cli_args.report_only, json_path=cli_args.json)
    )
