"""Sec. 6.2: Feynman-path simulation scales far beyond dense statevector simulation.

The paper's evaluation methodology rests on the observation that QRAM circuits
are built from basis-permutation gates, so the path simulator's cost per query
is O(n_gates * n_paths) with memory constant in depth, while a dense
statevector needs 2^(qubit count) amplitudes.  These benchmarks measure both
engines on the same circuits and demonstrate the cross-over: the largest QRAM
the dense simulator can touch is tiny, while the path simulator comfortably
reaches the m = 6..8 sizes used in Figures 9-11.
"""

import time

import numpy as np
from conftest import emit

from repro.experiments.common import format_table, random_memory
from repro.qram import VirtualQRAM
from repro.sim import GateNoiseModel, PauliChannel, StatevectorSimulator, get_engine, query_fidelities


def _query_circuit(m: int):
    memory = random_memory(m)
    architecture = VirtualQRAM(memory=memory, qram_width=m)
    return architecture, architecture.build_circuit()


def bench_path_simulator_noiseless_m6(benchmark):
    """Noiseless path simulation of a capacity-64 QRAM query (197 qubits)."""
    architecture, circuit = _query_circuit(6)
    state = architecture.input_state()
    simulator = get_engine()
    output = benchmark(simulator.run, circuit, state)
    assert output.num_paths == 64


def bench_path_simulator_noisy_shots_m5(benchmark):
    """256 Monte-Carlo noisy shots of a capacity-32 QRAM query."""
    architecture, circuit = _query_circuit(5)
    state = architecture.input_state()
    noise = GateNoiseModel(PauliChannel.phase_flip(1e-3))

    def run():
        return query_fidelities(
            circuit, state, noise, shots=256, keep_qubits=architecture.kept_qubits(),
            rng=np.random.default_rng(0),
        )

    result = benchmark(run)
    assert 0.0 <= result.mean_fidelity <= 1.0


def bench_statevector_simulator_largest_feasible(benchmark):
    """Dense simulation of the largest QRAM that still fits (m = 2, 13 qubits)."""
    architecture, circuit = _query_circuit(2)
    state = architecture.input_state()
    simulator = StatevectorSimulator()
    vector = benchmark(simulator.run, circuit, state)
    assert np.isclose(np.linalg.norm(vector), 1.0)


def bench_simulator_crossover_table(run_once):
    """Side-by-side runtime of both engines as the QRAM width grows."""

    def sweep():
        rows = []
        for m in (1, 2, 3, 4, 5, 6):
            architecture, circuit = _query_circuit(m)
            state = architecture.input_state()
            start = time.perf_counter()
            get_engine().run(circuit, state)
            path_seconds = time.perf_counter() - start

            if circuit.num_qubits <= 20:
                start = time.perf_counter()
                StatevectorSimulator().run(circuit, state)
                dense_seconds = time.perf_counter() - start
                dense_text = f"{dense_seconds:.4f}"
            else:
                dense_text = f"infeasible ({circuit.num_qubits} qubits)"
            rows.append([m, circuit.num_qubits, f"{path_seconds:.4f}", dense_text])
        return rows

    rows = run_once(sweep)
    emit(
        "Simulator scaling (seconds per noiseless query simulation)",
        format_table(["m", "qubits", "Feynman path", "dense statevector"], rows),
    )
    # The dense simulator falls off a cliff (or becomes infeasible) well before
    # the sizes the evaluation needs.
    assert "infeasible" in rows[-1][3]


def bench_path_cost_linear_in_paths(run_once):
    """Path-simulation cost grows with the number of input paths, not with 2^qubits."""

    def sweep():
        architecture, circuit = _query_circuit(6)
        timings = []
        for num_addresses in (1, 8, 64):
            amplitude = 1.0 / np.sqrt(num_addresses)
            amplitudes = {a: amplitude for a in range(num_addresses)}
            state = architecture.input_state(amplitudes)
            start = time.perf_counter()
            get_engine().run(circuit, state)
            timings.append((num_addresses, time.perf_counter() - start))
        return timings

    timings = run_once(sweep)
    emit(
        "Path-count scaling (capacity-64 QRAM)",
        "\n".join(f"{paths} paths: {seconds:.4f}s" for paths, seconds in timings),
    )
    # 64x more paths must cost far less than 64x more time (vectorisation).
    assert timings[-1][1] < 64 * max(timings[0][1], 1e-4)
