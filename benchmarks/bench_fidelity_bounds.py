"""Sec. 5.1 fidelity bounds (Eqs. 3, 5, 6) versus Monte-Carlo simulation.

Not a figure of its own in the paper, but the bounds underpin Figures 9-11 and
the asymmetric-code design of Sec. 5.2, so the harness regenerates a
bound-vs-simulation table under the qubit-based phase-flip channel the bounds
are derived for.
"""

import numpy as np
from conftest import emit

from repro.analysis import qram_z_fidelity_bound, virtual_z_fidelity_bound
from repro.experiments.common import format_table, random_memory
from repro.qram import VirtualQRAM
from repro.sim import PauliChannel, QubitOncePauliNoise, get_engine, sample_noisy_circuit
from repro.sim.fidelity import reduced_fidelity

EPSILON = 2e-3
SHOTS = 400


def _qubit_noise_fidelity(architecture: VirtualQRAM, epsilon: float, shots: int) -> float:
    """Monte-Carlo fidelity under the per-qubit phase-flip channel of Sec. 5.1."""
    simulator = get_engine()
    circuit = architecture.build_circuit()
    state = architecture.input_state()
    ideal = architecture.ideal_output(state)
    noise = QubitOncePauliNoise(PauliChannel.phase_flip(epsilon))
    rng = np.random.default_rng(2023)
    values = []
    for _ in range(shots):
        noisy_circuit = sample_noisy_circuit(circuit, noise, rng)
        noisy = simulator.run(noisy_circuit, state)
        values.append(reduced_fidelity(ideal, noisy, architecture.kept_qubits()))
    return float(np.mean(values))


def bench_eq3_bound_vs_simulation(run_once):
    """Eq. 3 (k = 0): simulated fidelity must sit above the analytic lower bound."""

    def sweep():
        rows = []
        for m in (1, 2, 3, 4):
            memory = random_memory(m)
            architecture = VirtualQRAM(memory=memory, qram_width=m)
            simulated = _qubit_noise_fidelity(architecture, EPSILON, SHOTS)
            bound = qram_z_fidelity_bound(EPSILON, m)
            rows.append([m, bound, simulated])
        return rows

    rows = run_once(sweep)
    emit(
        "Eq. 3 bound vs simulation (per-qubit Z channel, eps = 2e-3)",
        format_table(["m", "analytic bound", "simulated"], rows),
    )
    for _, bound, simulated in rows:
        assert simulated >= bound - 0.03


def bench_eq5_bound_vs_simulation(run_once):
    """Eq. 5 (hybrid bound): checked at a paged configuration (m=2, k=2)."""

    def run():
        memory = random_memory(4)
        architecture = VirtualQRAM(memory=memory, qram_width=2)
        simulated = _qubit_noise_fidelity(architecture, EPSILON, SHOTS)
        return simulated, virtual_z_fidelity_bound(EPSILON, 2, 2)

    simulated, bound = run_once(run)
    emit(
        "Eq. 5 bound vs simulation (m=2, k=2)",
        f"analytic bound: {bound:.4f}\nsimulated:      {simulated:.4f}",
    )
    assert simulated >= bound - 0.03
