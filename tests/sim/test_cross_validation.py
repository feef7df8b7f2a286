"""Property-based cross-validation: Feynman-path vs statevector simulation.

Every architectural claim in the reproduction rests on the Feynman-path
simulator being correct, so this module drives both engines with random
reversible circuits and random (normalised) input superpositions and requires
identical output states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PathState, StatevectorSimulator, get_engine
from tests.conftest import random_reversible_circuits


def _random_input(num_qubits: int, num_paths: int, seed: int) -> PathState:
    rng = np.random.default_rng(seed)
    dimension = 1 << num_qubits
    num_paths = min(num_paths, dimension)
    basis = rng.choice(dimension, size=num_paths, replace=False)
    amplitudes = rng.normal(size=num_paths) + 1j * rng.normal(size=num_paths)
    amplitudes /= np.linalg.norm(amplitudes)
    bits = ((basis[:, None] >> np.arange(num_qubits)) & 1).astype(bool)
    return PathState(bits=bits, amplitudes=amplitudes)


class TestPathVersusStatevector:
    @settings(max_examples=60, deadline=None)
    @given(random_reversible_circuits(max_qubits=6, max_gates=20), st.integers(0, 10**6))
    def test_same_output_state(self, circuit, seed):
        state = _random_input(circuit.num_qubits, num_paths=4, seed=seed)
        path_output = get_engine().run(circuit, state)
        dense_output = StatevectorSimulator().run(circuit, state)
        assert np.allclose(path_output.to_statevector(), dense_output, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(random_reversible_circuits(max_qubits=5, max_gates=15))
    def test_norm_preserved_by_path_simulation(self, circuit):
        state = _random_input(circuit.num_qubits, num_paths=3, seed=11)
        output = get_engine().run(circuit, state)
        assert np.isclose(output.norm(), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(random_reversible_circuits(max_qubits=5, max_gates=15))
    def test_uniform_superposition_agreement(self, circuit):
        """The uniform-superposition input used by the QRAM experiments."""
        register = list(range(min(3, circuit.num_qubits)))
        state = PathState.register_superposition(circuit.num_qubits, register)
        path_output = get_engine().run(circuit, state)
        dense_output = StatevectorSimulator().run(circuit, state)
        assert np.allclose(path_output.to_statevector(), dense_output, atol=1e-9)


class TestNoiseInjectionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(random_reversible_circuits(max_qubits=5, max_gates=12), st.integers(0, 10**6))
    def test_sampled_noisy_circuit_still_agrees(self, circuit, seed):
        """A circuit with explicit Pauli error insertions (noise tags) is still a
        basis-permutation circuit and must agree across both engines."""
        from repro.sim import GateNoiseModel, PauliChannel, sample_noisy_circuit

        rng = np.random.default_rng(seed)
        noisy = sample_noisy_circuit(
            circuit, GateNoiseModel(PauliChannel(p_x=0.1, p_z=0.1)), rng
        )
        state = _random_input(circuit.num_qubits, num_paths=4, seed=seed + 1)
        path_output = get_engine().run(noisy, state)
        dense_output = StatevectorSimulator().run(noisy, state)
        assert np.allclose(path_output.to_statevector(), dense_output, atol=1e-9)
