"""Unit tests for Pauli channels and Monte-Carlo noise injection."""

import numpy as np
import pytest

from repro.circuit import Instruction, QuantumCircuit
from repro.sim import (
    DepolarizingNoise,
    GateNoiseModel,
    NoiselessModel,
    PauliChannel,
    QubitOncePauliNoise,
    sample_noisy_circuit,
)
from repro.sim.noise import expected_error_insertions, iter_error_sites


class TestPauliChannel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PauliChannel(p_x=-0.1)
        with pytest.raises(ValueError):
            PauliChannel(p_x=0.6, p_z=0.6)

    def test_convenience_constructors(self):
        assert PauliChannel.phase_flip(0.01) == PauliChannel(p_z=0.01)
        assert PauliChannel.bit_flip(0.01) == PauliChannel(p_x=0.01)
        dep = PauliChannel.depolarizing(0.03)
        assert dep.p_total == pytest.approx(0.03)

    def test_scaled(self):
        channel = PauliChannel(p_x=0.1, p_z=0.2).scaled(0.5)
        assert channel.p_x == pytest.approx(0.05)
        assert channel.p_z == pytest.approx(0.1)

    def test_is_trivial(self):
        assert PauliChannel().is_trivial
        assert not PauliChannel(p_y=1e-9).is_trivial

    def test_sampling_statistics(self):
        channel = PauliChannel(p_x=0.3, p_z=0.2)
        rng = np.random.default_rng(0)
        samples = channel.sample_thresholded(rng, 20000)
        x_fraction = np.mean(samples == 1)
        z_fraction = np.mean(samples == 3)
        assert abs(x_fraction - 0.3) < 0.02
        assert abs(z_fraction - 0.2) < 0.02


class TestGateNoiseModel:
    def test_channels_returned_for_each_operand(self):
        model = GateNoiseModel(PauliChannel.phase_flip(0.01))
        instr = Instruction(gate="CSWAP", qubits=(0, 1, 2))
        channels = model.gate_error_channels(instr)
        assert [qubit for qubit, _ in channels] == [0, 1, 2]

    def test_barriers_and_noise_instructions_skipped(self):
        model = GateNoiseModel(PauliChannel.phase_flip(0.01))
        barrier = Instruction(gate="BARRIER", qubits=(0,))
        error = Instruction(gate="X", qubits=(0,), tags=frozenset({"noise"}))
        assert model.gate_error_channels(barrier) == []
        assert model.gate_error_channels(error) == []

    def test_two_qubit_factor(self):
        model = GateNoiseModel(PauliChannel.bit_flip(0.01), two_qubit_factor=10)
        single = model.gate_error_channels(Instruction(gate="X", qubits=(0,)))
        double = model.gate_error_channels(Instruction(gate="CX", qubits=(0, 1)))
        assert single[0][1].p_x == pytest.approx(0.01)
        assert double[0][1].p_x == pytest.approx(0.1)

    def test_classical_gate_exclusion(self):
        model = GateNoiseModel(PauliChannel.bit_flip(0.01), include_classical=False)
        classical = Instruction(gate="CX", qubits=(0, 1), tags=frozenset({"classical"}))
        assert model.gate_error_channels(classical) == []

    def test_scaled_model(self):
        model = GateNoiseModel(PauliChannel.bit_flip(0.01)).scaled(0.1)
        assert model.channel.p_x == pytest.approx(0.001)

    def test_depolarizing_helper(self):
        model = DepolarizingNoise(0.03)
        assert isinstance(model, GateNoiseModel)
        assert model.channel.p_total == pytest.approx(0.03)


class TestSampling:
    def _toy_circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        circuit.swap(1, 2)
        return circuit

    def test_noiseless_sampling_preserves_circuit(self):
        circuit = self._toy_circuit()
        sampled = sample_noisy_circuit(circuit, NoiselessModel(), np.random.default_rng(0))
        assert len(sampled) == len(circuit)

    def test_heavy_noise_inserts_errors(self):
        circuit = self._toy_circuit()
        noise = GateNoiseModel(PauliChannel(p_x=0.9))
        sampled = sample_noisy_circuit(circuit, noise, np.random.default_rng(0))
        assert sampled.count_tagged("noise") > 0
        # Logical gates are preserved, in order.
        logical = [instr.gate for instr in sampled.gates if not instr.is_noise]
        assert logical == ["CX", "CCX", "SWAP"]

    def test_expected_error_insertions(self):
        circuit = self._toy_circuit()
        noise = GateNoiseModel(PauliChannel.phase_flip(0.1))
        # operand count: 2 + 3 + 2 = 7 error sites
        assert expected_error_insertions(circuit, noise) == pytest.approx(0.7)
        assert len(list(iter_error_sites(circuit, noise))) == 7

    def test_qubit_once_noise_inserts_at_most_one_error_per_qubit(self):
        circuit = self._toy_circuit()
        noise = QubitOncePauliNoise(PauliChannel(p_x=1.0))
        sampled = sample_noisy_circuit(circuit, noise, np.random.default_rng(1))
        errors = [instr for instr in sampled.gates if instr.is_noise]
        assert len(errors) == 3  # one per touched qubit
        assert len({instr.qubits[0] for instr in errors}) == 3

    def test_qubit_once_noise_expected_insertions(self):
        circuit = self._toy_circuit()
        noise = QubitOncePauliNoise(PauliChannel.phase_flip(0.25))
        assert expected_error_insertions(circuit, noise) == pytest.approx(0.75)

    def test_qubit_once_noise_rejects_streaming_interface(self):
        noise = QubitOncePauliNoise(PauliChannel.phase_flip(0.1))
        with pytest.raises(NotImplementedError):
            noise.gate_error_channels(Instruction(gate="X", qubits=(0,)))
