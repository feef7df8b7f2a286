"""Edge cases of the Pauli samplers, noise-site tables and result statistics.

These are the boundaries the sweep machinery leans on: degenerate channels
(``p_total`` exactly 0 or 1), empty site windows (noiseless or gateless
circuits under the seeded draw path) and single-shot statistics.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, compile_circuit
from repro.circuit.ir import NoiseSiteTable
from repro.sim import NoiselessModel, ShotSeeds
from repro.sim.feynman import QueryResult
from repro.sim.noise import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateNoiseModel,
    PauliChannel,
)
from repro.sim.seeding import draw_shot_randomness
from tests.conftest import site_table


class TestSampleThresholdedEdges:
    def test_p_total_zero_is_always_identity(self, rng):
        channel = PauliChannel()
        codes = channel.sample_thresholded(rng, 1000)
        assert codes.shape == (1000,)
        assert np.all(codes == PAULI_I)

    def test_p_total_one_never_draws_identity(self, rng):
        channel = PauliChannel(p_x=0.3, p_y=0.3, p_z=0.4)
        assert channel.p_total == pytest.approx(1.0)
        codes = channel.sample_thresholded(rng, 1000)
        assert not np.any(codes == PAULI_I)
        assert set(np.unique(codes)) <= {PAULI_X, PAULI_Y, PAULI_Z}

    def test_pure_z_channel_at_probability_one(self, rng):
        codes = PauliChannel(p_z=1.0).sample_thresholded(rng, 500)
        assert np.all(codes == PAULI_Z)

    def test_empty_window_consumes_nothing(self, rng):
        channel = PauliChannel(p_x=0.5)
        before = rng.bit_generator.state
        codes = channel.sample_thresholded(rng, 0)
        assert codes.shape == (0,)
        assert rng.bit_generator.state == before

    def test_consumes_exactly_size_uniforms(self):
        """The seeded-mode contract: one rng.random value per site."""
        channel = PauliChannel(p_x=0.2, p_z=0.1)
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        channel.sample_thresholded(a, 17)
        b.random(17)
        assert a.bit_generator.state == b.bit_generator.state


class TestShotBlockEdges:
    def test_p_total_zero_block(self):
        codes, _ = draw_shot_randomness(
            site_table([PauliChannel()] * 3), ShotSeeds(seed=1), 7
        )
        assert codes.shape == (3, 7)
        assert np.all(codes == PAULI_I)

    def test_p_total_one_block(self):
        codes, _ = draw_shot_randomness(
            site_table([PauliChannel(p_y=1.0)] * 2), ShotSeeds(seed=2), 50
        )
        assert codes.shape == (2, 50)
        assert np.all(codes == PAULI_Y)

    def test_empty_site_block(self):
        codes, uniforms = draw_shot_randomness(site_table([]), ShotSeeds(seed=3), 9)
        assert codes.shape == (0, 9)
        assert uniforms is None


class TestEmptySiteWindows:
    def test_noiseless_model_yields_empty_table(self):
        circuit = QuantumCircuit(2)
        circuit.add("CX", 0, 1)
        table = compile_circuit(circuit).noise_sites(NoiselessModel())
        assert table.n_sites == 0
        codes, _ = draw_shot_randomness(table, ShotSeeds(seed=3), 5)
        assert codes.shape == (0, 5)
        codes, _ = draw_shot_randomness(table, ShotSeeds(seed=0), 1)
        assert codes.shape == (0, 1)

    def test_gateless_circuit_yields_empty_table(self):
        circuit = QuantumCircuit(3)
        circuit.barrier()
        table = compile_circuit(circuit).noise_sites(
            GateNoiseModel(PauliChannel(p_x=0.5))
        )
        assert table.n_sites == 0
        codes, _ = draw_shot_randomness(table, ShotSeeds(seed=1), 1)
        assert codes.shape == (0, 1)

    def test_manual_empty_table_draws(self):
        empty = np.empty(0, dtype=np.int32)
        table = NoiseSiteTable(
            gate_index=empty, qubit=empty, group_index=empty, channels=()
        )
        codes, uniforms = draw_shot_randomness(table, ShotSeeds(seed=2), 8, 2)
        assert codes.shape == (0, 8)
        assert uniforms.shape == (2, 8)


class TestQueryResultStatistics:
    def test_std_error_at_single_shot_is_zero(self):
        result = QueryResult(fidelities=np.array([0.75]), shots=1)
        assert result.std_error == 0.0
        assert result.mean_fidelity == pytest.approx(0.75)

    def test_std_error_matches_ddof1_formula(self):
        values = np.array([1.0, 0.5, 0.25, 0.75])
        result = QueryResult(fidelities=values, shots=4)
        assert result.std_error == pytest.approx(np.std(values, ddof=1) / 2.0)

    def test_constant_fidelities_have_zero_error(self):
        result = QueryResult(fidelities=np.ones(16), shots=16)
        assert result.std_error == 0.0
