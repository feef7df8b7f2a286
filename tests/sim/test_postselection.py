"""Postselection plumbing: recorded runs, NaN accounting, shard invariance.

Covers the ``run_noisy_shots_recorded`` engine entry points (same random
stream as the unrecorded runs, bit for bit), the ``kept`` mask through
``shot_fidelities``, the :class:`QueryResult` aggregates at the edges
(everything rejected, a single kept shot) and the sweep-runner guarantee
that ``kept_fraction`` is identical for any worker count and shard size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.mapping.dual_rail import encode_dual_rail
from repro.sim import (
    FeynmanPathSimulator,
    GateNoiseModel,
    NoiselessModel,
    PathState,
    PauliChannel,
)
from repro.sim.engine import get_engine
from repro.sim.feynman import QueryResult
from repro.sim.fidelity import shot_fidelities

#: The legacy names alias the tape engine; they are run too, so saved
#: ``--engine`` flags are checked through this entry point.
FEYNMAN_ENGINES = ("feynman-interp", "feynman-tape", "feynman-batch")


def measured_circuit() -> QuantumCircuit:
    """Two-qubit workload whose ancilla measurement records into slot 0."""
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.measure(2)
    circuit.ccx(0, 1, 2)
    return circuit


class TestRecordedRuns:
    @pytest.mark.parametrize("engine_name", FEYNMAN_ENGINES)
    def test_same_stream_as_unrecorded(self, engine_name):
        """Recording observes the register; it must not consume randomness."""
        engine = get_engine(engine_name)
        circuit = measured_circuit()
        state = PathState.register_superposition(3, [0])
        noise = GateNoiseModel(PauliChannel(p_x=0.05, p_z=0.02))
        bits, amps = engine.run_noisy_shots(
            circuit, state, noise, 64, rng=np.random.default_rng(9)
        )
        bits_r, amps_r, outcomes = engine.run_noisy_shots_recorded(
            circuit, state, noise, 64, rng=np.random.default_rng(9)
        )
        assert np.array_equal(bits, bits_r)
        assert np.array_equal(amps, amps_r)
        assert outcomes is not None
        assert outcomes.shape == (1, 64)
        assert outcomes.dtype == np.int8

    @pytest.mark.parametrize("engine_name", FEYNMAN_ENGINES)
    def test_engines_record_identical_outcomes(self, engine_name):
        """Every engine sees the same seeded stream, so the same register."""
        circuit = measured_circuit()
        state = PathState.register_superposition(3, [0])
        noise = GateNoiseModel(PauliChannel(p_x=0.05))
        reference = get_engine("feynman-tape").run_noisy_shots_recorded(
            circuit, state, noise, 32, rng=np.random.default_rng(3)
        )[2]
        outcomes = get_engine(engine_name).run_noisy_shots_recorded(
            circuit, state, noise, 32, rng=np.random.default_rng(3)
        )[2]
        assert np.array_equal(reference, outcomes)

    @pytest.mark.parametrize("engine_name", FEYNMAN_ENGINES)
    def test_measurement_free_circuit_records_nothing(self, engine_name):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        state = PathState.register_superposition(2, [0])
        _, _, outcomes = get_engine(engine_name).run_noisy_shots_recorded(
            circuit, state, NoiselessModel(), 4, rng=np.random.default_rng(0)
        )
        assert outcomes is None

    def test_gap_slots_read_as_zero(self):
        """Unwritten register slots below an explicit cbit stay 0."""
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.measure(0, cbit=2)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        _, _, outcomes = get_engine("feynman-tape").run_noisy_shots_recorded(
            circuit, state, NoiselessModel(), 8, rng=np.random.default_rng(1)
        )
        assert outcomes.shape == (3, 8)
        assert not outcomes[:2].any()  # gap slots never written
        assert np.all(outcomes[2] == 1)  # |1> measures 1 deterministically

    def test_statevector_engine_refuses_recording(self):
        circuit = measured_circuit()
        state = PathState.register_superposition(3, [0])
        with pytest.raises(NotImplementedError, match="statevector"):
            get_engine("statevector").run_noisy_shots_recorded(
                circuit, state, NoiselessModel(), 4
            )

    def test_postselect_without_outcomes_rejected(self):
        """Naming classical bits on a record-free circuit is a caller bug."""
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        state = PathState.register_superposition(2, [0])
        with pytest.raises(ValueError, match="no measurement outcomes"):
            FeynmanPathSimulator(engine="feynman-batch").query_fidelities(
                circuit,
                state,
                NoiselessModel(),
                shots=4,
                rng=np.random.default_rng(0),
                postselect=((0, 1),),
            )


class TestKeptMask:
    def test_rejected_shots_become_nan(self):
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        bits = np.zeros((4, 1), dtype=bool)
        amps = np.ones(4, dtype=complex)
        kept = np.array([True, False, True, False])
        fidelities = shot_fidelities(
            state, bits, amps, shots=4, n_paths=1, kept=kept
        )
        assert fidelities[0] == 1.0 and fidelities[2] == 1.0
        assert np.isnan(fidelities[1]) and np.isnan(fidelities[3])

    def test_zero_overlap_block_still_masks(self):
        """Regression pin: an all-miss block must come back float.

        ``np.bincount`` ignores the weights dtype when no row matched the
        ideal kept-register states (returning int64 zeros), which used to
        crash the NaN sentinel assignment on e.g. 1-shot shards.
        """
        ideal = PathState.from_basis_assignments([({0: 0, 1: 0}, 1.0)], 2)
        bits = np.array([[True, True]])  # misses the ideal entirely
        amps = np.ones(1, dtype=complex)
        fidelities = shot_fidelities(
            ideal,
            bits,
            amps,
            shots=1,
            n_paths=1,
            keep_qubits=[0],
            kept=np.array([False]),
        )
        assert fidelities.dtype == np.float64
        assert np.isnan(fidelities[0])

    def test_none_mask_keeps_everything(self):
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        bits = np.zeros((4, 1), dtype=bool)
        amps = np.ones(4, dtype=complex)
        fidelities = shot_fidelities(
            state, bits, amps, shots=4, n_paths=1, kept=None
        )
        assert np.all(fidelities == 1.0)


class TestQueryResultEdges:
    def test_all_rejected(self):
        """kept_fraction 0.0, fidelity NaN, std_error still well-defined."""
        result = QueryResult(fidelities=np.full(8, np.nan), shots=8)
        assert result.kept_shots == 0
        assert result.kept_fraction == 0.0
        assert np.isnan(result.mean_fidelity)
        assert result.std_error == 0.0

    def test_single_kept_shot(self):
        """One survivor has no sample variance: std_error is 0.0, not NaN."""
        fidelities = np.array([np.nan, 0.75, np.nan, np.nan])
        result = QueryResult(fidelities=fidelities, shots=4)
        assert result.kept_shots == 1
        assert result.kept_fraction == 0.25
        assert result.mean_fidelity == 0.75
        assert result.std_error == 0.0

    def test_no_nan_reproduces_all_shot_aggregates(self):
        fidelities = np.array([1.0, 0.5, 0.75, 0.25])
        result = QueryResult(fidelities=fidelities, shots=4)
        assert result.kept_fraction == 1.0
        assert result.mean_fidelity == float(np.mean(fidelities))
        assert result.std_error == float(
            np.std(fidelities, ddof=1) / np.sqrt(4)
        )

    def test_all_rejected_end_to_end(self):
        """Postselecting on an impossible outcome rejects every shot."""
        circuit = QuantumCircuit(1)
        circuit.measure(0)  # |0> always measures 0; demand 1
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        result = FeynmanPathSimulator(engine="feynman-tape").query_fidelities(
            circuit,
            state,
            NoiselessModel(),
            shots=8,
            rng=np.random.default_rng(2),
            postselect=((0, 1),),
        )
        assert result.kept_fraction == 0.0
        assert np.isnan(result.mean_fidelity)
        assert result.std_error == 0.0


class TestShardInvariance:
    @staticmethod
    def _kept_fraction(workers, shard_size):
        from repro.scenarios.run import run_scenario
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="dual-rail-shard-probe",
            description="shard-invariance probe",
            qram_width=1,
            mapping="dual-rail",
            error_reduction_factors=(1.0,),
        )
        [record] = run_scenario(
            spec, shots=48, seed=13, workers=workers, shard_size=shard_size
        )
        return record.kept_fraction, record.fidelity

    def test_reference_run_discards_some_shots(self):
        kept_fraction, fidelity = self._kept_fraction(1, None)
        assert 0.0 < kept_fraction < 1.0
        assert not np.isnan(fidelity)

    @settings(max_examples=8, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=4),
        shard_size=st.integers(min_value=1, max_value=48),
    )
    def test_kept_fraction_is_sharding_invariant(self, workers, shard_size):
        reference = self._kept_fraction(1, None)
        assert self._kept_fraction(workers, shard_size) == reference
