"""Engine registry and tape-versus-oracle equivalence tests.

The compiled tape engine is the one Feynman-path engine; the dense
statevector engine is its oracle.  These tests pin down:

* the registry, including the legacy names that alias the tape engine;
* noiseless outputs agree with the dense engine for every registered QRAM
  architecture;
* every noisy shot equals the dense run of the circuit with that shot's
  sampled Paulis inserted (``sample_noisy_circuit``);
* fused execution is equivalent to sequential execution on circuits designed
  to stress the fusion rules (overlapping runs, diagonal runs, identity
  gates carrying noise sites, variable-arity MCX, off-operand noise sites
  inside a fused run).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.fingerprint import run_fingerprint
from repro.circuit import QuantumCircuit
from repro.circuit import ir
from repro.qram import ClassicalMemory, make_architecture
from repro.scenarios.run import resolve_run, run_scenario
from repro.sim import (
    DepolarizingNoise,
    Engine,
    FeynmanPathSimulator,
    GateNoiseModel,
    NoiselessModel,
    NoiseModel,
    PathState,
    PauliChannel,
    ShotSeeds,
    UnsupportedGateError,
    available_engines,
    get_default_engine,
    get_engine,
    set_default_engine,
)
from tests.conftest import assert_shots_match_oracle, random_reversible_circuits

ARCHITECTURE_NAMES = ["virtual", "sqc_bb", "sqc_ss", "fanout", "sqc"]

NOISE_MODELS = [
    GateNoiseModel(PauliChannel.phase_flip(5e-3)),
    GateNoiseModel(PauliChannel.bit_flip(5e-3)),
    DepolarizingNoise(1e-2),
    GateNoiseModel(PauliChannel.depolarizing(1e-2), two_qubit_factor=2.0),
]


@pytest.fixture
def memory() -> ClassicalMemory:
    return ClassicalMemory.from_values([1, 0, 1, 1, 0, 0, 1, 0])


def _amplitudes_match(a: PathState, b: PathState, tol: float = 1e-9) -> bool:
    left, right = a.as_dict(), b.as_dict()
    if set(left) != set(right):
        return False
    return all(abs(left[key] - right[key]) < tol for key in left)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert {
            "feynman-interp",
            "feynman-tape",
            "feynman-batch",
            "statevector",
        } <= set(available_engines())

    @pytest.mark.parametrize("alias", ["feynman-batch", "feynman-interp"])
    def test_legacy_names_alias_the_tape_engine(self, alias):
        assert get_engine(alias) is get_engine("feynman-tape")
        # The requested name, not the instance's, labels records and keys
        # the cache, so artefacts stamped with a legacy name stay valid.
        records = run_scenario("ideal-m3", shots=4, seed=7, workers=1, engine=alias)
        assert {record["engine"] for record in records} == {alias}
        spec, _, _, engine_name, fingerprint = resolve_run(
            "ideal-m3", shots=4, seed=7, engine=alias
        )
        assert engine_name == alias
        assert fingerprint == run_fingerprint(spec, seed=7, shots=4, engine=alias)

    def test_get_engine_by_name_and_instance(self):
        engine = get_engine("feynman-tape")
        assert isinstance(engine, Engine)
        assert get_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine("not-an-engine")

    def test_default_engine_roundtrip(self):
        previous = get_default_engine()
        try:
            set_default_engine("statevector")
            assert get_engine().name == "statevector"
        finally:
            set_default_engine(previous)
        assert get_default_engine() == previous

    def test_default_engine_is_compiled(self):
        assert get_default_engine() == "feynman-tape"

    def test_set_unknown_default_rejected(self):
        with pytest.raises(KeyError):
            set_default_engine("bogus")


@pytest.mark.parametrize("architecture_name", ARCHITECTURE_NAMES)
class TestArchitectureEquivalence:
    def test_noiseless_outputs_agree(self, architecture_name, memory):
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        circuit = architecture.build_circuit()
        state = architecture.input_state()
        tape = get_engine("feynman-tape").run(circuit, state)
        dense = get_engine("statevector").run(circuit, state)
        # The dense engine merges paths per basis state: compare as dicts.
        assert _amplitudes_match(tape, dense)

    @pytest.mark.parametrize("noise", NOISE_MODELS)
    def test_noisy_shots_match_dense_oracle(self, architecture_name, memory, noise):
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        compiled = architecture.compiled_query()
        assert_shots_match_oracle(
            compiled.circuit, compiled.input_state, noise, ShotSeeds(seed=11), 8
        )

    def test_statevector_engine_noiseless_query(self, architecture_name, memory):
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        result = architecture.run_query(None, shots=4, engine="statevector")
        assert result.fidelities == pytest.approx(np.ones(4))


class TestFusionStress:
    """Crafted circuits exercising the tape compiler's fusion rules."""

    def _compare(self, circuit: QuantumCircuit, state: PathState) -> None:
        tape = get_engine("feynman-tape").run(circuit, state)
        dense = get_engine("statevector").run(circuit, state)
        assert _amplitudes_match(tape, dense)

    def test_overlapping_cx_chain(self):
        # Sequential CX chain sharing qubits: must not fuse into one batch.
        circuit = QuantumCircuit(4)
        for q in range(3):
            circuit.cx(q, q + 1)
        state = PathState.register_superposition(4, register=[0])
        self._compare(circuit, state)

    def test_parallel_then_overlapping_swaps(self):
        circuit = QuantumCircuit(6)
        circuit.swap(0, 1)
        circuit.swap(2, 3)
        circuit.swap(4, 5)  # disjoint run
        circuit.swap(1, 2)  # overlaps the run
        circuit.swap(0, 5)
        state = PathState.register_superposition(6, register=[0, 2, 4])
        self._compare(circuit, state)

    def test_diagonal_runs_accumulate_phases(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.x(q)
        for q in range(4):
            circuit.s(q)
        for q in range(4):
            circuit.t(q)
        for q in range(4):
            circuit.z(q)
        circuit.sdg(1)
        circuit.tdg(2)
        state = PathState.register_superposition(4, register=[0, 1])
        self._compare(circuit, state)

    def test_y_run_phase_bookkeeping(self):
        circuit = QuantumCircuit(3)
        circuit.y(0)
        circuit.y(1)
        circuit.y(2)
        circuit.y(0)  # second run after overlap
        state = PathState.register_superposition(3, register=[0, 2])
        self._compare(circuit, state)

    def test_mcx_arities_not_mixed(self):
        circuit = QuantumCircuit(8)
        circuit.mcx([0, 1, 2], 3)
        circuit.mcx([4, 5], 6)  # CCX, different opcode
        circuit.mcx([0, 1, 4], 7)  # same arity as first but overlapping
        state = PathState.register_superposition(8, register=[0, 1, 2, 4, 5])
        self._compare(circuit, state)

    def test_cz_and_mixed_permutations(self):
        circuit = QuantumCircuit(5)
        circuit.cz(0, 1)
        circuit.cz(2, 3)
        circuit.ccx(0, 1, 4)
        circuit.cswap(0, 2, 3)
        circuit.cz(0, 4)
        state = PathState.register_superposition(5, register=[0, 1, 2])
        self._compare(circuit, state)

    def test_identity_gates_keep_their_noise_sites(self):
        # I gates execute nothing but still trigger gate-based noise, and the
        # error must land *between* the surrounding gates, not after them.
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.i(0)
        circuit.cx(0, 1)
        state = PathState.from_basis_assignments([({}, 1.0)], 2)
        noise = GateNoiseModel(PauliChannel.bit_flip(0.5))
        for seed in range(5):
            assert_shots_match_oracle(circuit, state, noise, ShotSeeds(seed=seed), 16)

    def test_offsite_noise_inside_fused_run_fires_before_the_later_gate(self):
        # A crosstalk-style model placing an error on a qubit the fused run
        # touches later: the site is hoisted before the group, so the error
        # still lands before the gate that reads it.
        class CrosstalkNoise(NoiseModel):
            def gate_error_channels(self, instr):
                if instr.gate == "CX" and instr.qubits == (0, 1):
                    return [(2, PauliChannel(p_x=1.0))]
                return []

        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)  # fuses with the first CX and touches qubit 2
        state = PathState.from_basis_assignments([({}, 1.0)], 4)
        sites = ir.compile_circuit(circuit).noise_sites(CrosstalkNoise())
        assert sites.hoisted
        assert sites.group_index.tolist() == [-1]
        bits, _ = get_engine("feynman-tape").run_noisy_shots(
            circuit, state, CrosstalkNoise(), 2, rng=np.random.default_rng(0)
        )
        assert np.array_equal(bits.astype(int), [[0, 0, 1, 1], [0, 0, 1, 1]])

    def test_offsite_noise_outside_fused_run_still_agrees(self):
        # Off-operand sites are fine when no later gate in the group touches
        # the qubit: the deferred application commutes.
        class SpectatorNoise(NoiseModel):
            def gate_error_channels(self, instr):
                if instr.gate == "CX" and instr.qubits == (0, 1):
                    return [(3, PauliChannel(p_x=1.0))]
                return []

        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(1, 2)  # overlaps: new group, so qubit 3 is never mid-run
        state = PathState.from_basis_assignments([({}, 1.0)], 4)
        assert not ir.compile_circuit(circuit).noise_sites(SpectatorNoise()).hoisted
        bits, _ = get_engine("feynman-tape").run_noisy_shots(
            circuit, state, SpectatorNoise(), 2, rng=np.random.default_rng(0)
        )
        assert np.array_equal(bits.astype(int), [[0, 0, 0, 1], [0, 0, 0, 1]])

    def test_barriers_are_dropped(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.cx(0, 1)
        state = PathState.from_basis_assignments([({}, 1.0)], 3)
        self._compare(circuit, state)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(circuit=random_reversible_circuits())
    def test_random_circuits_noiseless(self, circuit):
        state = PathState.register_superposition(
            circuit.num_qubits, register=list(range(min(3, circuit.num_qubits)))
        )
        tape = get_engine("feynman-tape").run(circuit, state)
        dense = get_engine("statevector").run(circuit, state)
        assert _amplitudes_match(tape, dense)

    @settings(max_examples=25, deadline=None)
    @given(circuit=random_reversible_circuits(max_qubits=5, max_gates=15))
    def test_random_circuits_noisy_trajectories(self, circuit):
        state = PathState.register_superposition(
            circuit.num_qubits, register=[0, 1]
        )
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        assert_shots_match_oracle(circuit, state, noise, ShotSeeds(seed=99), 8)


class TestEngineErrors:
    def test_feynman_engines_execute_branching_gates(self):
        # H branches the path set: the output is the uniform |+> superposition.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        out = get_engine("feynman-tape").run(circuit, state)
        assert out.num_paths == 2
        assert np.allclose(np.abs(out.amplitudes), 1 / np.sqrt(2))

    def test_feynman_engines_reject_over_budget_branching(self):
        circuit = QuantumCircuit(ir.get_max_branches() + 1)
        for qubit in range(circuit.num_qubits):
            circuit.h(qubit)
        state = PathState.from_basis_assignments([({}, 1.0)], circuit.num_qubits)
        with pytest.raises(ir.BranchBudgetError, match="branch budget"):
            get_engine("feynman-tape").run(circuit, state)

    @pytest.mark.parametrize(
        "name", ["feynman-interp", "feynman-tape", "statevector"]
    )
    def test_non_positive_shot_counts_rejected(self, name):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        for shots in (0, -2):
            with pytest.raises(ValueError, match="shots"):
                get_engine(name).run_noisy_shots(
                    circuit, state, NoiselessModel(), shots
                )

    def test_statevector_engine_rejects_branching_shot_blocks(self):
        # With H the dense output has more paths than the input, which the
        # per-shot block contract cannot represent; a silent wrong answer
        # here once produced fidelities of 0.25 instead of 1.0.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        with pytest.raises(NotImplementedError, match="branching"):
            get_engine("statevector").run_noisy_shots(
                circuit, state, NoiselessModel(), 3
            )

    def test_statevector_engine_pads_merged_paths(self):
        # Two input paths that a SWAP maps onto states which the dense
        # engine merges into fewer rows: fidelities must still be exact.
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        state = PathState.from_basis_assignments(
            [({0: 1}, np.sqrt(0.5)), ({1: 1}, np.sqrt(0.5))], 2
        )
        result = FeynmanPathSimulator(engine="statevector").query_fidelities(
            circuit, state, NoiselessModel(), shots=3
        )
        assert result.fidelities == pytest.approx(np.ones(3))

    def test_statevector_engine_rejects_noise(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        noise = GateNoiseModel(PauliChannel.bit_flip(0.1))
        with pytest.raises(NotImplementedError, match="Monte-Carlo"):
            get_engine("statevector").run_noisy_shots(circuit, state, noise, 4)

    def test_qubit_count_mismatch_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 3)
        for name in ("feynman-tape", "statevector"):
            with pytest.raises(ValueError, match="qubits"):
                get_engine(name).run(circuit, state)

    def test_engines_do_not_mutate_input_state(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.y(1)
        state = PathState.from_basis_assignments([({}, 1.0)], 2)
        before_bits = state.bits.copy()
        before_amps = state.amplitudes.copy()
        for name in ("feynman-tape", "statevector"):
            get_engine(name).run(circuit, state)
            assert np.array_equal(state.bits, before_bits)
            assert np.array_equal(state.amplitudes, before_amps)


class TestMeasuredNoiselessRuns:
    """``run`` samples mid-circuit outcomes from a fixed stream by default."""

    @staticmethod
    def _circuit() -> QuantumCircuit:
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        first = circuit.measure(0)
        second = circuit.measure(1, basis="X")
        circuit.cpauli("X", 2, [first, second])
        circuit.h(1)
        return circuit

    def test_default_stream_is_default_rng_zero(self):
        circuit = self._circuit()
        state = PathState.register_superposition(3, [0, 1])
        engine = get_engine("feynman-tape")
        implicit = engine.run(circuit, state)
        explicit = engine.run(circuit, state, rng=np.random.default_rng(0))
        assert np.array_equal(implicit.bits, explicit.bits)
        assert np.array_equal(implicit.amplitudes, explicit.amplitudes)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_equal_seeds_give_identical_runs(self, seed):
        # Outcomes come only from the rng: two runs from equal streams (or
        # both from the fixed default stream) match bit for bit.
        circuit = self._circuit()
        state = PathState.register_superposition(3, [0, 1])
        outputs = [
            get_engine("feynman-tape").run(
                circuit,
                state,
                rng=None if seed is None else np.random.default_rng(seed),
            )
            for _ in range(2)
        ]
        assert np.array_equal(outputs[0].bits, outputs[1].bits)
        assert np.array_equal(outputs[0].amplitudes, outputs[1].amplitudes)


class TestFacade:
    def test_simulator_accepts_engine_instances(self, memory):
        architecture = make_architecture("virtual", memory, qram_width=2)
        circuit = architecture.build_circuit()
        state = architecture.input_state()
        engine = get_engine("feynman-tape")
        out = FeynmanPathSimulator(engine=engine).run(circuit, state)
        assert _amplitudes_match(out, FeynmanPathSimulator().run(circuit, state))

    def test_default_engine_change_affects_existing_simulators(self):
        simulator = FeynmanPathSimulator()
        previous = get_default_engine()
        try:
            set_default_engine("statevector")
            assert simulator._resolve_engine().name == "statevector"
        finally:
            set_default_engine(previous)
