"""Mid-circuit measurement and Pauli-frame semantics across all engines.

Pins the tentpole contracts of the executed-teleportation PR:

* one-bit teleportation is exact on every engine for every outcome draw;
* Z measurements collapse with the true Born statistics and renormalise;
* measured qubits can be frame-reset and reused;
* Pauli-frame corrections commute through ``CCX``/``MCX`` with the textbook
  compensation gates;
* every noisy shot of a measured teleportation workload equals its dense
  replay, and any sharding of the shot range reproduces the unsharded
  trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.sim.engine import get_engine
from repro.sim.fidelity import shot_fidelities, state_fidelity
from repro.sim.noise import GateNoiseModel, NoiselessModel, PauliChannel
from repro.sim.paths import PathState
from repro.sim.seeding import ShotSeeds, as_shot_seeds
from tests.conftest import assert_shots_match_oracle

#: ``feynman-interp`` is a legacy alias of the tape engine; it is run too, so saved
#: ``--engine`` flags are checked through this entry point.
ENGINES = ("feynman-tape", "feynman-interp", "statevector")
FEYNMAN_ENGINES = ("feynman-tape", "feynman-interp")


def one_bit_teleport(source: int, target: int, circuit: QuantumCircuit) -> None:
    """Append the CX + X-measure + frame gadget moving ``source -> target``."""
    circuit.cx(source, target)
    cbit = circuit.measure(source, basis="X")
    circuit.cpauli("Z", target, [cbit])
    circuit.cpauli("X", source, [cbit])


class TestOneBitTeleportation:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_for_every_outcome(self, engine_name, seed):
        """|psi> moves from qubit 0 to qubit 1 exactly, qubit 0 resets to |0>."""
        circuit = QuantumCircuit(num_qubits=2)
        one_bit_teleport(0, 1, circuit)
        state = PathState.register_superposition(2, [0], {0: 0.6, 1: 0.8})
        out = get_engine(engine_name).run(
            circuit, state, rng=np.random.default_rng(seed)
        )
        assert out.as_dict() == pytest.approx(
            {(0, 0): 0.6 + 0j, (0, 1): 0.8 + 0j}
        )

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_entangled_payload_teleports(self, engine_name):
        """Teleporting one half of an entangled register preserves the state."""
        circuit = QuantumCircuit(num_qubits=3)
        one_bit_teleport(1, 2, circuit)
        state = PathState.from_basis_assignments(
            [({0: 0, 1: 0}, 0.6), ({0: 1, 1: 1}, 0.8j)], num_qubits=3
        )
        out = get_engine(engine_name).run(circuit, state, rng=np.random.default_rng(1))
        assert out.as_dict() == pytest.approx(
            {(0, 0, 0): 0.6 + 0j, (1, 0, 1): 0.8j}
        )

    def test_hop_chain_composes(self):
        """Hopping across several fresh qubits composes to one teleport."""
        circuit = QuantumCircuit(num_qubits=4)
        one_bit_teleport(0, 1, circuit)
        one_bit_teleport(1, 2, circuit)
        one_bit_teleport(2, 3, circuit)
        state = PathState.register_superposition(4, [0], {0: 0.6, 1: 0.8})
        for seed in range(4):
            out = get_engine("feynman-tape").run(
                circuit, state, rng=np.random.default_rng(seed)
            )
            assert out.as_dict() == pytest.approx(
                {(0, 0, 0, 0): 0.6 + 0j, (0, 0, 0, 1): 0.8 + 0j}
            )


class TestZMeasurement:
    @pytest.mark.parametrize("engine_name", FEYNMAN_ENGINES)
    def test_collapse_follows_born_statistics(self, engine_name):
        """Z outcomes of a 0.36/0.64 superposition match the true marginal."""
        circuit = QuantumCircuit(num_qubits=1)
        circuit.measure(0, basis="Z")
        state = PathState.register_superposition(1, [0], {0: 0.6, 1: 0.8})
        shots = 600
        bits, amps = get_engine(engine_name).run_noisy_shots(
            circuit, state, NoiselessModel(), shots, rng=ShotSeeds(seed=11)
        )
        # Two paths per shot; the surviving one carries amplitude 1.
        per_shot = bits[:, 0].reshape(shots, state.num_paths)
        outcome = per_shot.any(axis=1)
        assert np.mean(outcome) == pytest.approx(0.64, abs=0.06)
        # Collapsed shots are renormalised: every shot has unit norm.
        norms = (np.abs(amps) ** 2).reshape(shots, state.num_paths).sum(axis=1)
        assert norms == pytest.approx(np.ones(shots))

    def test_projection_zeroes_mismatched_paths(self):
        """After a Z measurement only matching-bit paths carry amplitude."""
        circuit = QuantumCircuit(num_qubits=2)
        circuit.cx(0, 1)
        circuit.measure(1, basis="Z")
        state = PathState.register_superposition(2, [0])
        out = get_engine("feynman-tape").run(circuit, state, rng=np.random.default_rng(3))
        collapsed = out.as_dict()
        assert len(collapsed) == 1
        (key, amp), = collapsed.items()
        assert key[0] == key[1]  # the surviving branch is consistent
        assert abs(amp) == pytest.approx(1.0)

    def test_statevector_agrees_on_z_collapse(self):
        """Dense and path engines sample identical Z outcomes per stream."""
        circuit = QuantumCircuit(num_qubits=2)
        circuit.cx(0, 1)
        circuit.measure(1, basis="Z")
        state = PathState.register_superposition(2, [0])
        for seed in range(5):
            rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
            path_out = get_engine("feynman-tape").run(circuit, state, rng=rng_a)
            dense_out = get_engine("statevector").run(circuit, state, rng=rng_b)
            assert state_fidelity(dense_out, path_out) == pytest.approx(1.0)


class TestMeasureThenReuse:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_frame_reset_qubit_is_fresh(self, engine_name):
        """A measured + frame-reset qubit behaves as |0> in later gates."""
        circuit = QuantumCircuit(num_qubits=2)
        one_bit_teleport(0, 1, circuit)  # qubit 0 now |0>
        circuit.cx(1, 0)  # reuse qubit 0 as a CX target
        state = PathState.register_superposition(2, [0], {0: 0.6, 1: 0.8})
        out = get_engine(engine_name).run(circuit, state, rng=np.random.default_rng(2))
        assert out.as_dict() == pytest.approx(
            {(0, 0): 0.6 + 0j, (1, 1): 0.8 + 0j}
        )

    def test_reuse_without_reset_keeps_outcome(self):
        """Without the X frame the measured qubit keeps its sampled value."""
        circuit = QuantumCircuit(num_qubits=1)
        circuit.measure(0, basis="X")
        state = PathState.from_basis_assignments([({0: 0}, 1.0)], num_qubits=1)
        outcomes = set()
        for seed in range(8):
            out = get_engine("feynman-tape").run(
                circuit, state, rng=np.random.default_rng(seed)
            )
            ((key, amp),) = list(out.as_dict().items())
            assert abs(amp) == pytest.approx(1.0)
            outcomes.add(key)
        assert outcomes == {(0,), (1,)}  # both outcomes occur across streams

    def test_second_measurement_of_collapsed_qubit_is_deterministic(self):
        """Measuring a collapsed qubit again reproduces the recorded outcome."""
        circuit = QuantumCircuit(num_qubits=1)
        first = circuit.measure(0, basis="X")
        second = circuit.measure(0, basis="Z")
        assert (first, second) == (0, 1)
        state = PathState.register_superposition(1, [0])
        shots = 32
        bits, amps = get_engine("feynman-tape").run_noisy_shots(
            circuit, state, NoiselessModel(), shots, rng=ShotSeeds(seed=5)
        )
        # After the X measurement the qubit is |m>; the Z measurement must
        # reproduce m with probability 1, leaving unit-norm shots.
        norms = (np.abs(amps) ** 2).reshape(shots, state.num_paths).sum(axis=1)
        assert norms == pytest.approx(np.ones(shots))


class TestPauliFrameCommutation:
    """Frame corrections commute through CCX/MCX with textbook compensation."""

    def _random_outcome_frame(self, circuit: QuantumCircuit, qubit: int) -> int:
        """Entangle-free random classical bit: X-measure a fresh |0> ancilla."""
        return circuit.measure(qubit, basis="X")

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_x_frame_through_ccx_control(self, engine_name, seed):
        """X^m on a CCX control before == after, plus the CX(c2, t) fix-up.

        ``X_c1 ; CCX(c1, c2, t)`` equals ``CCX(c1, c2, t) ; X_c1 ; CX(c2, t)``
        -- the rule hardware Pauli-frame tracking applies when deferring a
        correction through a Toffoli.  The compensation operator is a
        *conditional CX* (not itself a Pauli), so the identity is verified
        directly for both frame values.
        """
        for frame in (0, 1):
            early = QuantumCircuit(num_qubits=3)
            late = QuantumCircuit(num_qubits=3)
            if frame:
                early.x(0)
            early.ccx(0, 1, 2)
            late.ccx(0, 1, 2)
            if frame:
                late.x(0)
                late.cx(1, 2)
            state = PathState.register_superposition(3, [0, 1])
            out_early = get_engine(engine_name).run(
                early, state, rng=np.random.default_rng(seed)
            )
            out_late = get_engine(engine_name).run(
                late, state, rng=np.random.default_rng(seed)
            )
            assert state_fidelity(out_early, out_late) == pytest.approx(1.0)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_x_frame_through_mcx_target(self, engine_name):
        """X on the MCX target commutes freely (target flips commute)."""
        for frame in (0, 1):
            early = QuantumCircuit(num_qubits=4)
            late = QuantumCircuit(num_qubits=4)
            if frame:
                early.x(3)
            early.mcx([0, 1, 2], 3)
            late.mcx([0, 1, 2], 3)
            if frame:
                late.x(3)
            state = PathState.register_superposition(4, [0, 1, 2])
            out_early = get_engine(engine_name).run(early, state)
            out_late = get_engine(engine_name).run(late, state)
            assert state_fidelity(out_early, out_late) == pytest.approx(1.0)

    @pytest.mark.parametrize("engine_name", FEYNMAN_ENGINES)
    def test_z_frame_through_mcx_control_with_measured_bit(self, engine_name):
        """Z^m on an MCX control commutes with the MCX for a real frame bit."""
        def build(early: bool) -> QuantumCircuit:
            circuit = QuantumCircuit(num_qubits=5)
            m = circuit.measure(4, basis="X")  # uniform classical bit
            if early:
                circuit.cpauli("Z", 0, [m])
                circuit.mcx([0, 1, 2], 3)
            else:
                circuit.mcx([0, 1, 2], 3)
                circuit.cpauli("Z", 0, [m])
            circuit.cpauli("X", 4, [m])  # reset the ancilla either way
            return circuit

        state = PathState.register_superposition(5, [0, 1, 2])
        for seed in range(4):
            out_early = get_engine(engine_name).run(
                build(True), state, rng=np.random.default_rng(seed)
            )
            out_late = get_engine(engine_name).run(
                build(False), state, rng=np.random.default_rng(seed)
            )
            # Z on a control is diagonal: it commutes with MCX exactly.
            assert state_fidelity(out_early, out_late) == pytest.approx(1.0)


class TestCPauliSemantics:
    @pytest.mark.parametrize("pauli", ["X", "Y", "Z"])
    def test_inactive_frame_is_identity(self, pauli):
        circuit = QuantumCircuit(num_qubits=1)
        circuit.cpauli(pauli, 0, [0])  # cbit 0 never written -> reads 0
        state = PathState.register_superposition(1, [0], {0: 0.6, 1: 0.8})
        out = get_engine("feynman-tape").run(circuit, state)
        assert state_fidelity(out, state) == pytest.approx(1.0)

    def test_xor_condition_over_two_bits(self):
        """A correction conditioned on two bits fires on their XOR."""
        circuit = QuantumCircuit(num_qubits=3)
        a = circuit.measure(0, basis="X")
        b = circuit.measure(1, basis="X")
        circuit.cpauli("X", 2, [a, b])
        state = PathState.from_basis_assignments([({}, 1.0)], num_qubits=3)
        for seed in range(8):
            out = get_engine("feynman-tape").run(
                circuit, state, rng=np.random.default_rng(seed)
            )
            (key,), = (list(out.as_dict()),)
            assert key[2] == key[0] ^ key[1]

    def test_y_frame_matches_y_gate(self):
        """An always-active Y frame equals the Y gate up to global phase."""
        circuit = QuantumCircuit(num_qubits=2)
        m = circuit.measure(1, basis="X")
        circuit.cpauli("X", 1, [m])  # reset ancilla
        circuit.cpauli("Y", 0, [m])
        reference = QuantumCircuit(num_qubits=2)
        reference.y(0)
        state = PathState.register_superposition(2, [0], {0: 0.6, 1: 0.8})
        seen_active = False
        for seed in range(8):
            out = get_engine("feynman-tape").run(
                circuit, state, rng=np.random.default_rng(seed)
            )
            ref = get_engine("feynman-tape").run(reference, state)
            fidelity = state_fidelity(out, ref)
            if fidelity == pytest.approx(1.0):
                seen_active = True
            else:
                assert state_fidelity(out, state) == pytest.approx(1.0)
        assert seen_active


class TestEngineBitIdentityWithMeasurements:
    def _teleport_workload(self) -> tuple[QuantumCircuit, PathState]:
        circuit = QuantumCircuit(num_qubits=4)
        circuit.ccx(0, 1, 2)
        one_bit_teleport(2, 3, circuit)
        circuit.cx(3, 1)
        circuit.measure(1, basis="Z")
        circuit.swap(1, 2)
        return circuit, PathState.register_superposition(4, [0, 1])

    @pytest.mark.parametrize("rng_mode", ["seeded", "generator"])
    def test_noisy_shots_match_dense_oracle(self, rng_mode):
        # A Generator resolves to the ShotSeeds window it seeds, so both
        # modes reduce to per-shot streams the oracle can replay.
        circuit, state = self._teleport_workload()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.04))
        if rng_mode == "seeded":
            seeds = ShotSeeds(seed=21, point_index=1)
        else:
            seeds = as_shot_seeds(np.random.default_rng(17))
        assert_shots_match_oracle(circuit, state, noise, seeds, 50)

    @settings(max_examples=20, deadline=None)
    @given(
        split=st.integers(1, 39),
        seed=st.integers(0, 2**20),
    )
    def test_sharding_invariance(self, split, seed):
        """Any split of the shot range reproduces the unsharded trajectories."""
        circuit, state = self._teleport_workload()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        shots = 40
        seeds = ShotSeeds(seed=seed)
        engine = get_engine("feynman-tape")
        bits, amps = engine.run_noisy_shots(circuit, state, noise, shots, rng=seeds)
        bits_a, amps_a = engine.run_noisy_shots(circuit, state, noise, split, rng=seeds)
        bits_b, amps_b = engine.run_noisy_shots(
            circuit, state, noise, shots - split, rng=seeds.shifted(split)
        )
        assert np.array_equal(np.vstack([bits_a, bits_b]), bits)
        assert np.array_equal(np.concatenate([amps_a, amps_b]), amps)

    def test_noiseless_measured_shots_are_seed_deterministic(self):
        """Noiseless shot blocks with measurements still shard-split exactly."""
        circuit, state = self._teleport_workload()
        seeds = ShotSeeds(seed=3)
        engine = get_engine("feynman-tape")
        bits, amps = engine.run_noisy_shots(
            circuit, state, NoiselessModel(), 24, rng=seeds
        )
        bits_a, _ = engine.run_noisy_shots(
            circuit, state, NoiselessModel(), 10, rng=seeds
        )
        bits_b, _ = engine.run_noisy_shots(
            circuit, state, NoiselessModel(), 14, rng=seeds.shifted(10)
        )
        assert np.array_equal(np.vstack([bits_a, bits_b]), bits)

    def test_noiseless_fidelity_is_exactly_one(self):
        """Zero noise + measured links: every shot fidelity is exactly 1."""
        logical = QuantumCircuit(num_qubits=4)
        logical.ccx(0, 1, 2)
        executed = QuantumCircuit(num_qubits=4)
        executed.ccx(0, 1, 2)
        one_bit_teleport(2, 3, executed)
        one_bit_teleport(3, 2, executed)
        state = PathState.register_superposition(4, [0, 1])
        engine = get_engine("feynman-tape")
        ideal = engine.run(logical, state)
        bits, amps = engine.run_noisy_shots(
            executed, state, NoiselessModel(), 16, rng=ShotSeeds(seed=9)
        )
        fidelities = shot_fidelities(
            ideal, bits, amps, shots=16, n_paths=state.num_paths
        )
        assert fidelities == pytest.approx(np.ones(16))
