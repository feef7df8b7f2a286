"""Dual-rail encoding: gadget exactness, check bookkeeping, postselection.

The encoded circuits stay small enough for the dense ``statevector`` engine,
so exactness is pinned directly: per-gadget and on random workloads, the
encoded circuit must reproduce the logical output under
:meth:`DualRailExpansion.map_state` with every parity check passing.  The
zero-noise acceptance (kept_fraction == 1.0, postselected mean fidelity
exactly 1.0) runs on the tape engine under its own name and both legacy
aliases (``feynman-interp``, ``feynman-batch``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.mapping.dual_rail import (
    CHECK_TAG,
    DualRailExpansion,
    encode_dual_rail,
    rail_pair,
)
from repro.sim import (
    FeynmanPathSimulator,
    GateNoiseModel,
    NoiselessModel,
    PathState,
    PauliChannel,
)
from repro.sim.engine import get_engine
from repro.sim.fidelity import shot_fidelities

FEYNMAN_ENGINES = ("feynman-interp", "feynman-tape", "feynman-batch")

#: (gate name, arity) of every encodable gate, for strategy/parametrization.
GATE_ARITIES = (
    ("I", 1),
    ("X", 1),
    ("Y", 1),
    ("Z", 1),
    ("S", 1),
    ("SDG", 1),
    ("T", 1),
    ("TDG", 1),
    ("CX", 2),
    ("CZ", 2),
    ("SWAP", 2),
    ("CSWAP", 3),
    ("CCX", 3),
    ("MCX", 4),
)


def assert_encoding_exact(
    circuit: QuantumCircuit, state: PathState, *, flag_rounds: int = 0
) -> None:
    """Encoded circuit == logical circuit on dense amplitudes, checks pass.

    The expected physical state has the logical output on the rails and
    every ancilla back in ``|0>`` (checks measure-and-reset), so full-state
    fidelity 1.0 certifies both the computation and the check outcomes.
    """
    expansion = encode_dual_rail(circuit, flag_rounds=flag_rounds)
    logical_output = get_engine("feynman-tape").run(circuit, state)
    expected = expansion.map_state(logical_output)
    physical_input = expansion.map_state(state)
    for seed in range(3):
        dense = get_engine("statevector").run(
            expansion.circuit, physical_input, rng=np.random.default_rng(seed)
        )
        fidelities = shot_fidelities(
            expected,
            dense.bits,
            dense.amplitudes,
            shots=1,
            n_paths=dense.num_paths,
            keep_qubits=list(range(expansion.circuit.num_qubits)),
        )
        assert fidelities[0] == pytest.approx(1.0)


class TestGadgetsStatevectorExact:
    @pytest.mark.parametrize("gate,arity", GATE_ARITIES)
    def test_each_gadget_alone(self, gate, arity):
        circuit = QuantumCircuit(arity)
        circuit.add(gate, *range(arity))
        state = PathState.register_superposition(arity, list(range(arity)))
        assert_encoding_exact(circuit, state)

    def test_phase_gadgets_compose(self):
        """S/T phases land on the occupied rail with the exact Y phases."""
        circuit = QuantumCircuit(2)
        circuit.y(0)
        circuit.s(0)
        circuit.t(1)
        circuit.cz(0, 1)
        circuit.sdg(1)
        circuit.tdg(0)
        circuit.y(0)
        state = PathState.register_superposition(2, [0, 1])
        assert_encoding_exact(circuit, state)

    def test_router_workload(self):
        """A bucket-brigade-style CSWAP/CCX routing pattern."""
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cswap(0, 1, 2)
        circuit.ccx(1, 2, 3)
        circuit.mcx([0, 1, 2], 3)
        circuit.swap(2, 3)
        state = PathState.register_superposition(4, [0, 1])
        assert_encoding_exact(circuit, state)

    def test_barrier_remaps_to_rails(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.barrier(0, 1)
        circuit.cx(0, 1)
        expansion = encode_dual_rail(circuit)
        barriers = [i for i in expansion.circuit.instructions if i.is_barrier]
        assert len(barriers) == 1
        assert barriers[0].qubits == (0, 1, 2, 3)
        state = PathState.register_superposition(2, [0])
        assert_encoding_exact(circuit, state)


@st.composite
def logical_circuits(draw):
    """A random encodable circuit, its input register, and flag rounds."""
    num_qubits = draw(st.integers(min_value=2, max_value=4))
    eligible = [
        (gate, arity) for gate, arity in GATE_ARITIES if arity <= num_qubits
    ]
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        gate, arity = draw(st.sampled_from(eligible))
        qubits = draw(
            st.permutations(range(num_qubits)).map(lambda p: p[:arity])
        )
        if gate == "MCX":
            circuit.mcx(list(qubits[:-1]), qubits[-1])
        else:
            circuit.add(gate, *qubits)
    register = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_qubits - 1),
            max_size=2,
            unique=True,
        )
    )
    flag_rounds = draw(st.integers(min_value=0, max_value=2))
    return circuit, register, flag_rounds


@settings(max_examples=40, deadline=None)
@given(logical_circuits())
def test_random_circuits_statevector_exact(case):
    circuit, register, flag_rounds = case
    state = PathState.register_superposition(circuit.num_qubits, register)
    assert_encoding_exact(circuit, state, flag_rounds=flag_rounds)


class TestZeroNoiseAcceptance:
    @pytest.mark.parametrize("engine", FEYNMAN_ENGINES)
    def test_kept_fraction_one_and_exact_fidelity(self, engine):
        """Zero noise: every check passes and every kept shot is exact."""
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        circuit.cswap(0, 1, 2)
        expansion = encode_dual_rail(circuit, flag_rounds=1)
        state = PathState.register_superposition(3, [0, 1])
        ideal = get_engine("feynman-tape").run(circuit, state)
        result = FeynmanPathSimulator(engine=engine).query_fidelities(
            expansion.circuit,
            expansion.map_state(state),
            NoiselessModel(),
            shots=16,
            keep_qubits=[r for q in range(3) for r in rail_pair(q)],
            ideal_output=expansion.map_state(ideal),
            rng=np.random.default_rng(11),
            postselect=expansion.postselect,
        )
        assert result.kept_fraction == 1.0
        assert result.kept_shots == 16
        assert result.mean_fidelity == 1.0
        assert np.all(result.fidelities == 1.0)


class TestErasureDetection:
    def _run(self, noise, postselect):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        expansion = encode_dual_rail(circuit)
        state = PathState.register_superposition(2, [0])
        ideal = get_engine("feynman-tape").run(circuit, state)
        return FeynmanPathSimulator(engine="feynman-tape").query_fidelities(
            expansion.circuit,
            expansion.map_state(state),
            noise,
            shots=512,
            keep_qubits=[0, 1, 2, 3],
            ideal_output=expansion.map_state(ideal),
            rng=np.random.default_rng(5),
            postselect=expansion.postselect if postselect else None,
        )

    def test_bit_flips_are_rejected_not_kept(self):
        """X noise leaves the codespace: postselection rejects those shots."""
        noise = GateNoiseModel(PauliChannel.bit_flip(0.05))
        kept = self._run(noise, postselect=True)
        unfiltered = self._run(noise, postselect=False)
        assert kept.kept_fraction < 1.0
        assert unfiltered.kept_fraction == 1.0
        assert kept.mean_fidelity > unfiltered.mean_fidelity

    def test_pure_dephasing_is_undetectable(self):
        """Z noise stays inside the codespace: every shot passes the checks."""
        noise = GateNoiseModel(PauliChannel.phase_flip(0.05))
        kept = self._run(noise, postselect=True)
        assert kept.kept_fraction == 1.0
        assert kept.mean_fidelity < 1.0


class TestRefusals:
    @pytest.mark.parametrize("builder", ["h", "measure"])
    def test_unencodable_gates_refused(self, builder):
        circuit = QuantumCircuit(1)
        getattr(circuit, builder)(0)
        with pytest.raises(ValueError, match="no dual-rail gadget"):
            encode_dual_rail(circuit)

    def test_cpauli_refused(self):
        circuit = QuantumCircuit(1)
        circuit.cpauli("X", 0, [0])
        with pytest.raises(ValueError, match="no dual-rail gadget"):
            encode_dual_rail(circuit)

    def test_negative_flag_rounds_refused(self):
        with pytest.raises(ValueError, match="flag_rounds"):
            encode_dual_rail(QuantumCircuit(1), flag_rounds=-1)

    def test_map_state_size_mismatch_refused(self):
        expansion = encode_dual_rail(QuantumCircuit(2))
        with pytest.raises(ValueError, match="logical qubits"):
            expansion.map_state(PathState.register_superposition(3, [0]))


class TestBookkeeping:
    def test_layout_and_check_slots(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        expansion = encode_dual_rail(circuit)
        # Rails 0..5, parity ancillas 6..8, no flag ancilla.
        assert expansion.circuit.num_qubits == 9
        assert expansion.num_logical == 3
        assert expansion.checks == ((0, 1), (1, 1), (2, 1))
        assert expansion.flag_checks == ()
        assert expansion.postselect == expansion.checks
        assert expansion.circuit.num_clbits == 3

    def test_flag_rounds_add_shared_ancilla_and_probes(self):
        circuit = QuantumCircuit(2)
        for _ in range(6):
            circuit.cx(0, 1)
        expansion = encode_dual_rail(circuit, flag_rounds=2)
        assert expansion.circuit.num_qubits == 2 * 2 + 2 + 1
        assert len(expansion.flag_checks) == 2
        # Global parity of 2 logical qubits is 0 mod 2.
        assert all(expected == 0 for _, expected in expansion.flag_checks)
        assert expansion.postselect == expansion.checks + expansion.flag_checks

    def test_flag_count_exact_on_short_and_empty_bodies(self):
        """Coincident probe positions must not collapse (regression pin)."""
        empty = encode_dual_rail(QuantumCircuit(1), flag_rounds=3)
        assert len(empty.flag_checks) == 3
        short = QuantumCircuit(1)
        short.x(0)
        assert len(encode_dual_rail(short, flag_rounds=4).flag_checks) == 4

    def test_odd_logical_count_expects_odd_global_parity(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        expansion = encode_dual_rail(circuit, flag_rounds=1)
        assert expansion.flag_checks[0][1] == 1

    def test_check_instructions_are_tagged(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1, tags=("payload",))
        expansion = encode_dual_rail(circuit, flag_rounds=1)
        checks = [
            instr
            for instr in expansion.circuit.instructions
            if CHECK_TAG in instr.tags
        ]
        gadgets = [
            instr
            for instr in expansion.circuit.instructions
            if CHECK_TAG not in instr.tags
        ]
        # 1 flag probe (4 CX + measure + reset) + 2 parity checks (2 CX +
        # measure + reset each).
        assert len(checks) == 6 + 8
        assert all("payload" in instr.tags for instr in gadgets)

    def test_map_state_codewords(self):
        expansion = encode_dual_rail(QuantumCircuit(2))
        state = PathState.register_superposition(2, [0, 1])
        mapped = expansion.map_state(state)
        # |0>_L = |10>, |1>_L = |01> on each rail pair; ancillas |0>.
        assert np.array_equal(mapped.bits[:, 0], ~state.bits[:, 0])
        assert np.array_equal(mapped.bits[:, 1], state.bits[:, 0])
        assert np.array_equal(mapped.bits[:, 2], ~state.bits[:, 1])
        assert np.array_equal(mapped.bits[:, 3], state.bits[:, 1])
        assert not mapped.bits[:, 4:].any()
        assert np.array_equal(mapped.amplitudes, state.amplitudes)

    def test_rail_pair(self):
        assert rail_pair(0) == (0, 1)
        assert rail_pair(5) == (10, 11)

    def test_expansion_is_frozen(self):
        expansion = encode_dual_rail(QuantumCircuit(1))
        assert isinstance(expansion, DualRailExpansion)
        with pytest.raises(AttributeError):
            expansion.num_logical = 2
