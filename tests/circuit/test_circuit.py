"""Unit and property tests for QuantumCircuit."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuit import Instruction, QuantumCircuit
from repro.sim import PathState, get_engine
from tests.conftest import random_reversible_circuits


class TestBuilders:
    def test_gate_builders_append_instructions(self):
        circuit = QuantumCircuit(4)
        circuit.x(0)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        circuit.cswap(0, 2, 3)
        circuit.swap(1, 3)
        circuit.z(2)
        assert circuit.num_gates == 6
        assert [instr.gate for instr in circuit] == [
            "X",
            "CX",
            "CCX",
            "CSWAP",
            "SWAP",
            "Z",
        ]

    def test_mcx_builder_downgrades_small_cases(self):
        circuit = QuantumCircuit(5)
        circuit.mcx([], 0)
        circuit.mcx([1], 0)
        circuit.mcx([1, 2], 0)
        circuit.mcx([1, 2, 3], 0)
        assert [instr.gate for instr in circuit] == ["X", "CX", "CCX", "MCX"]

    def test_mcx_on_pattern_conjugates_zero_controls(self):
        circuit = QuantumCircuit(4)
        circuit.mcx_on_pattern([0, 1, 2], pattern=0b101, target=3)
        gates = [instr.gate for instr in circuit]
        # One X before and after the MCX for the single zero-bit control.
        assert gates == ["X", "MCX", "X"]
        assert circuit.instructions[0].qubits == (1,)

    def test_mcx_on_pattern_rejects_out_of_range_patterns(self):
        # Regression: an operator-precedence bug (`a or b and c`) used to let
        # any pattern through when there were zero controls.
        circuit = QuantumCircuit(4)
        with pytest.raises(ValueError, match="does not fit"):
            circuit.mcx_on_pattern([], pattern=1, target=3)
        with pytest.raises(ValueError, match="does not fit"):
            circuit.mcx_on_pattern([0, 1], pattern=4, target=3)
        with pytest.raises(ValueError, match="does not fit"):
            circuit.mcx_on_pattern([0, 1], pattern=-1, target=3)
        assert len(circuit) == 0

    def test_mcx_on_pattern_zero_controls_fires_unconditionally(self):
        circuit = QuantumCircuit(1)
        circuit.mcx_on_pattern([], pattern=0, target=0)
        assert [instr.gate for instr in circuit] == ["X"]

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.cx(0, 5)

    def test_tags_forwarded(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1, tags=("classical",))
        assert circuit.count_tagged("classical") == 1


class TestAccounting:
    def test_count_ops_excludes_barriers(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.x(1)
        counts = circuit.count_ops()
        assert counts == {"X": 2}
        assert circuit.num_gates == 2

    def test_count_ops_can_exclude_noise(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.append(Instruction(gate="Z", qubits=(1,), tags=frozenset({"noise"})))
        assert circuit.count_ops(include_noise=True)["Z"] == 1
        assert "Z" not in circuit.count_ops(include_noise=False)

    def test_used_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 3)
        assert circuit.used_qubits() == {1, 3}


class TestTransforms:
    def test_compose_concatenates(self):
        a = QuantumCircuit(2)
        a.x(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        combined = a.compose(b)
        assert [instr.gate for instr in combined] == ["X", "CX"]
        # originals untouched
        assert len(a) == 1 and len(b) == 1

    def test_compose_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_without_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.barrier()
        circuit.x(1)
        assert len(circuit.without_barriers()) == 2

    def test_remapped(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remapped({0: 4, 1: 2}, num_qubits=6)
        assert remapped.num_qubits == 6
        assert remapped.instructions[0].qubits == (4, 2)

    @settings(max_examples=40, deadline=None)
    @given(random_reversible_circuits(max_qubits=6, max_gates=15))
    def test_circuit_followed_by_inverse_is_identity(self, circuit):
        """Property: C . C^{-1} acts as the identity on computational basis states."""
        roundtrip = circuit.compose(circuit.inverse())
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(4, circuit.num_qubits)).astype(bool)
        state = PathState(bits=bits.copy(), amplitudes=np.ones(4, dtype=complex))
        output = get_engine().run(roundtrip, state)
        assert np.array_equal(output.bits, bits)
        assert np.allclose(output.amplitudes, np.ones(4))


class TestDepth:
    def test_depth_of_parallel_gates(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        assert circuit.depth() == 1

    def test_depth_of_sequential_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 1)
        assert circuit.depth() == 3

    def test_barrier_increases_depth(self):
        circuit = QuantumCircuit(4)
        circuit.x(0)
        circuit.barrier()
        circuit.x(1)
        assert circuit.depth(respect_barriers=True) == 2
        assert circuit.depth(respect_barriers=False) == 1
