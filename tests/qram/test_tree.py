"""Unit tests for the RouterTree register layout and routing gadgets."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, QubitAllocator
from repro.qram.tree import RouterTree
from repro.sim import PathState, get_engine


def _make_tree(depth: int, **kwargs) -> tuple[RouterTree, QubitAllocator]:
    allocator = QubitAllocator()
    tree = RouterTree(depth=depth, allocator=allocator, **kwargs)
    return tree, allocator


class TestLayout:
    def test_register_sizes(self):
        tree, allocator = _make_tree(3)
        assert tree.capacity == 8
        assert tree.num_internal_nodes == 7
        assert len(tree.routers) == 3
        assert len(tree.routers[2]) == 4
        assert len(tree.leaves) == 8
        # recycled layout: routers + wires + leaves
        assert allocator.num_qubits == 2 * 7 + 8

    def test_separate_accumulators_add_qubits(self):
        recycled, alloc_recycled = _make_tree(3)
        raw, alloc_raw = _make_tree(3, separate_accumulators=True)
        assert alloc_raw.num_qubits == alloc_recycled.num_qubits + 7
        assert raw.accumulators is not raw.wires

    def test_recycled_accumulators_are_the_wires(self):
        tree, _ = _make_tree(2)
        assert tree.accumulators[0][0] == tree.wires[0][0]

    def test_dual_rail_leaves(self):
        tree, allocator = _make_tree(2, dual_rail_leaves=True)
        assert tree.leaf_ancillas is not None
        assert len(tree.leaf_ancillas) == 4

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            _make_tree(0)

    def test_child_wires_bottom_level_are_leaves(self):
        tree, _ = _make_tree(2)
        left, right = tree.child_wires(1, 1)
        assert left == tree.leaves[2]
        assert right == tree.leaves[3]

    def test_all_tree_qubits_cover_allocation(self):
        tree, allocator = _make_tree(3, separate_accumulators=True, dual_rail_leaves=True)
        assert sorted(tree.all_tree_qubits()) == list(range(allocator.num_qubits))


class TestRoutingBehaviour:
    """Functional checks of the routing gadgets via path simulation."""

    def _circuit_for(self, tree, allocator, extra: int = 0) -> QuantumCircuit:
        return QuantumCircuit(allocator.num_qubits + extra)

    def test_marker_lands_on_addressed_leaf(self):
        """After loading address bits, the |1> marker must reach leaf[address]."""
        simulator = get_engine()
        depth = 3
        for address in range(1 << depth):
            allocator = QubitAllocator()
            address_register = allocator.register("address", depth)
            tree = RouterTree(depth=depth, allocator=allocator)
            circuit = QuantumCircuit(allocator.num_qubits)
            tree.load_address(circuit, list(address_register))
            tree.route_marker_to_leaves(circuit)

            state = PathState.register_superposition(
                circuit.num_qubits, list(address_register), {address: 1.0}
            )
            output = simulator.run(circuit, state)
            leaf_bits = output.bits[0, list(tree.leaves)]
            assert leaf_bits.sum() == 1
            assert bool(leaf_bits[address])

    def test_marker_round_trip_restores_all_zero(self):
        simulator = get_engine()
        depth = 3
        allocator = QubitAllocator()
        address_register = allocator.register("address", depth)
        tree = RouterTree(depth=depth, allocator=allocator)
        circuit = QuantumCircuit(allocator.num_qubits)
        tree.load_address(circuit, list(address_register))
        tree.route_marker_to_leaves(circuit)
        tree.unroute_marker_from_leaves(circuit)
        tree.unload_address(circuit, list(address_register))

        state = PathState.register_superposition(circuit.num_qubits, list(address_register))
        output = simulator.run(circuit, state)
        # Everything except the address register must be back to |0>.
        non_address = [
            q for q in range(circuit.num_qubits) if q not in set(address_register)
        ]
        assert not output.bits[:, non_address].any()

    def test_route_leaves_to_root_brings_addressed_leaf_value_up(self):
        simulator = get_engine()
        depth = 2
        data = (1, 0, 1, 1)
        for address in range(4):
            allocator = QubitAllocator()
            address_register = allocator.register("address", depth)
            tree = RouterTree(depth=depth, allocator=allocator)
            circuit = QuantumCircuit(allocator.num_qubits)
            tree.load_address(circuit, list(address_register))
            for leaf, bit in enumerate(data):
                if bit:
                    circuit.x(tree.leaves[leaf])
            tree.route_leaves_to_root(circuit)

            state = PathState.register_superposition(
                circuit.num_qubits, list(address_register), {address: 1.0}
            )
            output = simulator.run(circuit, state)
            assert bool(output.bits[0, tree.root_wire]) == bool(data[address])

    def test_accumulate_to_root_xors_leaf_contributions(self):
        simulator = get_engine()
        depth = 3
        allocator = QubitAllocator()
        tree = RouterTree(depth=depth, allocator=allocator)
        circuit = QuantumCircuit(allocator.num_qubits)
        # Manually put a 1 on leaf 5 and include leaves 5 and 2 in the tree.
        circuit.x(tree.leaves[5])
        circuit.cx(tree.leaves[5], tree.leaf_parent_accumulator(5))
        circuit.cx(tree.leaves[2], tree.leaf_parent_accumulator(2))
        tree.accumulate_to_root(circuit)

        state = PathState.from_basis_assignments([({}, 1.0)], circuit.num_qubits)
        output = simulator.run(circuit, state)
        assert bool(output.bits[0, tree.root_accumulator])

    def test_accumulate_then_unaccumulate_is_identity(self):
        simulator = get_engine()
        depth = 3
        allocator = QubitAllocator()
        tree = RouterTree(depth=depth, allocator=allocator)
        circuit = QuantumCircuit(allocator.num_qubits)
        tree.accumulate_to_root(circuit)
        tree.unaccumulate_from_root(circuit)

        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(4, circuit.num_qubits)).astype(bool)
        state = PathState(bits=bits.copy(), amplitudes=np.ones(4, dtype=complex))
        output = simulator.run(circuit, state)
        assert np.array_equal(output.bits, bits)

    def test_load_address_validates_width(self):
        allocator = QubitAllocator()
        register = allocator.register("address", 2)
        tree = RouterTree(depth=3, allocator=allocator)
        circuit = QuantumCircuit(allocator.num_qubits)
        with pytest.raises(ValueError):
            tree.load_address(circuit, list(register))

    def test_non_pipelined_loading_inserts_barriers(self):
        allocator = QubitAllocator()
        register = allocator.register("address", 3)
        tree = RouterTree(depth=3, allocator=allocator)
        pipelined = QuantumCircuit(allocator.num_qubits)
        sequential = QuantumCircuit(allocator.num_qubits)
        tree.load_address(pipelined, list(register), pipelined=True)
        tree.load_address(sequential, list(register), pipelined=False)
        assert sequential.depth(respect_barriers=True) >= pipelined.depth()
        assert any(instr.is_barrier for instr in sequential.instructions)
        assert not any(instr.is_barrier for instr in pipelined.instructions)
