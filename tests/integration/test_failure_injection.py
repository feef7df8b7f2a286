"""Failure-injection tests: the verification tooling must catch broken circuits.

A reproduction is only as trustworthy as its checks.  These tests deliberately
corrupt circuits, memories and embeddings in ways a buggy builder could, and
assert that the corresponding verifier (functional verification, reduced
fidelity, topological-minor check, router equivalence) actually fails -- i.e.
the green test suite is not green by vacuity.
"""

import numpy as np
import pytest

from repro.circuit import Instruction, QuantumCircuit
from repro.mapping import HTreeEmbedding, verify_topological_minor
from repro.qram import ClassicalMemory, VirtualQRAM
from repro.sim import get_engine
from repro.sim.fidelity import reduced_fidelity, state_fidelity


@pytest.fixture
def architecture(small_memory) -> VirtualQRAM:
    return VirtualQRAM(memory=small_memory, qram_width=2)


class TestCircuitCorruption:
    def _corrupted(self, circuit: QuantumCircuit, index: int, gate: Instruction):
        corrupted = circuit.copy()
        corrupted.instructions.insert(index, gate)
        return corrupted

    def test_stray_x_on_bus_breaks_verification(self, architecture):
        circuit = architecture.build_circuit()
        corrupted = self._corrupted(
            circuit, len(circuit) // 2, Instruction(gate="X", qubits=(architecture.bus_qubit(),))
        )
        output = get_engine().run(corrupted, architecture.input_state())
        ideal = architecture.ideal_output()
        assert state_fidelity(ideal, output) < 0.5

    def test_stray_x_on_router_breaks_verification(self, architecture):
        circuit = architecture.build_circuit()
        router = circuit.registers["router_L0"][0]
        corrupted = self._corrupted(
            circuit, len(circuit) // 3, Instruction(gate="X", qubits=(router,))
        )
        output = get_engine().run(corrupted, architecture.input_state())
        ideal = architecture.ideal_output()
        assert reduced_fidelity(ideal, output, architecture.kept_qubits()) < 0.99

    def test_dropping_a_gate_breaks_verification(self, architecture):
        circuit = architecture.build_circuit()
        # Drop the first CSWAP (part of address loading).
        index = next(i for i, g in enumerate(circuit.instructions) if g.gate == "CSWAP")
        corrupted = circuit.copy()
        del corrupted.instructions[index]
        output = get_engine().run(corrupted, architecture.input_state())
        ideal = architecture.ideal_output()
        assert state_fidelity(ideal, output) < 1.0 - 1e-6

    def test_wrong_memory_contents_detected(self, small_memory):
        """A circuit built for one dataset must not verify against another."""
        architecture = VirtualQRAM(memory=small_memory, qram_width=2)
        flipped_values = [1 - v for v in small_memory.values]
        wrong = VirtualQRAM(
            memory=ClassicalMemory.from_values(flipped_values), qram_width=2
        )
        output = get_engine().run(
            architecture.build_circuit(), architecture.input_state()
        )
        assert state_fidelity(wrong.ideal_output(), output) < 0.5


class TestEmbeddingCorruption:
    def test_node_collision_detected(self):
        embedding = HTreeEmbedding(tree_depth=3)
        first, second = list(embedding.node_positions)[:2]
        embedding.node_positions[second] = embedding.node_positions[first]
        report = verify_topological_minor(embedding)
        assert not report.is_topological_minor
        assert any("collide" in problem for problem in report.problems)

    def test_path_through_node_detected(self):
        embedding = HTreeEmbedding(tree_depth=3)
        # Reroute one edge so that it passes straight through another node.
        (edge, path) = next(iter(embedding.edge_paths.items()))
        victim_position = embedding.node_positions[(2, 0)]
        embedding.edge_paths[edge] = [path[0], victim_position, path[-1]]
        report = verify_topological_minor(embedding)
        assert not report.is_topological_minor

    def test_broken_path_detected(self):
        embedding = HTreeEmbedding(tree_depth=2)
        (edge, path) = next(iter(embedding.edge_paths.items()))
        if len(path) < 3:
            # Make it a non-adjacent two-vertex "path".
            embedding.edge_paths[edge] = [path[0], (path[0][0] + 2, path[0][1])]
        else:
            embedding.edge_paths[edge] = [path[0], path[-1]]
        report = verify_topological_minor(embedding)
        assert not report.is_topological_minor


class TestNoiseSanity:
    def test_zero_noise_never_degrades_fidelity(self, architecture):
        from repro.sim import GateNoiseModel, PauliChannel

        noise = GateNoiseModel(PauliChannel())
        result = architecture.run_query(noise, shots=16, rng=0)
        assert np.allclose(result.fidelities, 1.0)

    def test_maximal_noise_destroys_fidelity(self, architecture):
        from repro.sim import GateNoiseModel, PauliChannel

        noise = GateNoiseModel(PauliChannel(p_x=0.34, p_y=0.33, p_z=0.33))
        result = architecture.run_query(noise, shots=64, rng=1)
        assert result.mean_fidelity < 0.2

    def test_fidelity_is_always_a_probability(self, architecture):
        from repro.sim import GateNoiseModel, PauliChannel

        for epsilon in (1e-4, 1e-2, 0.3):
            noise = GateNoiseModel(PauliChannel.depolarizing(epsilon))
            result = architecture.run_query(noise, shots=64, rng=2)
            assert np.all(result.fidelities >= -1e-9)
            assert np.all(result.fidelities <= 1.0 + 1e-9)
