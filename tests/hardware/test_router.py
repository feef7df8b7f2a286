"""Tests for the greedy SWAP-insertion router."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuit import QuantumCircuit
from repro.hardware import GreedySwapRouter, ibm_perth_like, ibmq_guadalupe_like
from repro.hardware.devices import DeviceModel, grid_device
from repro.qram import ClassicalMemory, VirtualQRAM
from repro.sim import PathState, get_engine
from tests.conftest import random_reversible_circuits


class TestRoutingCorrectness:
    def _assert_equivalent(self, circuit: QuantumCircuit, device) -> None:
        """The routed circuit must implement the same map, up to the final layout."""
        router = GreedySwapRouter(device)
        routed = router.route(circuit)
        simulator = get_engine()

        rng = np.random.default_rng(0)
        bits = np.unique(
            rng.integers(0, 2, size=(4, circuit.num_qubits)).astype(bool), axis=0
        )
        amplitudes = np.ones(bits.shape[0], dtype=complex) / np.sqrt(bits.shape[0])
        logical_state = PathState(bits=bits, amplitudes=amplitudes)
        logical_output = simulator.run(circuit, logical_state)

        physical_input = routed.map_state(logical_state, final=False)
        physical_output = simulator.run(routed.circuit, physical_input)
        expected_output = routed.map_state(logical_output, final=True)
        assert abs(expected_output.overlap(physical_output)) ** 2 == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(random_reversible_circuits(min_qubits=2, max_qubits=7, max_gates=15))
    def test_random_circuits_on_perth(self, circuit):
        self._assert_equivalent(circuit, ibm_perth_like())

    @settings(max_examples=10, deadline=None)
    @given(random_reversible_circuits(min_qubits=2, max_qubits=7, max_gates=12))
    def test_random_circuits_on_guadalupe(self, circuit):
        self._assert_equivalent(circuit, ibmq_guadalupe_like())

    def test_virtual_qram_on_each_device(self):
        configurations = [
            (1, 0, ibm_perth_like()),
            (1, 1, ibm_perth_like()),
            (2, 0, ibmq_guadalupe_like()),
            (2, 1, ibmq_guadalupe_like()),
        ]
        for m, k, device in configurations:
            memory = ClassicalMemory.random(m + k, rng=m * 3 + k)
            architecture = VirtualQRAM(memory=memory, qram_width=m)
            self._assert_equivalent(architecture.build_circuit(), device)


class TestRoutingAccounting:
    def test_no_swaps_needed_on_all_to_all_neighbourhood(self):
        device = grid_device(1, 2)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = GreedySwapRouter(device).route(circuit)
        assert routed.swap_count == 0
        assert routed.final_layout == routed.initial_layout

    def test_sparse_connectivity_forces_swaps(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(7)
        circuit.cx(0, 6)  # opposite ends of the H shape
        routed = GreedySwapRouter(device).route(circuit)
        assert routed.swap_count >= 3
        assert all("routing" in instr.tags for instr in routed.circuit.gates[:-1])

    def test_swap_count_grows_with_configuration_size(self):
        """Figure 12's SWAP-count ordering: larger QRAMs need more routing."""
        small_memory = ClassicalMemory.random(1, rng=0)
        large_memory = ClassicalMemory.random(3, rng=0)
        small = VirtualQRAM(memory=small_memory, qram_width=1)
        large = VirtualQRAM(memory=large_memory, qram_width=2)
        small_routed = GreedySwapRouter(ibm_perth_like()).route(small.build_circuit())
        large_routed = GreedySwapRouter(ibmq_guadalupe_like()).route(large.build_circuit())
        assert large_routed.swap_count > small_routed.swap_count

    def test_circuit_too_large_rejected(self):
        device = ibm_perth_like()
        with pytest.raises(ValueError):
            GreedySwapRouter(device).route(QuantumCircuit(8))

    def test_custom_initial_layout(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = {0: 4, 1: 5}
        routed = GreedySwapRouter(device).route(circuit, initial_layout=layout)
        assert routed.swap_count == 0
        assert routed.circuit.gates[0].qubits == (4, 5)

    def test_invalid_layouts_rejected(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        router = GreedySwapRouter(device)
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0})
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0, 1: 0})
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0, 1: 9})

    def test_disconnected_device_rejected(self):
        device = DeviceModel(name="split", num_qubits=4, coupling_map=((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            GreedySwapRouter(device)

    def test_physical_qubits_helper(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        routed = GreedySwapRouter(device).route(circuit)
        initial = routed.physical_qubits([0, 1, 2], final=False)
        assert initial == [0, 1, 2]
        assert len(routed.physical_qubits([0, 1, 2], final=True)) == 3
