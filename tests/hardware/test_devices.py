"""Tests for the synthetic device models."""

import networkx as nx
import pytest

from repro.hardware import DEVICES, DeviceModel, ibm_perth_like, ibmq_guadalupe_like
from repro.hardware.devices import dual_rail_cavity_like, grid_device


class TestDeviceModels:
    def test_perth_topology(self):
        device = ibm_perth_like()
        assert device.num_qubits == 7
        assert len(device.coupling_map) == 6
        assert nx.is_connected(device.to_networkx())
        # The H-shape has two degree-3 hubs (qubits 1 and 5).
        graph = device.to_networkx()
        hubs = [node for node in graph if graph.degree(node) == 3]
        assert sorted(hubs) == [1, 5]

    def test_guadalupe_topology(self):
        device = ibmq_guadalupe_like()
        assert device.num_qubits == 16
        assert nx.is_connected(device.to_networkx())
        # Heavy-hex fragments are sparse: average degree stays 2.

        assert device.average_degree() == pytest.approx(2.0)

    def test_registry(self):
        assert set(DEVICES) == {
            "ibm_perth",
            "ibmq_guadalupe",
            "dual-rail-cavity",
            "phase-flip",
            "bit-flip",
        }

    def test_distance_and_paths(self):
        device = ibm_perth_like()
        assert device.are_connected(0, 1)
        assert not device.are_connected(0, 6)
        assert device.distance(0, 6) == 4
        path = device.shortest_path(0, 6)
        assert path[0] == 0 and path[-1] == 6

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel(name="bad", num_qubits=2, coupling_map=((0, 5),))
        with pytest.raises(ValueError):
            DeviceModel(name="bad", num_qubits=2, coupling_map=((1, 1),))

    def test_grid_device(self):
        device = grid_device(3, 4)
        assert device.num_qubits == 12
        assert len(device.coupling_map) == 3 * 3 + 2 * 4
        assert device.name == "grid-3x4"

    def test_error_rate_scale_matches_paper_assumption(self):
        """Appendix A assumes current hardware error rates around 1e-3 to 1e-2."""
        for device in DEVICES.values():
            assert 1e-4 <= device.single_qubit_error <= 1e-2
            assert 1e-3 <= device.two_qubit_error <= 5e-2


class TestPauliBias:
    def test_ibm_devices_are_unbiased(self):
        """The Figure-12 backends keep the paper's depolarizing model."""
        assert ibm_perth_like().pauli_bias == (1.0, 1.0, 1.0)
        assert ibmq_guadalupe_like().pauli_bias == (1.0, 1.0, 1.0)

    def test_cavity_device_is_erasure_biased(self):
        """X/Y (detectable) dominate Z (logical) on the erasure calibration."""
        bias = dual_rail_cavity_like().pauli_bias
        assert bias[0] == bias[1]
        assert bias[0] > 10 * bias[2] > 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="three non-negative"):
            DeviceModel(
                name="bad", num_qubits=1, coupling_map=(), pauli_bias=(1.0, 1.0)
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="three non-negative"):
            DeviceModel(
                name="bad",
                num_qubits=1,
                coupling_map=(),
                pauli_bias=(1.0, -0.5, 1.0),
            )

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive weight"):
            DeviceModel(
                name="bad",
                num_qubits=1,
                coupling_map=(),
                pauli_bias=(0.0, 0.0, 0.0),
            )
