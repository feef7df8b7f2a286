"""Tests for device-derived noise models and the error-reduction factor."""

import pytest

from repro.circuit import Instruction, QuantumCircuit
from repro.experiments.fig10 import DEFAULT_REDUCTION_FACTORS as FIG10_FACTORS
from repro.experiments.fig11 import DEFAULT_REDUCTION_FACTORS as FIG11_FACTORS
from repro.hardware import (
    DEVICES,
    device_noise_model,
    ibm_perth_like,
    scheduled_device_noise_model,
)
from repro.hardware.devices import DeviceModel, dual_rail_cavity_like
from repro.qram import ClassicalMemory, VirtualQRAM
from repro.sim.noise import (
    GateNoiseModel,
    PauliChannel,
    ScheduledNoiseModel,
    iter_error_sites,
)


class TestDeviceNoiseModel:
    def test_two_qubit_gates_are_noisier(self):
        model = device_noise_model(ibm_perth_like())
        single = model.gate_error_channels(Instruction(gate="X", qubits=(0,)))
        double = model.gate_error_channels(Instruction(gate="CX", qubits=(0, 1)))
        assert single[0][1].p_total < double[0][1].p_total

    def test_error_reduction_factor_scales_channels(self):
        base = device_noise_model(ibm_perth_like(), error_reduction_factor=1)
        improved = device_noise_model(ibm_perth_like(), error_reduction_factor=100)
        base_channel = base.gate_error_channels(Instruction(gate="CX", qubits=(0, 1)))[0][1]
        improved_channel = improved.gate_error_channels(
            Instruction(gate="CX", qubits=(0, 1))
        )[0][1]
        assert improved_channel.p_total == pytest.approx(base_channel.p_total / 100)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            device_noise_model(ibm_perth_like(), error_reduction_factor=0)

    def test_barriers_and_noise_skipped(self):
        model = device_noise_model(ibm_perth_like())
        assert model.gate_error_channels(Instruction(gate="BARRIER", qubits=(0,))) == []
        noise_instr = Instruction(gate="X", qubits=(0,), tags=frozenset({"noise"}))
        assert model.gate_error_channels(noise_instr) == []

    def test_scaled_composes(self):
        model = device_noise_model(ibm_perth_like(), error_reduction_factor=10)
        rescaled = model.scaled(0.1)
        channel = rescaled.gate_error_channels(Instruction(gate="X", qubits=(0,)))[0][1]
        original = device_noise_model(ibm_perth_like(), error_reduction_factor=100)
        expected = original.gate_error_channels(Instruction(gate="X", qubits=(0,)))[0][1]
        assert channel.p_total == pytest.approx(expected.p_total)


class TestPauliBias:
    def test_unbiased_device_is_bitwise_depolarizing(self):
        """The (1, 1, 1) default routes through ``PauliChannel.depolarizing``.

        Bit-identity matters: every committed artefact was produced by
        ``depolarizing(eps)``, and rebuilding the same channel as
        ``eps * (w / W)`` can land an ulp away.
        """
        device = ibm_perth_like()
        model = device_noise_model(device, error_reduction_factor=3.0)
        assert model.single_qubit_channel == PauliChannel.depolarizing(
            device.single_qubit_error / 3.0
        )
        assert model.two_qubit_channel == PauliChannel.depolarizing(
            device.two_qubit_error / 3.0
        )

    def test_bias_splits_rate_across_paulis(self):
        device = DeviceModel(
            name="biased",
            num_qubits=2,
            coupling_map=((0, 1),),
            two_qubit_error=4e-2,
            pauli_bias=(2.0, 1.0, 1.0),
        )
        channel = device_noise_model(device).two_qubit_channel
        assert channel.p_x == pytest.approx(2e-2)
        assert channel.p_y == pytest.approx(1e-2)
        assert channel.p_z == pytest.approx(1e-2)

    def test_bias_preserves_total_rate(self):
        """Bare-vs-dual ablations compare at equal total error budgets."""
        biased = device_noise_model(dual_rail_cavity_like())
        unbiased = device_noise_model(ibm_perth_like())
        assert biased.single_qubit_channel.p_total == pytest.approx(
            unbiased.single_qubit_channel.p_total
        )
        assert biased.two_qubit_channel.p_total == pytest.approx(
            unbiased.two_qubit_channel.p_total
        )

    def test_bias_survives_error_reduction(self):
        channel = device_noise_model(
            dual_rail_cavity_like(), error_reduction_factor=10.0
        ).two_qubit_channel
        assert channel.p_x == pytest.approx(20 * channel.p_z)
        assert channel.p_y == pytest.approx(channel.p_x)


class TestFigureGateNoiseCalibrations:
    """The "phase-flip"/"bit-flip" calibrations are Figs. 9-11's gate noise."""

    FACTORS = sorted(set(FIG10_FACTORS) | set(FIG11_FACTORS))
    INSTRUCTIONS = (
        Instruction(gate="X", qubits=(0,)),
        Instruction(gate="CX", qubits=(0, 1)),
        Instruction(gate="MCX", qubits=(0, 1, 2)),
    )

    @pytest.mark.parametrize(
        "name, constructor",
        [("phase-flip", PauliChannel.phase_flip), ("bit-flip", PauliChannel.bit_flip)],
    )
    def test_channels_equal_the_single_pauli_constructors(self, name, constructor):
        for factor in self.FACTORS:
            model = device_noise_model(DEVICES[name], error_reduction_factor=factor)
            expected = GateNoiseModel(constructor(1e-3 / factor))
            assert model.single_qubit_channel == constructor(1e-3 / factor)
            assert model.two_qubit_channel == constructor(1e-3 / factor)
            for instr in self.INSTRUCTIONS:
                assert model.gate_error_channels(
                    instr
                ) == expected.gate_error_channels(instr)

    @pytest.mark.parametrize("name", ["phase-flip", "bit-flip"])
    def test_zero_idle_error_keeps_the_plain_model(self, name):
        circuit = QuantumCircuit(2)
        circuit.add("X", 0)
        circuit.add("X", 0)
        model = scheduled_device_noise_model(
            DEVICES[name], circuit, error_reduction_factor=10.0, idle_error=0.0
        )
        assert model == device_noise_model(DEVICES[name], error_reduction_factor=10.0)


class TestFidelityImprovesWithBetterHardware:
    def test_monotone_in_error_reduction_factor(self):
        """The Appendix-A trend: better hardware, better query fidelity."""
        memory = ClassicalMemory.random(2, rng=0)
        architecture = VirtualQRAM(memory=memory, qram_width=1)
        fidelities = []
        for factor in (1, 10, 1000):
            noise = device_noise_model(ibm_perth_like(), error_reduction_factor=factor)
            result = architecture.run_query(noise, shots=200, rng=5)
            fidelities.append(result.mean_fidelity)
        assert fidelities[0] < fidelities[2]
        assert fidelities[2] > 0.95


class TestScheduledDeviceNoiseModel:
    def _circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(2)
        for _ in range(5):
            circuit.add("X", 0)  # qubit 1 idles for the full 5-layer schedule
        return circuit

    def test_idle_defaults_to_device_calibration(self):
        device = ibm_perth_like()
        model = scheduled_device_noise_model(device, self._circuit())
        assert isinstance(model, ScheduledNoiseModel)
        assert len(model.final_sites) == 5
        assert model.final_sites[0][1].p_z == pytest.approx(device.idle_error)

    def test_zero_idle_error_reduces_to_plain_device_model(self):
        device = ibm_perth_like()
        model = scheduled_device_noise_model(device, self._circuit(), idle_error=0.0)
        assert model == device_noise_model(device)

    def test_idle_error_shares_the_reduction_factor(self):
        device = ibm_perth_like()
        model = scheduled_device_noise_model(
            device, self._circuit(), error_reduction_factor=10.0, idle_error=0.02
        )
        assert model.final_sites[0][1].p_z == pytest.approx(0.002)
        base_channel = model.base.gate_error_channels(
            Instruction(gate="X", qubits=(0,))
        )[0][1]
        assert base_channel.p_total == pytest.approx(
            device.single_qubit_error / 10.0
        )

    def test_negative_idle_error_rejected(self):
        with pytest.raises(ValueError, match="idle error"):
            scheduled_device_noise_model(
                ibm_perth_like(), self._circuit(), idle_error=-1e-3
            )

    def test_site_count_adds_idle_budget_to_gate_sites(self):
        circuit = self._circuit()
        device = ibm_perth_like()
        plain = list(iter_error_sites(circuit, device_noise_model(device)))
        scheduled = list(
            iter_error_sites(
                circuit, scheduled_device_noise_model(device, circuit)
            )
        )
        assert len(scheduled) == len(plain) + 5
