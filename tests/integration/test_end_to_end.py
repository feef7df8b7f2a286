"""End-to-end integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro.analysis import virtual_z_fidelity_bound
from repro.hardware import GreedySwapRouter, device_noise_model, ibmq_guadalupe_like
from repro.mapping import HTreeEmbedding, MappedQRAM, SwapRouting, TeleportationRouting
from repro.qram import (
    BucketBrigadeQRAM,
    ClassicalMemory,
    SelectSwapQRAM,
    SequentialQueryCircuit,
    VirtualQRAM,
    VirtualQRAMOptions,
)
from repro.sim import GateNoiseModel, PauliChannel, get_engine, query_fidelities


class TestVirtualMemoryScenario:
    """The paper's motivating scenario: query a memory larger than the hardware."""

    def test_large_memory_small_qram(self):
        memory = ClassicalMemory.random(7, rng=99)  # 128 cells
        architecture = VirtualQRAM(memory=memory, qram_width=3)  # 8-cell QRAM
        assert architecture.num_pages == 16
        # Physical qubits grow with 2^m, not with the memory size 2^n.
        assert architecture.build_circuit().num_qubits < 40
        assert architecture.verify()

    def test_grover_style_oracle_workload(self):
        """A Grover-style workload: the query marks the addresses storing 1."""
        marked = {3, 11, 17}
        memory = ClassicalMemory.from_function(
            lambda i: 1 if i in marked else 0, address_width=5
        )
        architecture = VirtualQRAM(memory=memory, qram_width=3)
        output = architecture.simulate()
        addresses = output.register_values(architecture.address_qubits())
        bus = output.bits[:, architecture.bus_qubit()]
        flagged = {int(a) for a, b in zip(addresses, bus) if b}
        assert flagged == marked

    def test_partial_superposition_query(self):
        """Querying a non-uniform superposition preserves amplitudes."""
        memory = ClassicalMemory.random(4, rng=5)
        architecture = VirtualQRAM(memory=memory, qram_width=2)
        amplitudes = {1: 0.6, 9: 0.8j}
        state = architecture.input_state(amplitudes)
        output = architecture.simulate(state)
        produced = output.as_dict()
        expected = architecture.ideal_output(state).as_dict()
        assert produced.keys() == expected.keys()
        for key in expected:
            assert produced[key] == pytest.approx(expected[key])


class TestNoiseTrendIntegration:
    def test_architecture_ranking_under_z_noise(self):
        """Figure 9's qualitative ranking at a representative size."""
        memory = ClassicalMemory.random(5, rng=17)
        noise = GateNoiseModel(PauliChannel.phase_flip(2e-3))
        fidelities = {}
        for name, cls in (
            ("ours", VirtualQRAM),
            ("bb", BucketBrigadeQRAM),
            ("ss", SelectSwapQRAM),
        ):
            architecture = cls(memory=memory, qram_width=5)
            fidelities[name] = architecture.run_query(noise, shots=192, rng=3).mean_fidelity
        assert fidelities["ours"] > fidelities["ss"]
        assert fidelities["bb"] > fidelities["ss"]

    def test_virtual_qram_z_vs_x_asymmetry(self):
        """Our architecture tolerates Z noise much better than X noise."""
        memory = ClassicalMemory.random(6, rng=21)
        architecture = VirtualQRAM(memory=memory, qram_width=6)
        epsilon = 2e-3
        z_result = architecture.run_query(
            GateNoiseModel(PauliChannel.phase_flip(epsilon)), shots=192, rng=1
        )
        x_result = architecture.run_query(
            GateNoiseModel(PauliChannel.bit_flip(epsilon)), shots=192, rng=2
        )
        assert z_result.mean_fidelity > x_result.mean_fidelity + 0.1

    def test_sqc_width_hurts_more_than_qram_width(self):
        """Figure 11's conclusion: growing k damages fidelity faster than growing m."""
        epsilon = 3e-3
        noise = GateNoiseModel(PauliChannel.phase_flip(epsilon))
        memory_large_m = ClassicalMemory.random(5, rng=2)
        memory_large_k = ClassicalMemory.random(5, rng=2)
        large_m = VirtualQRAM(memory=memory_large_m, qram_width=4)   # m=4, k=1
        large_k = VirtualQRAM(memory=memory_large_k, qram_width=1)   # m=1, k=4
        fidelity_large_m = large_m.run_query(noise, shots=256, rng=4).mean_fidelity
        fidelity_large_k = large_k.run_query(noise, shots=256, rng=4).mean_fidelity
        assert fidelity_large_m > fidelity_large_k

    def test_simulated_fidelity_not_wildly_below_bound(self):
        """The gate-based Monte-Carlo fidelity should track the analytic bound's
        scale (the bound is for the qubit-based model, so only the order of
        magnitude of the infidelity is compared)."""
        epsilon = 1e-4
        memory = ClassicalMemory.random(4, rng=13)
        architecture = VirtualQRAM(memory=memory, qram_width=3)
        result = architecture.run_query(
            GateNoiseModel(PauliChannel.phase_flip(epsilon)), shots=256, rng=11
        )
        bound = virtual_z_fidelity_bound(epsilon, 3, 1)
        assert result.mean_fidelity >= bound - 0.05


class TestCompilationPipeline:
    def test_build_map_route_simulate(self):
        """Full pipeline: build, embed in 2D, route on hardware, simulate noisily."""
        memory = ClassicalMemory.random(3, rng=8)
        architecture = VirtualQRAM(memory=memory, qram_width=2)
        circuit = architecture.build_circuit()

        # 2D-grid embedding and routing-overhead accounting.
        embedding = HTreeEmbedding(tree_depth=2)
        mapped = MappedQRAM(circuit, embedding)
        overheads = mapped.compare_schemes([SwapRouting(), TeleportationRouting()])
        assert overheads[0].logical_depth == overheads[1].logical_depth

        # Device routing and noisy simulation.
        device = ibmq_guadalupe_like()
        routed = GreedySwapRouter(device).route(circuit)
        logical_input = architecture.input_state()
        physical_input = routed.map_state(logical_input, final=False)
        physical_ideal = routed.map_state(
            architecture.ideal_output(logical_input), final=True
        )
        keep = routed.physical_qubits(architecture.kept_qubits(), final=True)
        result = query_fidelities(
            routed.circuit,
            physical_input,
            device_noise_model(device, error_reduction_factor=1000),
            shots=64,
            keep_qubits=keep,
            ideal_output=physical_ideal,
            rng=np.random.default_rng(0),
        )
        assert result.mean_fidelity > 0.9

    def test_options_do_not_change_semantics_through_pipeline(self):
        memory = ClassicalMemory.random(4, rng=19)
        for options in (VirtualQRAMOptions.raw(), VirtualQRAMOptions.all_enabled()):
            architecture = VirtualQRAM(memory=memory, qram_width=2, options=options)
            assert architecture.verify()

    def test_sqc_and_virtual_agree_on_every_address(self):
        memory = ClassicalMemory.random(4, rng=23)
        sqc = SequentialQueryCircuit(memory=memory)
        virtual = VirtualQRAM(memory=memory, qram_width=2)
        simulator = get_engine()
        for address in range(memory.size):
            sqc_out = simulator.run(sqc.build_circuit(), sqc.input_state({address: 1.0}))
            virtual_out = simulator.run(
                virtual.build_circuit(), virtual.input_state({address: 1.0})
            )
            assert int(sqc_out.bits[0, sqc.bus_qubit()]) == int(
                virtual_out.bits[0, virtual.bus_qubit()]
            )
