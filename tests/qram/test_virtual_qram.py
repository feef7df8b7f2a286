"""Tests for the virtual QRAM builder (Algorithm 1 + Sec. 3.2 optimizations)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qram import ClassicalMemory, VirtualQRAM, VirtualQRAMOptions
from repro.sim import StatevectorSimulator, get_engine
from tests.conftest import memory_strategy


class TestOptions:
    def test_defaults_enable_everything(self):
        options = VirtualQRAMOptions()
        assert options.recycle_address_qubits
        assert options.lazy_data_swapping
        assert options.pipelined_addressing
        assert not options.dual_rail

    def test_raw_disables_everything(self):
        options = VirtualQRAMOptions.raw()
        assert not options.recycle_address_qubits
        assert not options.lazy_data_swapping
        assert not options.pipelined_addressing

    def test_only_selects_a_single_optimization(self):
        assert VirtualQRAMOptions.only("recycling").recycle_address_qubits
        assert VirtualQRAMOptions.only("lazy").lazy_data_swapping
        assert VirtualQRAMOptions.only("pipelining").pipelined_addressing
        with pytest.raises(ValueError):
            VirtualQRAMOptions.only("unknown")


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_query_matches_ideal_output(self, n, m):
        memory = ClassicalMemory.random(n, rng=n * 10 + m)
        architecture = VirtualQRAM(memory=memory, qram_width=m)
        assert architecture.verify()

    def test_every_single_address_query(self, small_memory):
        """Querying each address individually returns exactly that cell's bit."""
        architecture = VirtualQRAM(memory=small_memory, qram_width=2)
        simulator = get_engine()
        for address in range(small_memory.size):
            state = architecture.input_state({address: 1.0})
            output = simulator.run(architecture.build_circuit(), state)
            bus_value = int(output.bits[0, architecture.bus_qubit()])
            assert bus_value == small_memory[address]

    def test_matches_statevector_simulation(self, tiny_memory):
        architecture = VirtualQRAM(memory=tiny_memory, qram_width=1)
        circuit = architecture.build_circuit()
        state = architecture.input_state()
        path_output = get_engine().run(circuit, state)
        dense_output = StatevectorSimulator().run(circuit, state)
        assert np.allclose(path_output.to_statevector(), dense_output)

    @pytest.mark.parametrize(
        "options",
        [
            VirtualQRAMOptions.raw(),
            VirtualQRAMOptions.only("recycling"),
            VirtualQRAMOptions.only("lazy"),
            VirtualQRAMOptions.only("pipelining"),
            VirtualQRAMOptions(dual_rail=True),
            VirtualQRAMOptions(dual_rail=True, lazy_data_swapping=False),
        ],
        ids=["raw", "recycling", "lazy", "pipelining", "dual_rail", "dual_rail_eager"],
    )
    def test_all_option_combinations_are_correct(self, small_memory, options):
        architecture = VirtualQRAM(memory=small_memory, qram_width=2, options=options)
        assert architecture.verify()

    @settings(max_examples=25, deadline=None)
    @given(memory_strategy(max_width=4), st.integers(1, 4), st.booleans(), st.booleans())
    def test_property_random_memories(self, memory, m, lazy, recycle):
        """Property: the query is correct for random memories and option subsets."""
        m = min(m, memory.address_width)
        if m < 1:
            return
        options = VirtualQRAMOptions(
            recycle_address_qubits=recycle, lazy_data_swapping=lazy
        )
        architecture = VirtualQRAM(memory=memory, qram_width=m, options=options)
        assert architecture.verify()

    def test_ancillas_return_to_zero(self, small_memory):
        architecture = VirtualQRAM(memory=small_memory, qram_width=2)
        output = architecture.simulate()
        kept = set(architecture.kept_qubits())
        ancillas = [q for q in range(output.num_qubits) if q not in kept]
        assert not output.bits[:, ancillas].any()

    def test_rejects_zero_qram_width(self, small_memory):
        with pytest.raises(ValueError):
            VirtualQRAM(memory=small_memory, qram_width=0)

    def test_bit_plane_queries(self):
        memory = ClassicalMemory.from_values([0b10, 0b01, 0b11, 0b00], data_width=2)
        for plane in range(2):
            architecture = VirtualQRAM(memory=memory, qram_width=1, bit_plane=plane)
            assert architecture.verify()


class TestLoadOnceProperty:
    def test_address_loading_gates_do_not_scale_with_pages(self):
        """The 'load-once' property: CSWAP count is independent of the page count."""
        counts = {}
        for k in (0, 1, 2, 3):
            memory = ClassicalMemory.random(2 + k, rng=5)
            architecture = VirtualQRAM(memory=memory, qram_width=2)
            counts[k] = architecture.build_circuit().count_ops()["CSWAP"]
        assert len(set(counts.values())) == 1

    def test_bucket_brigade_baseline_reloads_per_page(self):
        """Contrast: the SQC+BB baseline's CSWAP count grows with the page count."""
        from repro.qram import BucketBrigadeQRAM

        memory_small = ClassicalMemory.random(3, rng=6)
        memory_large = ClassicalMemory.random(5, rng=6)
        small = BucketBrigadeQRAM(memory=memory_small, qram_width=2)
        large = BucketBrigadeQRAM(memory=memory_large, qram_width=2)
        assert (
            large.build_circuit().count_ops()["CSWAP"]
            > small.build_circuit().count_ops()["CSWAP"]
        )


class TestOptimizationEffects:
    def test_recycling_reduces_qubits(self, small_memory):
        raw = VirtualQRAM(
            memory=small_memory, qram_width=3, options=VirtualQRAMOptions.raw()
        )
        recycled = VirtualQRAM(
            memory=small_memory,
            qram_width=3,
            options=VirtualQRAMOptions.only("recycling"),
        )
        assert recycled.build_circuit().num_qubits < raw.build_circuit().num_qubits

    def test_lazy_swapping_reduces_classical_gates(self):
        memory = ClassicalMemory.random(6, rng=3)
        eager = VirtualQRAM(
            memory=memory, qram_width=3, options=VirtualQRAMOptions.raw()
        )
        lazy = VirtualQRAM(
            memory=memory, qram_width=3, options=VirtualQRAMOptions.only("lazy")
        )
        eager_count = eager.build_circuit().count_tagged("classical")
        lazy_count = lazy.build_circuit().count_tagged("classical")
        assert lazy_count < eager_count
        # For uniformly random data the saving approaches a factor of two.
        assert lazy_count < 0.75 * eager_count

    def test_pipelining_reduces_depth(self):
        memory = ClassicalMemory.random(6, rng=4)
        sequential = VirtualQRAM(
            memory=memory, qram_width=6, options=VirtualQRAMOptions.raw()
        )
        pipelined = VirtualQRAM(
            memory=memory, qram_width=6, options=VirtualQRAMOptions.only("pipelining")
        )
        assert (
            pipelined.build_circuit().depth() < sequential.build_circuit().depth()
        )

    def test_dual_rail_doubles_leaf_register(self, small_memory):
        plain = VirtualQRAM(memory=small_memory, qram_width=3)
        dual = VirtualQRAM(
            memory=small_memory, qram_width=3, options=VirtualQRAMOptions(dual_rail=True)
        )
        assert (
            dual.build_circuit().num_qubits
            == plain.build_circuit().num_qubits + small_memory.size
        )

    def test_lazy_and_eager_build_equivalent_unitaries(self):
        """Lazy data swapping must not change the query semantics, only the count."""
        memory = ClassicalMemory.random(4, rng=9)
        simulator = get_engine()
        eager = VirtualQRAM(
            memory=memory, qram_width=2,
            options=VirtualQRAMOptions(lazy_data_swapping=False),
        )
        lazy = VirtualQRAM(
            memory=memory, qram_width=2,
            options=VirtualQRAMOptions(lazy_data_swapping=True),
        )
        state = eager.input_state()
        eager_out = simulator.run(eager.build_circuit(), state).as_dict()
        lazy_out = simulator.run(lazy.build_circuit(), state).as_dict()
        assert set(eager_out) == set(lazy_out)
        for key in eager_out:
            assert eager_out[key] == pytest.approx(lazy_out[key])


class TestResourceScaling:
    def test_qubit_count_scales_linearly_with_capacity(self):
        sizes = {}
        for m in (2, 3, 4, 5):
            memory = ClassicalMemory.random(m, rng=m)
            sizes[m] = VirtualQRAM(memory=memory, qram_width=m).build_circuit().num_qubits
        for m in (2, 3, 4):
            ratio = sizes[m + 1] / sizes[m]
            assert 1.7 < ratio < 2.3  # O(2^m) qubits

    def test_depth_scales_linearly_with_m_at_fixed_k(self):
        depths = {}
        for m in (2, 3, 4, 5, 6):
            memory = ClassicalMemory.random(m, rng=m)
            depths[m] = VirtualQRAM(memory=memory, qram_width=m).build_circuit().depth()
        increments = [depths[m + 1] - depths[m] for m in (2, 3, 4, 5)]
        # Linear growth: roughly constant increments, far from doubling.
        assert max(increments) <= 2.5 * min(increments)

    def test_metadata_records_parameters(self, small_memory):
        architecture = VirtualQRAM(memory=small_memory, qram_width=2)
        circuit = architecture.build_circuit()
        assert circuit.metadata["architecture"] == "virtual"
        assert circuit.metadata["m"] == 2
        assert circuit.metadata["k"] == 1
