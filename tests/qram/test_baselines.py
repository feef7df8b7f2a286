"""Tests for the baseline architectures: SQC, Fanout, Bucket-Brigade, Select-Swap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qram import (
    BucketBrigadeQRAM,
    ClassicalMemory,
    FanoutQRAM,
    SelectSwapQRAM,
    SequentialQueryCircuit,
    VirtualQRAM,
)
from repro.sim import get_engine
from tests.conftest import memory_strategy

ROUTER_ARCHITECTURES = [BucketBrigadeQRAM, FanoutQRAM, SelectSwapQRAM]


class TestSequentialQueryCircuit:
    def test_correctness(self, small_memory):
        architecture = SequentialQueryCircuit(memory=small_memory)
        assert architecture.verify()
        assert architecture.m == 0
        assert architecture.k == small_memory.address_width

    def test_uses_minimal_qubits(self, small_memory):
        architecture = SequentialQueryCircuit(memory=small_memory)
        assert architecture.build_circuit().num_qubits == small_memory.address_width + 1

    def test_one_classical_gate_per_stored_one(self, small_memory):
        architecture = SequentialQueryCircuit(memory=small_memory)
        circuit = architecture.build_circuit()
        assert circuit.count_tagged("classical") == small_memory.ones_count()

    def test_rejects_nonzero_qram_width(self, small_memory):
        with pytest.raises(ValueError):
            SequentialQueryCircuit(memory=small_memory, qram_width=1)

    def test_gate_count_scales_with_memory_size(self):
        small = SequentialQueryCircuit(memory=ClassicalMemory.random(3, rng=1, p_one=1.0))
        large = SequentialQueryCircuit(memory=ClassicalMemory.random(6, rng=1, p_one=1.0))
        assert large.build_circuit().num_gates > 4 * small.build_circuit().num_gates

    def test_for_memory_constructor(self, small_memory):
        architecture = SequentialQueryCircuit.for_memory(small_memory)
        assert architecture.verify()


@pytest.mark.parametrize("architecture_cls", ROUTER_ARCHITECTURES)
class TestRouterBaselinesCorrectness:
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_query_matches_ideal(self, architecture_cls, n, m):
        memory = ClassicalMemory.random(n, rng=n * 7 + m)
        architecture = architecture_cls(memory=memory, qram_width=m)
        assert architecture.verify()

    def test_single_address_queries(self, architecture_cls, small_memory):
        architecture = architecture_cls(memory=small_memory, qram_width=2)
        simulator = get_engine()
        for address in range(small_memory.size):
            state = architecture.input_state({address: 1.0})
            output = simulator.run(architecture.build_circuit(), state)
            assert int(output.bits[0, architecture.bus_qubit()]) == small_memory[address]

    def test_ancillas_restored(self, architecture_cls, small_memory):
        architecture = architecture_cls(memory=small_memory, qram_width=2)
        output = architecture.simulate()
        kept = set(architecture.kept_qubits())
        ancillas = [q for q in range(output.num_qubits) if q not in kept]
        assert not output.bits[:, ancillas].any()

    def test_rejects_zero_qram_width(self, architecture_cls, small_memory):
        with pytest.raises(ValueError):
            architecture_cls(memory=small_memory, qram_width=0)


class TestBaselineProperties:
    @settings(max_examples=15, deadline=None)
    @given(memory_strategy(max_width=3), st.integers(1, 3))
    def test_all_architectures_agree_on_random_memories(self, memory, m):
        """Property: every architecture implements the same query map."""
        m = max(1, min(m, memory.address_width))
        builders = [
            VirtualQRAM(memory=memory, qram_width=m),
            BucketBrigadeQRAM(memory=memory, qram_width=m),
            SelectSwapQRAM(memory=memory, qram_width=m),
            FanoutQRAM(memory=memory, qram_width=m),
            SequentialQueryCircuit(memory=memory),
        ]
        for architecture in builders:
            assert architecture.verify(), architecture.name


class TestArchitectureStructure:
    def test_select_swap_has_no_router_tree(self, small_memory):
        architecture = SelectSwapQRAM(memory=small_memory, qram_width=2)
        registers = architecture.build_circuit().registers
        assert "block" in registers
        assert not any(name.startswith("router_") for name in registers)

    def test_fanout_loads_address_by_cx_fanout(self, small_memory):
        """Fanout copies each address bit onto every router of its level with CX
        gates (GHZ-like loading), so the CX count covers loading + unloading of
        all 2^m - 1 routers; its CSWAPs are only used for marker routing."""
        architecture = FanoutQRAM(memory=small_memory, qram_width=3)
        counts = architecture.build_circuit().count_ops()
        num_routers = (1 << 3) - 1
        assert counts["CX"] >= 2 * num_routers
        bucket_brigade = BucketBrigadeQRAM(memory=small_memory, qram_width=3)
        assert counts["CSWAP"] < bucket_brigade.build_circuit().count_ops()["CSWAP"]

    def test_bucket_brigade_t_cost_grows_with_pages(self):
        from repro.circuit import circuit_cost

        costs = {}
        for k in (0, 1, 2):
            memory = ClassicalMemory.random(2 + k, rng=11)
            architecture = BucketBrigadeQRAM(memory=memory, qram_width=2)
            costs[k] = circuit_cost(architecture.build_circuit()).t_count
        assert costs[1] > 1.5 * costs[0]
        assert costs[2] > 1.5 * costs[1]

    def test_virtual_qram_t_count_beats_bucket_brigade(self):
        """Table 2's headline: the load-once design saves T gates once k > 0."""
        from repro.circuit import circuit_cost

        memory = ClassicalMemory.random(5, rng=12)
        ours = VirtualQRAM(memory=memory, qram_width=3)
        baseline = BucketBrigadeQRAM(memory=memory, qram_width=3)
        assert (
            circuit_cost(ours.build_circuit()).t_count
            < circuit_cost(baseline.build_circuit()).t_count
        )

    def test_select_swap_block_register_size(self, small_memory):
        architecture = SelectSwapQRAM(memory=small_memory, qram_width=3)
        assert len(architecture.build_circuit().registers["block"]) == 8
