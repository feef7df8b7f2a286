"""Tests for the compiled gate-tape IR (:mod:`repro.circuit.ir`)."""

import numpy as np

from repro.circuit import QuantumCircuit, compile_circuit
from repro.circuit.ir import (
    GATE_OPCODES,
    OP_CSWAP,
    OP_CX,
    OP_NOP,
    OP_SWAP,
    OPCODE_NAMES,
)
from repro.sim import GateNoiseModel, NoiselessModel, PauliChannel, ShotSeeds
from repro.sim.seeding import draw_shot_randomness
from tests.conftest import FixedUniforms


def _example_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(6)
    circuit.swap(0, 1)
    circuit.swap(2, 3)  # fuses with the first swap
    circuit.swap(1, 2)  # overlaps: new group
    circuit.barrier()
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.cx(4, 5)
    circuit.i(0)
    circuit.cswap(0, 1, 2)
    return circuit


class TestCompile:
    def test_opcode_table_covers_registry(self):
        from repro.circuit.gates import ALL_GATES

        assert set(GATE_OPCODES) == set(ALL_GATES) - {"BARRIER"}
        assert all(OPCODE_NAMES[op] == name for name, op in GATE_OPCODES.items())

    def test_groups_and_fusion(self):
        tape = compile_circuit(_example_circuit())
        assert [group.opcode for group in tape.groups] == [
            OP_SWAP,
            OP_SWAP,
            OP_CX,
            OP_NOP,
            OP_CSWAP,
        ]
        assert [group.size for group in tape.groups] == [2, 1, 3, 1, 1]

    def test_barriers_dropped_but_gates_kept(self):
        circuit = _example_circuit()
        tape = compile_circuit(circuit)
        assert tape.num_gates == circuit.num_gates
        assert all(not instr.is_barrier for instr in tape.gates)
        assert tape.num_qubits == circuit.num_qubits

    def test_gate_group_is_monotonic_and_consistent(self):
        tape = compile_circuit(_example_circuit())
        assert np.all(np.diff(tape.gate_group) >= 0)
        # Each gate's operands appear in the group it is assigned to.
        for gate, group_index in zip(tape.gates, tape.gate_group):
            group = tape.groups[int(group_index)]
            assert GATE_OPCODES[gate.gate] == group.opcode
            assert any(
                tuple(row) == gate.qubits for row in group.qubits.tolist()
            )

    def test_groups_are_pairwise_disjoint(self):
        tape = compile_circuit(_example_circuit())
        for group in tape.groups:
            flat = group.qubits.ravel().tolist()
            assert len(flat) == len(set(flat))

    def test_unsupported_path_gates_recorded(self, monkeypatch):
        # Every registered gate is path-simulable since H joined the set, so
        # exercise the rejection safety net with a synthetic registry entry.
        from repro.circuit import gates as gates_mod
        from repro.circuit import ir as ir_mod

        monkeypatch.setitem(
            gates_mod.ALL_GATES,
            "RX",
            gates_mod._spec(
                "RX", 1, classical_reversible=False, clifford=False, diagonal=False
            ),
        )
        monkeypatch.setitem(ir_mod.GATE_OPCODES, "RX", ir_mod.GATE_OPCODES["X"])
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.add("RX", 1)
        tape = compile_circuit(circuit)
        assert tape.unsupported_path_gates == ("RX",)

    def test_hadamard_is_path_simulable_and_tagged(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.h(1)
        tape = compile_circuit(circuit)
        assert tape.unsupported_path_gates == ()
        assert tape.max_branch_level == 1


class TestCache:
    def test_tape_cached_on_circuit(self):
        circuit = _example_circuit()
        assert compile_circuit(circuit) is compile_circuit(circuit)

    def test_append_invalidates_cache(self):
        circuit = _example_circuit()
        first = compile_circuit(circuit)
        circuit.x(5)
        second = compile_circuit(circuit)
        assert second is not first
        assert second.num_gates == first.num_gates + 1

    def test_direct_mutation_detected_by_length(self):
        circuit = _example_circuit()
        first = compile_circuit(circuit)
        circuit.instructions.append(circuit.instructions[0])
        assert compile_circuit(circuit) is not first

    def test_copies_do_not_share_tapes(self):
        circuit = _example_circuit()
        compile_circuit(circuit)
        clone = circuit.copy()
        assert clone._tape is None


class TestNoiseSites:
    def test_site_order_is_program_order(self):
        circuit = _example_circuit()
        tape = compile_circuit(circuit)
        noise = GateNoiseModel(PauliChannel.phase_flip(1e-2))
        sites = tape.noise_sites(noise)
        expected = [
            (index, qubit)
            for index, instr in enumerate(tape.gates)
            for qubit, channel in noise.gate_error_channels(instr)
        ]
        assert list(zip(sites.gate_index.tolist(), sites.qubit.tolist())) == expected
        assert np.array_equal(sites.group_index, tape.gate_group[sites.gate_index])
        assert not sites.hoisted

    def test_noiseless_model_has_no_sites(self):
        tape = compile_circuit(_example_circuit())
        assert tape.noise_sites(NoiselessModel()).n_sites == 0

    def test_site_table_memoized_per_model(self):
        tape = compile_circuit(_example_circuit())
        noise = GateNoiseModel(PauliChannel.bit_flip(1e-3))
        assert tape.noise_sites(noise) is tape.noise_sites(noise)

    def test_draw_column_matches_per_site_sampling(self):
        # Mixed channels (two_qubit_factor != 1) force several channel runs;
        # column ``s`` of the block draw must equal sequential per-site
        # draws reading shot ``s``'s row of uniforms -- the property the tape
        # engine's equivalence with the sample_noisy_circuit oracle rests on.
        tape = compile_circuit(_example_circuit())
        noise = GateNoiseModel(
            PauliChannel.depolarizing(0.3), two_qubit_factor=2.0
        )
        sites = tape.noise_sites(noise)
        assert len(sites._channel_runs()) > 1
        seeds = ShotSeeds(seed=3, start=2)
        codes, _ = draw_shot_randomness(sites, seeds, 4)
        assert codes.shape == (sites.n_sites, 4)
        for shot in range(4):
            sequential_rng = FixedUniforms(seeds.uniforms(shot, 1, sites.n_sites)[0])
            manual = np.concatenate(
                [
                    channel.sample_thresholded(sequential_rng, 1)
                    for channel in sites.channels
                ]
            )
            assert np.array_equal(codes[:, shot], manual)
