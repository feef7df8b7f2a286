"""Shot-batch execution: the stacked shot block and its fidelity reduction.

The Feynman engines execute every shot of a batch in one stacked block.
These tests pin the block's degenerate corners on the default
``"feynman-tape"`` engine (noise-free runs under every rng flavour,
generator determinism, and measured circuits, every-site and phase-only
noise against the dense oracle), as a hypothesis property over arbitrary
``ShotSeeds`` sharding windows, and the vectorised per-shot fidelity
reduction against its reference loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM
from repro.sim import (
    GateNoiseModel,
    NoiselessModel,
    PauliChannel,
    ShotSeeds,
    get_engine,
)
from repro.sim.fidelity import (
    _ideal_keep_amplitudes,
    _pack_rows,
    shot_fidelities,
)
from repro.sim.paths import PathState
from tests.conftest import assert_shots_match_oracle

DEPOL = GateNoiseModel(PauliChannel.depolarizing(0.05))


def _compiled():
    architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
    return architecture.compiled_query()


def _run(engine_name: str, noise, shots: int, rng):
    compiled = _compiled()
    return get_engine(engine_name).run_noisy_shots(
        compiled.circuit, compiled.input_state, noise, shots, rng=rng
    )


def _assert_blocks_equal(left, right):
    assert np.array_equal(left[0], right[0])
    assert np.array_equal(left[1], right[1])


class TestEdgeCases:
    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            _run("feynman-tape", DEPOL, 0, ShotSeeds(seed=0))

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            _run("feynman-tape", DEPOL, -3, ShotSeeds(seed=0))

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(1)])
    def test_noise_free_run_ignores_the_rng_flavour(self, rng):
        # Without noise sites nothing is drawn: every rng flavour must give
        # the same block as the seeded per-shot mode.
        seeded = _run("feynman-tape", NoiselessModel(), 6, ShotSeeds(seed=5))
        _assert_blocks_equal(seeded, _run("feynman-tape", NoiselessModel(), 6, rng))

    def test_every_shot_shares_one_pattern(self):
        # p_x = 1: every site errs on every shot, so all 8 shots carry the
        # same full error pattern; every shot must still match its own
        # dense replay.
        compiled = _compiled()
        assert_shots_match_oracle(
            compiled.circuit,
            compiled.input_state,
            GateNoiseModel(PauliChannel(p_x=1.0)),
            ShotSeeds(seed=2),
            8,
        )

    def test_pure_z_noise_matches_the_dense_oracle(self):
        # Phase-flip noise only ever flips signs: no bit changes, yet the
        # signs must match the oracle.
        compiled = _compiled()
        assert_shots_match_oracle(
            compiled.circuit,
            compiled.input_state,
            GateNoiseModel(PauliChannel.phase_flip(0.2)),
            ShotSeeds(seed=9),
            16,
        )

    def test_generator_mode_is_deterministic_per_seed(self):
        first = _run("feynman-tape", DEPOL, 16, np.random.default_rng(8))
        second = _run("feynman-tape", DEPOL, 16, np.random.default_rng(8))
        _assert_blocks_equal(first, second)
        n_paths = _compiled().input_state.num_paths
        assert first[0].shape[0] == 16 * n_paths

    def test_measured_circuit_matches_the_dense_oracle(self):
        # Measurement uniforms are drawn per shot before the site codes;
        # the stacked block must consume them exactly like the reference.
        circuit = QuantumCircuit(num_qubits=2)
        circuit.cx(0, 1)
        cbit = circuit.measure(0, basis="X")
        circuit.cpauli("Z", 1, [cbit])
        circuit.cpauli("X", 0, [cbit])
        state = PathState.register_superposition(2, [0], {0: 0.6, 1: 0.8})
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        assert_shots_match_oracle(circuit, state, noise, ShotSeeds(seed=4), 12)


class TestShardingProperty:
    @given(
        windows=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 50),
        point_index=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_tape_windows_reproduce_the_unsharded_run(
        self, windows, seed, point_index
    ):
        # Any partition of the shot range into ShotSeeds windows, executed
        # window by window, concatenates to the unsharded run.
        shots = sum(windows)
        seeds = ShotSeeds(seed=seed, point_index=point_index)
        whole_bits, whole_amps = _run("feynman-tape", DEPOL, shots, seeds)
        pieces = []
        start = 0
        for width in windows:
            pieces.append(
                _run("feynman-tape", DEPOL, width, seeds.shifted(start))
            )
            start += width
        assert np.array_equal(
            whole_bits, np.concatenate([piece[0] for piece in pieces])
        )
        assert np.array_equal(
            whole_amps, np.concatenate([piece[1] for piece in pieces])
        )


def _reference_shot_fidelities(
    ideal, bits_block, amps_block, *, shots, n_paths, keep_qubits=None
):
    """The historical per-shot dict loop that ``shot_fidelities`` vectorised."""
    num_qubits = ideal.num_qubits
    if keep_qubits is None:
        keep_columns = list(range(num_qubits))
        rest_columns = []
    else:
        keep_columns = list(keep_qubits)
        rest_columns = [
            q for q in range(num_qubits) if q not in set(keep_columns)
        ]
    ideal_keep = _ideal_keep_amplitudes(ideal, keep_columns)
    fidelities = np.zeros(shots)
    for index in range(shots):
        rows = slice(index * n_paths, (index + 1) * n_paths)
        keep_keys = _pack_rows(bits_block[rows], keep_columns)
        rest_keys = _pack_rows(bits_block[rows], rest_columns)
        overlaps: dict[bytes, complex] = {}
        for keep_key, rest_key, amp in zip(
            keep_keys, rest_keys, amps_block[rows]
        ):
            ideal_amp = ideal_keep.get(keep_key)
            if ideal_amp is None:
                continue
            overlaps[rest_key] = (
                overlaps.get(rest_key, 0.0 + 0.0j) + np.conj(ideal_amp) * amp
            )
        fidelities[index] = sum(abs(value) ** 2 for value in overlaps.values())
    return fidelities


class TestVectorisedFidelity:
    @pytest.mark.parametrize("shots", [1, 24])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference_loop_bit_for_bit(self, reduced, shots):
        compiled = _compiled()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        bits, amps = get_engine("feynman-tape").run_noisy_shots(
            compiled.circuit,
            compiled.input_state,
            noise,
            shots,
            rng=ShotSeeds(seed=13),
        )
        keep = list(compiled.kept_qubits) if reduced else None
        n_paths = compiled.input_state.num_paths
        vectorised = shot_fidelities(
            compiled.ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        reference = _reference_shot_fidelities(
            compiled.ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        assert np.array_equal(vectorised, reference)
