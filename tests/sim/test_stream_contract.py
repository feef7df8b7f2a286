"""The single random-stream contract: every noisy run draws through ``ShotSeeds``.

Whatever ``rng`` a caller passes -- an int seed, a NumPy integer, a
``Generator``, ``None`` or a ``ShotSeeds`` window -- the Feynman engines
resolve it with :func:`~repro.sim.seeding.as_shot_seeds` and draw every
shot's randomness through :func:`~repro.sim.seeding.draw_shot_randomness`.
These tests pin the resolver, the public entry points that accept ``rng``,
and two independent references for the draw: ``sample_noisy_circuit`` fed the
shot's own generator inserts exactly the Paulis the engines apply, and the
chunked block draw equals a per-shot loop of sequential per-site
``sample_thresholded`` draws.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import compile_circuit
from repro.qram import VirtualQRAM
from repro.sim import (
    GateNoiseModel,
    PathState,
    PauliChannel,
    ShotSeeds,
    get_engine,
    query_fidelities,
    sample_noisy_circuit,
)
from repro.sim.noise import PAULI_I, ScheduledNoiseModel
from repro.sim import seeding
from repro.sim.seeding import as_shot_seeds, draw_shot_randomness
from tests.conftest import gate_noise_models, random_reversible_circuits, site_table

NOISE = GateNoiseModel(PauliChannel.depolarizing(0.05))
_PAULI_CODES = {"X": 1, "Y": 2, "Z": 3}


@pytest.fixture
def qram(small_memory) -> VirtualQRAM:
    return VirtualQRAM(memory=small_memory, qram_width=2)


def _run_noisy(qram: VirtualQRAM, shots: int, rng, engine: str = "feynman-tape"):
    compiled = qram.compiled_query()
    return get_engine(engine).run_noisy_shots(
        compiled.circuit, compiled.input_state, NOISE, shots, rng=rng
    )


def _accepted_rngs():
    """One value of every ``rng`` flavour the public entry points accept."""
    return [
        7,
        np.int64(7),
        np.random.default_rng(7),
        None,
        ShotSeeds(seed=7, point_index=1, start=3),
    ]


class TestAsShotSeeds:
    def test_window_passes_through(self):
        seeds = ShotSeeds(seed=4, point_index=2, start=9)
        assert as_shot_seeds(seeds) is seeds

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(11)])
    def test_integers_seed_the_window(self, seed):
        assert as_shot_seeds(seed) == ShotSeeds(seed=int(seed))

    def test_generator_contributes_one_seed(self):
        generator = np.random.default_rng(5)
        expected = int(np.random.default_rng(5).integers(2**63))
        assert as_shot_seeds(generator) == ShotSeeds(seed=expected)

    def test_none_draws_fresh_entropy(self):
        assert as_shot_seeds(None) != as_shot_seeds(None)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_shot_seeds(-1)

    @pytest.mark.parametrize("bad", [1.5, "7", [7]])
    def test_other_types_rejected(self, bad):
        with pytest.raises(TypeError):
            as_shot_seeds(bad)


class TestEveryRngFlavourAccepted:
    @pytest.mark.parametrize("rng", _accepted_rngs())
    @pytest.mark.parametrize("engine", ["feynman-tape", "feynman-interp"])
    def test_run_noisy_shots(self, qram, rng, engine):
        bits, amps = _run_noisy(qram, 6, rng, engine)
        assert bits.shape[0] == amps.shape[0] == 6 * 8

    @pytest.mark.parametrize("rng", _accepted_rngs())
    def test_run_noisy_shots_recorded(self, qram, rng):
        compiled = qram.compiled_query()
        bits, _, outcomes = get_engine().run_noisy_shots_recorded(
            compiled.circuit, compiled.input_state, NOISE, 6, rng=rng
        )
        assert bits.shape[0] == 6 * 8
        assert outcomes is None

    @pytest.mark.parametrize("rng", _accepted_rngs())
    def test_query_fidelities(self, qram, rng):
        compiled = qram.compiled_query()
        result = query_fidelities(
            compiled.circuit, compiled.input_state, NOISE, 6, rng=rng
        )
        assert result.shots == 6
        assert np.all((result.fidelities >= 0.0) & (result.fidelities <= 1.0 + 1e-12))

    @pytest.mark.parametrize("rng", _accepted_rngs())
    def test_run_query(self, qram, rng):
        result = qram.run_query(NOISE, shots=6, rng=rng)
        assert result.fidelities.shape == (6,)


class TestIntSeedIsAShotSeedsWindow:
    def test_run_query(self, qram):
        by_int = qram.run_query(NOISE, shots=24, rng=7).fidelities
        by_seeds = qram.run_query(NOISE, shots=24, rng=ShotSeeds(seed=7)).fidelities
        assert np.array_equal(by_int, by_seeds)

    @pytest.mark.parametrize("engine", ["feynman-tape", "feynman-interp"])
    def test_run_noisy_shots(self, qram, engine):
        by_int = _run_noisy(qram, 24, 7, engine)
        by_numpy_int = _run_noisy(qram, 24, np.int64(7), engine)
        by_seeds = _run_noisy(qram, 24, ShotSeeds(seed=7), engine)
        for other in (by_numpy_int, by_seeds):
            assert np.array_equal(by_int[0], other[0])
            assert np.array_equal(by_int[1], other[1])

    def test_int_seed_is_prefix_invariant(self, qram):
        """The first 4 of 10 shots are the 4-shot run: shots never share a stream."""
        ten = qram.run_query(NOISE, shots=10, rng=7).fidelities
        four = qram.run_query(NOISE, shots=4, rng=7).fidelities
        assert np.array_equal(ten[:4], four)
        bits_ten, amps_ten = _run_noisy(qram, 10, 7)
        bits_four, amps_four = _run_noisy(qram, 4, 7)
        assert np.array_equal(bits_ten[: 4 * 8], bits_four)
        assert np.array_equal(amps_ten[: 4 * 8], amps_four)


class TestGeneratorStreams:
    def test_shared_generator_gives_independent_calls(self, qram):
        """Calls sharing a generator differ; equal generator states agree."""
        generator = np.random.default_rng(3)
        first = qram.run_query(NOISE, shots=64, rng=generator).fidelities
        second = qram.run_query(NOISE, shots=64, rng=generator).fidelities
        assert not np.array_equal(first, second)
        again = qram.run_query(NOISE, shots=64, rng=np.random.default_rng(3))
        assert np.array_equal(first, again.fidelities)

    def test_generator_matches_the_window_it_resolves_to(self, qram):
        seeds = as_shot_seeds(np.random.default_rng(3))
        by_generator = qram.run_query(
            NOISE, shots=16, rng=np.random.default_rng(3)
        ).fidelities
        by_seeds = qram.run_query(NOISE, shots=16, rng=seeds).fidelities
        assert np.array_equal(by_generator, by_seeds)


@st.composite
def _layered_noise(draw, circuit):
    """A gate-noise model plus extra per-gate and final sites, some trivial.

    Extra sites sit on one of the gate's own operands and draw their
    channel from a pool holding a trivial channel, so both the engine's site
    table and ``sample_noisy_circuit`` must skip it without consuming a
    draw.
    """
    base = draw(gate_noise_models())
    pool = st.sampled_from(
        [PauliChannel(), PauliChannel(p_z=0.3), PauliChannel(p_x=0.2, p_y=0.2)]
    )
    gate_sites = []
    for instr in circuit.instructions:
        if instr.is_barrier:
            continue
        operand = st.sampled_from(instr.qubits)
        gate_sites.append(tuple(draw(st.lists(st.tuples(operand, pool), max_size=2))))
    qubits = st.integers(0, circuit.num_qubits - 1)
    final = draw(st.lists(st.tuples(qubits, pool), max_size=3))
    return ScheduledNoiseModel(
        base=base, gate_sites=tuple(gate_sites), final_sites=tuple(final)
    )


class TestSampledCircuitReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_insertions_equal_the_engines_draw(self, data):
        """Shot ``s``'s sampled insertions are column ``s`` of the engines' draw."""
        circuit = data.draw(random_reversible_circuits(max_qubits=5, max_gates=14))
        noise = data.draw(_layered_noise(circuit))
        seeds = ShotSeeds(seed=data.draw(st.integers(0, 2**31 - 1)), start=5)
        shots = 6
        tape = compile_circuit(circuit)
        sites = tape.noise_sites(noise)
        codes, _ = draw_shot_randomness(sites, seeds, shots)
        last_gate = tape.num_gates - 1
        state = PathState.register_superposition(
            circuit.num_qubits, list(range(min(3, circuit.num_qubits)))
        )
        bits, amps = get_engine("feynman-tape").run_noisy_shots(
            circuit, state, noise, shots, rng=seeds
        )
        n_paths = state.num_paths
        for shot in range(shots):
            expected = [
                (int(gate) if gate >= 0 else last_gate, int(qubit), int(code))
                for gate, qubit, code in zip(
                    sites.gate_index, sites.qubit, codes[:, shot]
                )
                if code != PAULI_I
            ]
            noisy = sample_noisy_circuit(circuit, noise, seeds.generator(shot))
            inserted = []
            gate = -1
            for instr in noisy.instructions:
                if "noise" in instr.tags:
                    inserted.append((gate, instr.qubits[0], _PAULI_CODES[instr.gate]))
                elif not instr.is_barrier:
                    gate += 1
            assert inserted == expected
            # The sampled circuit, run noiselessly, is the engine's shot.
            replay = get_engine().run(noisy, state)
            block = slice(shot * n_paths, (shot + 1) * n_paths)
            assert np.array_equal(replay.bits, bits[block])
            assert np.allclose(replay.amplitudes, amps[block], rtol=0, atol=1e-12)


# ------------------------------------------------------------- block draw
#: Channels the block draw must map exactly: trivial and certain
#: (``p_total`` of 0 and 1), single-Pauli and depolarizing.
_CHANNEL_POOL = [
    PauliChannel(),
    PauliChannel(p_y=1.0),
    PauliChannel(p_x=0.3, p_y=0.3, p_z=0.4),
    PauliChannel.phase_flip(0.2),
    PauliChannel.bit_flip(0.05),
    PauliChannel(p_y=0.15),
    PauliChannel.depolarizing(0.3),
    PauliChannel.depolarizing(1e-3),
]


def _reference_draw(channels, seeds: ShotSeeds, shots: int, n_measurements: int):
    """Per-shot, per-site sequential draw: the contract the block draw keeps."""
    codes = np.empty((len(channels), shots), dtype=np.int64)
    uniforms = np.empty((n_measurements, shots))
    for shot in range(shots):
        generator = seeds.generator(shot)
        uniforms[:, shot] = generator.random(n_measurements)
        for site, channel in enumerate(channels):
            codes[site, shot] = channel.sample_thresholded(generator, 1)[0]
    return codes, uniforms


@st.composite
def _channel_runs(draw):
    """Channels as runs of equal channels, including runs of length one."""
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(_CHANNEL_POOL), st.integers(1, 6)),
            max_size=8,
        )
    )
    return [channel for channel, length in runs for _ in range(length)]


def _cumulative(channel: PauliChannel) -> np.ndarray:
    """The ``(I, X, Y)`` thresholds exactly as ``sample_thresholded`` forms them."""
    return np.array(
        [
            1.0 - channel.p_total,
            1.0 - channel.p_total + channel.p_x,
            1.0 - channel.p_total + channel.p_x + channel.p_y,
        ]
    )


class _FixedUniforms:
    """Generator stand-in handing out a fixed sequence of uniforms in order."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._cursor = 0

    def random(self, size=None, out=None):
        count = out.shape[0] if out is not None else size
        values = self._values[self._cursor : self._cursor + count]
        self._cursor += count
        if out is None:
            return values.copy()
        out[:] = values
        return out


class TestBlockDrawEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        channels=_channel_runs(),
        n_measurements=st.integers(0, 3),
        seed=st.integers(0, 2**32),
        point_index=st.integers(0, 5),
        start=st.integers(0, 10**6),
        shots=st.integers(1, 9),
        chunk_values=st.integers(1, 64),
    )
    def test_block_draw_equals_per_shot_reference(
        self, channels, n_measurements, seed, point_index, start, shots, chunk_values
    ):
        """Every chunking of the shot range equals the sequential draw.

        ``chunk_values`` below the row width makes every chunk a single
        shot; larger values split the shots over several chunks.
        """
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        with mock.patch.object(seeding, "_DRAW_CHUNK_VALUES", chunk_values):
            codes, uniforms = draw_shot_randomness(
                site_table(channels), seeds, shots, n_measurements
            )
        expected_codes, expected_uniforms = _reference_draw(
            channels, seeds, shots, n_measurements
        )
        assert codes.shape == expected_codes.shape
        assert np.array_equal(codes, expected_codes)
        if n_measurements:
            assert np.array_equal(uniforms, expected_uniforms)
        else:
            assert uniforms is None

    def test_many_chunks_at_the_default_chunk_size(self):
        channels = [PauliChannel.depolarizing(0.4)] * 1500
        seeds = ShotSeeds(seed=11, start=3)
        assert seeding._DRAW_CHUNK_VALUES // 1502 < 70
        codes, uniforms = draw_shot_randomness(site_table(channels), seeds, 70, 2)
        expected_codes, expected_uniforms = _reference_draw(channels, seeds, 70, 2)
        assert np.array_equal(codes, expected_codes)
        assert np.array_equal(uniforms, expected_uniforms)

    def test_row_wider_than_a_chunk_draws_one_shot_per_chunk(self):
        width = seeding._DRAW_CHUNK_VALUES + 5
        channels = [PauliChannel.phase_flip(0.5)] * (width - 1)
        seeds = ShotSeeds(seed=4)
        codes, uniforms = draw_shot_randomness(site_table(channels), seeds, 3, 1)
        for shot in range(3):
            row = seeds.generator(shot).random(width)
            assert uniforms[0, shot] == row[0]
            assert np.array_equal(codes[:, shot], np.where(row[1:] >= 0.5, 3, 0))

    def test_uniform_on_a_threshold_maps_like_searchsorted_right(self):
        """A uniform equal to a threshold takes the upper code, as searchsorted."""
        channels, values = [], []
        for channel in _CHANNEL_POOL:
            for threshold in _cumulative(channel):
                for value in (threshold, np.nextafter(threshold, -np.inf)):
                    channels.append(channel)
                    values.append(value)
        sites = site_table(channels)
        with mock.patch.object(
            ShotSeeds, "generator", lambda self, shot: _FixedUniforms([0.5] + values)
        ):
            codes, _ = draw_shot_randomness(sites, ShotSeeds(seed=0), 1, 1)
        for site, (channel, value) in enumerate(zip(channels, values)):
            expected = np.searchsorted(_cumulative(channel), value, side="right")
            assert codes[site, 0] == expected
            sampled = channel.sample_thresholded(_FixedUniforms([value]), 1)[0]
            assert sampled == expected


class TestShotStreamsBuilt:
    @staticmethod
    def _counting(monkeypatch) -> list[int]:
        calls: list[int] = []
        original = ShotSeeds.generator

        def generator(self, local_shot):
            calls.append(local_shot)
            return original(self, local_shot)

        monkeypatch.setattr(ShotSeeds, "generator", generator)
        return calls

    def test_empty_table_without_measurements_builds_no_stream(self, monkeypatch):
        calls = self._counting(monkeypatch)
        codes, uniforms = draw_shot_randomness(
            site_table([]), ShotSeeds(seed=1), 1000
        )
        assert codes.shape == (0, 1000)
        assert uniforms is None
        assert calls == []

    @pytest.mark.parametrize(
        "channels, n_measurements",
        [([], 2), ([PauliChannel.bit_flip(0.1)], 0), ([PauliChannel()] * 40, 3)],
    )
    def test_one_stream_per_shot_when_drawing(
        self, monkeypatch, channels, n_measurements
    ):
        calls = self._counting(monkeypatch)
        draw_shot_randomness(
            site_table(channels), ShotSeeds(seed=1), 12, n_measurements
        )
        assert calls == list(range(12))
