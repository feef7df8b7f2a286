"""The SplitMix64 shot stream: reference values and statistical quality.

``ShotSeeds.uniforms`` hashes every value of every shot from its coordinates
(see :mod:`repro.sim.seeding`).  These tests pin that arithmetic three ways:
the vectorised finaliser reproduces the published ``splitmix64.c`` output,
``uniforms`` and the chunked draw equal a pure-Python-integer reference bit
for bit over arbitrary coordinates, and fixed-seed samples pass bit-balance,
serial-correlation and chi-square checks.

Every statistical threshold is fixed from sampling theory at five standard
deviations (two-sided; a chance failure probability of about 5.7e-7 per
statistic) and the seeds are fixed, so the checks are deterministic.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PauliChannel, ShotSeeds
from repro.sim import seeding
from repro.sim.seeding import as_shot_seeds, draw_shot_randomness
from tests.conftest import site_table

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
#: Two-sided five-sigma bound for a standard-normal statistic.
Z_BOUND = 5.0


# ------------------------------------------------------- scalar reference
def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _words(value: int) -> list[int]:
    words = [value & MASK]
    while value >> 64:
        value >>= 64
        words.append(value & MASK)
    return words


def _key(seed: int, point_index: int) -> int:
    seed_words = _words(seed)
    key = 0
    for word in [len(seed_words), *seed_words, *_words(point_index)]:
        key = _mix(((key + GAMMA) & MASK) ^ word)
    return key


def _reference_row(seed: int, point_index: int, shot: int, width: int) -> list[float]:
    """Uniforms ``0 .. width - 1`` of absolute ``shot``, one Python int at a time."""
    state = _mix(_key(seed, point_index) ^ ((shot * GAMMA) & MASK))
    return [
        (_mix((state + (i + 1) * GAMMA) & MASK) >> 11) / 2.0**53 for i in range(width)
    ]


# ----------------------------------------------------------- exactness
class TestReferenceValues:
    def test_vectorised_mixer_reproduces_splitmix64_c(self):
        """``splitmix64.c`` seeded with 1234567: its first five outputs."""
        words = np.arange(1, 6, dtype=np.uint64) * np.uint64(GAMMA)
        words += np.uint64(1234567)
        seeding._mix64_inplace(words, np.empty_like(words))
        assert words.tolist() == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_scalar_mixer_reproduces_splitmix64_c(self):
        outputs = [_mix((1234567 + i * GAMMA) & MASK) for i in range(1, 3)]
        assert outputs == [6457827717110365317, 3203168211198807973]
        assert seeding._mix64((1234567 + GAMMA) & MASK) == outputs[0]


_SEEDS = st.one_of(
    st.integers(0, 2**32),
    st.integers(2**64 - 4, 2**64 + 4),
    st.integers(2**127, 2**128 - 1),  # the size of as_shot_seeds(None) entropy
    st.integers(0, 2**200),
)


class TestUniformsMatchScalarReference:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=_SEEDS,
        point_index=st.integers(0, 2**70),
        start=st.one_of(st.integers(0, 10**6), st.integers(2**64 - 8, 2**64 + 8)),
        local_start=st.integers(0, 40),
        count=st.integers(1, 6),
        width=st.integers(0, 12),
    )
    def test_uniforms_equal_reference(
        self, seed, point_index, start, local_start, count, width
    ):
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        got = seeds.uniforms(local_start, count, width)
        expected = [
            _reference_row(seed, point_index, start + local_start + row, width)
            for row in range(count)
        ]
        assert got.shape == (count, width)
        assert got.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        point_index=st.integers(0, 2**70),
        start=st.integers(0, 10**6),
        shots=st.integers(1, 9),
        width=st.integers(1, 20),
        chunk_values=st.integers(1, 64),
    )
    def test_chunked_draw_equals_reference(
        self, seed, point_index, start, shots, width, chunk_values
    ):
        """Any chunking of the shot range reads every shot's own row."""
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        with mock.patch.object(seeding, "_DRAW_CHUNK_VALUES", chunk_values):
            _, uniforms = draw_shot_randomness(None, seeds, shots, width)
        expected = [
            _reference_row(seed, point_index, start + shot, width)
            for shot in range(shots)
        ]
        assert uniforms.T.tolist() == expected

    def test_os_entropy_seed_matches_reference(self):
        seeds = as_shot_seeds(None)
        assert seeds.seed < 2**128
        assert seeds.uniforms(3, 2, 5).tolist() == [
            _reference_row(seeds.seed, 0, shot, 5) for shot in (3, 4)
        ]


class TestSeedBits:
    @pytest.mark.parametrize("low", [0, 1, 12345, 2**64 - 1])
    @pytest.mark.parametrize("high", [1, 2, 2**63, 2**64, 2**200])
    def test_bits_above_64_change_the_stream(self, low, high):
        base = ShotSeeds(seed=low).uniforms(0, 4, 8)
        other = ShotSeeds(seed=low + (high << 64)).uniforms(0, 4, 8)
        assert not np.any(base == other)

    def test_seed_words_and_point_index_do_not_alias(self):
        """``(seed words, point)`` never re-splits into another coordinate."""
        a = ShotSeeds(seed=5 + (7 << 64), point_index=0).uniforms(0, 1, 8)
        b = ShotSeeds(seed=5, point_index=7).uniforms(0, 1, 8)
        assert not np.any(a == b)


# ---------------------------------------------------------- statistics
SHOTS = 1024
WIDTH = 256


def _block(seed: int = 1, point_index: int = 0) -> np.ndarray:
    return ShotSeeds(seed=seed, point_index=point_index).uniforms(0, SHOTS, WIDTH)


def _correlation_z(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of paired samples, scaled to a standard normal.

    Under independence ``r * sqrt(n)`` is asymptotically standard normal.
    """
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    r = float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))
    return r * math.sqrt(a.size)


#: Two-sided tail probability of five standard deviations.
_FIVE_SIGMA_TAIL = math.erfc(Z_BOUND / math.sqrt(2))


def _chi_square_3_dof_survival(x: float) -> float:
    """``P(X > x)`` for a chi-square variable with three degrees of freedom."""
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


class TestStatistics:
    def test_mantissa_bit_balance(self):
        """Each of the 53 bits of ``u * 2**53`` is one half of the time."""
        values = (_block() * 2.0**53).astype(np.uint64).ravel()
        n = values.size
        for bit in range(53):
            ones = int(np.count_nonzero((values >> np.uint64(bit)) & np.uint64(1)))
            z = (ones - n / 2) / math.sqrt(n / 4)
            assert abs(z) < Z_BOUND, (bit, z)

    def test_adjacent_shots_uncorrelated(self):
        block = _block()
        assert abs(_correlation_z(block[:-1], block[1:])) < Z_BOUND

    def test_adjacent_sites_uncorrelated(self):
        block = _block()
        assert abs(_correlation_z(block[:, :-1], block[:, 1:])) < Z_BOUND

    def test_shifted_rows_uncorrelated(self):
        """Value ``i + 1`` of a shot against value ``i`` of the next shot.

        Unmixed shot states ``key + s * phi`` would make these equal: shot
        ``s + 1``'s row would be shot ``s``'s row shifted by one value.
        """
        block = _block()
        assert abs(_correlation_z(block[:-1, 1:], block[1:, :-1])) < Z_BOUND

    def test_adjacent_points_uncorrelated(self):
        blocks = [_block(point_index=point) for point in range(4)]
        for left, right in zip(blocks, blocks[1:]):
            assert abs(_correlation_z(left, right)) < Z_BOUND

    def test_adjacent_seeds_uncorrelated(self):
        blocks = [_block(seed=seed) for seed in range(4)]
        for left, right in zip(blocks, blocks[1:]):
            assert abs(_correlation_z(left, right)) < Z_BOUND

    def test_pauli_codes_follow_a_biased_channel(self):
        """Chi-square of drawn codes against ``(1 - p, p_x, p_y, p_z)``."""
        channel = PauliChannel(p_x=0.01, p_y=0.02, p_z=0.2)
        codes, _ = draw_shot_randomness(
            site_table([channel] * WIDTH), ShotSeeds(seed=3), SHOTS
        )
        observed = np.bincount(codes.ravel(), minlength=4)
        probabilities = np.array(
            [1 - channel.p_total, channel.p_x, channel.p_y, channel.p_z]
        )
        expected = probabilities * codes.size
        chi_square = float(np.sum((observed - expected) ** 2 / expected))
        assert _chi_square_3_dof_survival(chi_square) > _FIVE_SIGMA_TAIL

