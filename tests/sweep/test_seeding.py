"""Tests for the per-shot seed streams behind deterministic sharding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.seeding import ShotSeeds
from repro.sweep import split_shots


class TestShotSeeds:
    def test_same_coordinates_same_stream(self):
        a = ShotSeeds(seed=7, point_index=3, start=0).generator(5)
        b = ShotSeeds(seed=7, point_index=3, start=0).generator(5)
        assert np.array_equal(a.random(16), b.random(16))

    def test_shifted_window_aliases_absolute_shots(self):
        # Shot 12 reached as start=0/local=12 or start=10/local=2 is the
        # same stream: seeding is keyed on the absolute shot index.
        base = ShotSeeds(seed=11, point_index=0)
        assert np.array_equal(
            base.generator(12).random(8), base.shifted(10).generator(2).random(8)
        )

    def test_distinct_shots_points_and_seeds_differ(self):
        reference = ShotSeeds(seed=1, point_index=0).generator(0).random(8)
        for other in (
            ShotSeeds(seed=1, point_index=0).generator(1),
            ShotSeeds(seed=1, point_index=1).generator(0),
            ShotSeeds(seed=2, point_index=0).generator(0),
        ):
            assert not np.array_equal(reference, other.random(8))

    def test_generators_matches_generator(self):
        seeds = ShotSeeds(seed=5, point_index=2, start=4)
        streams = [seeds.generator(i) for i in range(3)]
        absolute = ShotSeeds(seed=5, point_index=2).generator(6)
        assert np.array_equal(streams[2].random(4), absolute.random(4))

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ShotSeeds(seed=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, point_index=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, start=-2)


class TestSplitShots:
    def test_exact_division(self):
        assert split_shots(8, 4) == [(0, 4), (4, 4)]

    def test_remainder_goes_to_last_shard(self):
        assert split_shots(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_oversized_shard_is_single_unit(self):
        assert split_shots(3, 100) == [(0, 3)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            split_shots(0, 4)
        with pytest.raises(ValueError):
            split_shots(4, 0)

    @given(shots=st.integers(1, 300), shard_size=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, shots, shard_size):
        shards = split_shots(shots, shard_size)
        assert sum(count for _, count in shards) == shots
        position = 0
        for start, count in shards:
            assert start == position and count >= 1
            position += count
