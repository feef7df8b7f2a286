"""Tests for the per-shot seed streams behind deterministic sharding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.seeding import ShotSeeds
from repro.sweep import split_shots


class TestShotSeeds:
    def test_same_coordinates_same_stream(self):
        a = ShotSeeds(seed=7, point_index=3, start=0).uniforms(5, 1, 16)
        b = ShotSeeds(seed=7, point_index=3, start=0).uniforms(5, 1, 16)
        assert np.array_equal(a, b)

    def test_shifted_window_aliases_absolute_shots(self):
        # Shot 12 reached as start=0/local=12 or start=10/local=2 is the
        # same stream: seeding is keyed on the absolute shot index.
        base = ShotSeeds(seed=11, point_index=0)
        assert np.array_equal(
            base.uniforms(12, 1, 8), base.shifted(10).uniforms(2, 1, 8)
        )

    def test_distinct_shots_points_and_seeds_differ(self):
        reference = ShotSeeds(seed=1, point_index=0).uniforms(0, 1, 8)
        for other in (
            ShotSeeds(seed=1, point_index=0).uniforms(1, 1, 8),
            ShotSeeds(seed=1, point_index=1).uniforms(0, 1, 8),
            ShotSeeds(seed=2, point_index=0).uniforms(0, 1, 8),
        ):
            assert not np.array_equal(reference, other)

    def test_generators_matches_generator(self):
        seeds = ShotSeeds(seed=5, point_index=2, start=4)
        rows = seeds.uniforms(0, 3, 4)
        absolute = ShotSeeds(seed=5, point_index=2).uniforms(6, 1, 4)
        assert np.array_equal(rows[2], absolute[0])

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ShotSeeds(seed=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, point_index=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, start=-2)

    @pytest.mark.parametrize("field", ["seed", "point_index", "start"])
    def test_float_coordinate_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            ShotSeeds(**{"seed": 0, field: 1.5})

    @pytest.mark.parametrize("field", ["seed", "point_index", "start"])
    def test_bool_coordinate_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            ShotSeeds(**{"seed": 0, field: True})

    @pytest.mark.parametrize("field", ["seed", "point_index", "start"])
    def test_string_coordinate_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            ShotSeeds(**{"seed": 0, field: "7"})

    def test_numpy_integers_normalised_to_int(self):
        seeds = ShotSeeds(seed=np.uint64(7), point_index=np.int32(2), start=np.int8(3))
        assert seeds == ShotSeeds(seed=7, point_index=2, start=3)
        assert {type(v) for v in (seeds.seed, seeds.point_index, seeds.start)} == {int}


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
