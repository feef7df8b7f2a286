"""The seed-splitting guarantee: merged shard results are bit-identical.

This is the property the whole sweep subsystem rests on: for every
registered engine, running a Monte-Carlo query sweep sharded across any
number of workers with any shard size produces fidelities bit-identical to
the serial, unsharded run -- because every shot's random stream is keyed on
``(seed, point_index, shot_index)`` and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import random_memory
from repro.qram import MultiBitQuery, VirtualQRAM
from repro.qram.memory import ClassicalMemory
from repro.sim import (
    GateNoiseModel,
    NoiselessModel,
    PauliChannel,
    ShotSeeds,
    available_engines,
)
from repro.sweep import ShotShard, SweepRunner, split_shots
from tests.conftest import assert_shots_match_oracle

SHOTS = 12
SEED = 21

#: Every registered name and the noise it supports (the dense engine is
#: noiseless-only).  The legacy names alias the tape engine; each is run so a
#: saved ``--engine`` flag keeps its shard invariance.
ENGINE_NOISE = {
    "feynman-interp": GateNoiseModel(PauliChannel.depolarizing(0.02)),
    "feynman-tape": GateNoiseModel(PauliChannel.depolarizing(0.02)),
    "feynman-batch": GateNoiseModel(PauliChannel.depolarizing(0.02)),
    "statevector": NoiselessModel(),
}


def _architecture() -> VirtualQRAM:
    return VirtualQRAM(memory=random_memory(2, SEED), qram_width=2)


def _query_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    (engine_name,) = spec
    architecture = _architecture()
    result = architecture.run_query(
        ENGINE_NOISE[engine_name],
        shard.shots,
        rng=shard.seeds(),
        engine=engine_name,
    )
    return result.fidelities


def _merged(engine_name: str, workers: int, shard_size: int) -> np.ndarray:
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    results = runner.map_shards(_query_shard, [(engine_name,)], shots=SHOTS, seed=SEED)
    return results[0].fidelities


class TestEveryEngineIsShardInvariant:
    def test_registry_is_covered(self):
        # If a new engine is registered, it must be added to this property
        # test (and honour the ShotSeeds contract).
        assert set(ENGINE_NOISE) == set(available_engines())

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_NOISE))
    @pytest.mark.parametrize("shard_size", [1, 5, SHOTS, 64])
    def test_shard_size_invariance_serial(self, engine_name, shard_size):
        reference = _merged(engine_name, workers=1, shard_size=SHOTS)
        assert np.array_equal(
            _merged(engine_name, workers=1, shard_size=shard_size), reference
        )

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_NOISE))
    def test_worker_invariance(self, engine_name):
        reference = _merged(engine_name, workers=1, shard_size=4)
        assert np.array_equal(_merged(engine_name, workers=2, shard_size=4), reference)

    @given(shard_size=st.integers(1, 2 * SHOTS))
    @settings(max_examples=12, deadline=None)
    def test_shard_size_property_tape_engine(self, shard_size):
        reference = _merged("feynman-tape", workers=1, shard_size=SHOTS)
        assert np.array_equal(
            _merged("feynman-tape", workers=1, shard_size=shard_size), reference
        )


class TestAutomaticShardSizeIsInvariant:
    """The shot- and worker-sized units merge to the fixed-size run.

    300 shots split into 256 + 44 serially and into 38-shot units at two
    workers, so both the capped unit and the pool split are exercised.
    """

    AUTO_SHOTS = 300

    def _sweep(self, workers: int, shard_size: int | None) -> list[np.ndarray]:
        runner = SweepRunner(workers=workers, shard_size=shard_size)
        specs = [("feynman-tape",), ("feynman-tape",)]
        results = runner.map_shards(
            _query_shard, specs, shots=self.AUTO_SHOTS, seed=SEED
        )
        return [result.fidelities for result in results]

    @pytest.mark.parametrize(
        ("workers", "units"), [(1, [256, 44]), (2, [38] * 7 + [34])]
    )
    def test_matches_explicit_shard_size(self, workers, units):
        runner = SweepRunner(workers=workers)
        plan = split_shots(self.AUTO_SHOTS, runner.shard_size_for(self.AUTO_SHOTS))
        assert [count for _, count in plan] == units
        reference = self._sweep(workers=1, shard_size=7)
        merged = self._sweep(workers=workers, shard_size=None)
        assert len(merged) == len(reference) == 2
        for got, want in zip(merged, reference):
            assert np.array_equal(got, want)


class TestPointWindowsMatchDenseOracle:
    def test_tape_shots_match_dense_oracle(self):
        architecture = _architecture()
        compiled = architecture.compiled_query()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        assert_shots_match_oracle(
            compiled.circuit,
            compiled.input_state,
            noise,
            ShotSeeds(seed=3, point_index=1),
            8,
        )


class TestHighLevelHelpersAreWorkerInvariant:
    def test_multibit_planes_match_across_runners(self):
        memory = ClassicalMemory.from_values([1, 0, 3, 2], data_width=2)
        query = MultiBitQuery(memory=memory, qram_width=2)
        noise = GateNoiseModel(PauliChannel.phase_flip(0.01))
        serial = query.run_noisy_planes(
            noise, SHOTS, runner=SweepRunner(workers=1, shard_size=2), seed=SEED
        )
        parallel = query.run_noisy_planes(
            noise, SHOTS, runner=SweepRunner(workers=2, shard_size=7), seed=SEED
        )
        assert len(serial) == len(parallel) == memory.data_width
        for got, want in zip(parallel, serial):
            assert np.array_equal(got.fidelities, want.fidelities)
