"""Sharded Monte-Carlo sweep execution with deterministic seed-splitting.

Public surface
--------------
* :class:`~repro.sweep.runner.SweepRunner` -- decomposes a sweep into
  ``(sweep_point, shot_shard)`` work units and executes them serially or
  across a process pool; merged results are bit-identical for any worker
  count and shard size.
* :class:`~repro.sweep.runner.ShotShard` -- one work unit, carrying its
  deterministic :class:`~repro.sim.seeding.ShotSeeds` window.
* :func:`~repro.sweep.runner.split_shots` / :func:`~repro.sweep.runner.resolve_workers`
  -- the decomposition and worker-count policies;
  :data:`~repro.sweep.runner.MIN_SHARD_SHOTS` /
  :data:`~repro.sweep.runner.MAX_SHARD_SHOTS` bound the shard size
  :meth:`~repro.sweep.runner.SweepRunner.shard_size_for` picks when the
  caller does not.
* :func:`~repro.sweep.runner.positive_int` /
  :func:`~repro.sweep.runner.non_negative_int` -- ``argparse`` types for the
  shot, shard and worker options of every command line.
* :class:`~repro.sim.seeding.ShotSeeds` -- re-exported per-shot seed streams
  (the contract the execution engines implement).
"""

from repro.sim.seeding import ShotSeeds
from repro.sweep.runner import (
    MAX_SHARD_SHOTS,
    MIN_SHARD_SHOTS,
    WORKERS_ENV_VAR,
    ShotShard,
    SweepRunner,
    non_negative_int,
    positive_int,
    resolve_workers,
    split_shots,
)

__all__ = [
    "MAX_SHARD_SHOTS",
    "MIN_SHARD_SHOTS",
    "WORKERS_ENV_VAR",
    "ShotSeeds",
    "ShotShard",
    "SweepRunner",
    "non_negative_int",
    "positive_int",
    "resolve_workers",
    "split_shots",
]
