"""Sharded sweep execution with deterministic seed-splitting.

Every experiment in the reproduction is a *sweep*: a list of parameter
points, each evaluated by a Monte-Carlo shot loop (Figures 9-12) or by a
deterministic computation (Figure 8, Tables 1-2).  This module decomposes a
sweep into ``(sweep_point, shot_shard)`` work units and executes them either
serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`,
merging shard results back into the existing result dataclasses
(:class:`~repro.sim.feynman.QueryResult`).

Determinism is the design constraint.  Work units carry a
:class:`~repro.sim.seeding.ShotSeeds` window, so every shot's random stream
is a stateless SplitMix64 hash of ``(seed, point_index, shot_index)`` --
never of the shard it landed in or the worker that ran it.  Merged
fidelities are therefore bit-identical for **any** ``workers`` and **any**
``shard_size``, which is what lets CI run the same sweep at ``--workers 1``
and ``--workers 4`` and diff the artefacts byte for byte.

The shard size is therefore free to follow the work.  Unless the caller
fixes it, :meth:`SweepRunner.shard_size_for` sizes each point's units from
its shot count and the worker count: a serial run takes one unit per point,
a pool run about four units per worker per point, and either is clamped to
:data:`MIN_SHARD_SHOTS` .. :data:`MAX_SHARD_SHOTS` shots.  Wide units
amortise the execution engines' per-gate-group dispatch over many shots;
the cap bounds the per-unit working set.

Worker functions must be module-level (picklable by reference) and their
point specs must be picklable values; workers rebuild heavyweight objects
(architectures, routed circuits) from the spec, typically behind a
process-local ``functools.lru_cache``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.sim.feynman import QueryResult
from repro.sim.seeding import ShotSeeds

#: Fewest shots in an automatically sized unit.  Below this the engines'
#: per-gate-group dispatch and the per-unit pickling/IPC cost more than the
#: arithmetic on the shot block.
MIN_SHARD_SHOTS = 32

#: Most shots in an automatically sized unit.  The engines' working set grows
#: with the unit: on the widest built-in scenario (``htree-dual-rail-idle``)
#: 256-shot units peak at ~1.6 MB of traced memory against ~1.2 MB for
#: 32-shot units, so the cap keeps peak memory flat.
MAX_SHARD_SHOTS = 256

#: Environment variable consulted when ``workers`` is not given.  CI sets it
#: to run the whole tier-1 suite under a fixed worker count.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker-count request to a concrete positive integer.

    ``None`` consults ``REPRO_SWEEP_WORKERS`` (default 1, i.e. serial);
    ``0`` means one worker per CPU core.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        workers = int(env) if env else 1
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


def positive_int(text: str) -> int:
    """Parse a shot or shard count option; ``ValueError`` unless ``>= 1``.

    An ``argparse`` ``type=``: the ``ValueError`` becomes a usage error
    (exit status 2) naming the option, not a traceback from deep in a run.
    """
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """Parse a worker-count option; ``ValueError`` unless ``>= 0``.

    The ``argparse`` ``type=`` for ``--workers`` (``0`` means every core,
    see :func:`resolve_workers`).
    """
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def split_shots(shots: int, shard_size: int) -> list[tuple[int, int]]:
    """Split a shot count into ``(start, count)`` shards of ``shard_size``.

    The trailing shard absorbs the remainder.  The decomposition only
    affects scheduling granularity -- per-shot seeding makes the merged
    results independent of it.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(shard_size, shots - start))
        for start in range(0, shots, shard_size)
    ]


@dataclass(frozen=True)
class ShotShard:
    """One ``(sweep_point, shot range)`` work unit of a Monte-Carlo sweep."""

    point_index: int
    shard_index: int
    start: int
    shots: int
    seed: int

    def seeds(self) -> ShotSeeds:
        """The per-shot seed window covering this shard's shot range."""
        return ShotSeeds(seed=self.seed, point_index=self.point_index, start=self.start)


def _plan_shards(
    plan: Sequence[tuple[int, int]], *, seed: int, point_index: int
) -> list[ShotShard]:
    """One point's :class:`ShotShard` units for a :func:`split_shots` plan."""
    return [
        ShotShard(
            point_index=point_index,
            shard_index=shard_index,
            start=start,
            shots=count,
            seed=seed,
        )
        for shard_index, (start, count) in enumerate(plan)
    ]


class SweepRunner:
    """Executes sweep work units serially or across a process pool.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` runs everything in-process (no pool),
        ``0`` uses every CPU core, ``None`` consults the
        ``REPRO_SWEEP_WORKERS`` environment variable (default 1).  The
        worker count never changes results, only wall-clock time.
    shard_size:
        Shots per :class:`ShotShard`.  ``None`` (the default) sizes the units
        of each point from its shot count and the worker count (see
        :meth:`shard_size_for`).  Also purely a scheduling knob: per-shot
        seeding makes merged results bit-identical across shard sizes.
    """

    def __init__(
        self, workers: int | None = None, shard_size: int | None = None
    ) -> None:
        self.workers = resolve_workers(workers)
        if shard_size is not None and shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.shard_size = shard_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepRunner(workers={self.workers}, shard_size={self.shard_size})"

    # ------------------------------------------------------------- execution
    def map_units(self, fn: Callable[..., Any], units: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*unit)`` for every unit, returning results in unit order.

        Serial when ``workers == 1`` or there is at most one unit; otherwise
        the units are distributed over a process pool.  Submission order is
        preserved in the result list, so downstream merging is independent
        of completion order.  A worker exception propagates to the caller.
        """
        if self.workers == 1 or len(units) <= 1:
            return [fn(*unit) for unit in units]
        context = self._pool_context()
        max_workers = min(self.workers, len(units))
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=context) as pool:
            futures = [pool.submit(fn, *unit) for unit in units]
            return [future.result() for future in futures]

    @staticmethod
    def _pool_context():
        """Prefer ``fork`` so workers inherit ``sys.path`` and module state.

        Forked workers see interpreter state a spawned worker would lose:
        ``sys.path`` tweaks (``PYTHONPATH=src`` runs, pytest's rootdir
        insertion -- spawn cannot even unpickle a worker function defined in
        a test module), plus process-global configuration such as the
        default-engine registry.  ``fork`` is also the stdlib default on
        Linux (the platform CI runs), so this adds no risk beyond that
        default; the known caveat is the usual one -- forking a heavily
        multi-threaded parent is unsafe -- which the sweep workloads avoid.
        Platforms without ``fork`` use their default start method, which is
        why specs also carry the engine explicitly instead of relying on
        inherited globals.
        """
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return None

    # ------------------------------------------------------------ sweep APIs
    def map_points(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> list[Any]:
        """Evaluate ``fn(spec)`` per sweep point, in order.

        For deterministic (shot-free) sweeps such as Figure 8 and the
        resource tables: each point is one work unit.
        """
        return self.map_units(fn, [(spec,) for spec in specs])

    def shard_size_for(self, shots: int) -> int:
        """Shots per work unit for a point of ``shots`` shots.

        An explicit ``shard_size`` is returned as given.  Otherwise a serial
        runner takes the whole point as one unit and a pool runner splits it
        into about four units per worker, so the pool can balance load; both
        are clamped to ``MIN_SHARD_SHOTS .. MAX_SHARD_SHOTS``.
        """
        if self.shard_size is not None:
            return self.shard_size
        target = shots if self.workers == 1 else -(-shots // (4 * self.workers))
        return min(MAX_SHARD_SHOTS, max(MIN_SHARD_SHOTS, target))

    def map_shards(
        self,
        fn: Callable[[Any, ShotShard], np.ndarray],
        specs: Sequence[Any],
        *,
        shots: int,
        seed: int,
    ) -> list[QueryResult]:
        """Run a Monte-Carlo sweep and merge shards per point.

        ``fn(spec, shard)`` must return the shard's per-shot fidelity array
        (length ``shard.shots``), drawn under ``shard.seeds()``.  Every point
        gets ``shots`` total shots split by :meth:`shard_size_for`, resolved
        once per call so every point shares one plan; the merged per-point
        arrays are returned as :class:`~repro.sim.feynman.QueryResult`
        instances, concatenated in shot order so the result is invariant
        under workers and shard size.
        """
        plan = split_shots(shots, self.shard_size_for(shots))
        units = [
            (spec, shard)
            for index, spec in enumerate(specs)
            for shard in _plan_shards(plan, seed=seed, point_index=index)
        ]
        outputs = self.map_units(fn, units)

        shards_per_point = len(plan)
        results: list[QueryResult] = []
        for point_index in range(len(specs)):
            block = outputs[
                point_index * shards_per_point : (point_index + 1) * shards_per_point
            ]
            fidelities = np.concatenate([np.asarray(part) for part in block])
            if fidelities.shape[0] != shots:
                raise ValueError(
                    f"point {point_index} merged {fidelities.shape[0]} shot "
                    f"fidelities, expected {shots}; shard workers must return "
                    "one value per shot"
                )
            results.append(QueryResult(fidelities=fidelities, shots=shots))
        return results
