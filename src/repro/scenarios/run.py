"""Execute compiled scenarios through the sharded sweep runner.

One scenario run is a Monte-Carlo sweep over the spec's error-reduction
grid: :func:`sweep_points` sends each ``(spec, eps_r, shot shard)`` work
unit through :class:`repro.sweep.SweepRunner`, draws its Pauli codes from
the shard's :class:`~repro.sim.seeding.ShotSeeds` window and returns
per-shot fidelities, so merged records are bit-identical for any worker
count and shard size.  The paper's Monte-Carlo figures (Figs. 9-12) are
grids of such points and run through the same function.  The worker
rebuilds the (process-cached) compiled scenario from the pickled spec, so
pools work under both ``fork`` and ``spawn`` start methods for registered
and ad-hoc specs alike.

Because of that determinism, a run is a pure function of
``(spec, seed, shots, engine, router)`` -- so :func:`run_scenario` first
resolves the session-default engine and router into concrete names (stamped
into every :class:`~repro.scenarios.record.ScenarioRecord`), derives the
run's content address (:func:`repro.cache.run_fingerprint`), and consults
the result cache when one is configured: a warm hit returns the stored
records without touching an engine or consuming any randomness, provably
bit-identical to the fresh run it replaces.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.experiments.common import format_table, resolve_seed
from repro.hardware.router import get_default_router
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.record import ScenarioRecord
from repro.scenarios.spec import ScenarioSpec, get_scenario
from repro.sim.engine import get_default_engine
from repro.sim.feynman import FeynmanPathSimulator, QueryResult
from repro.sweep import ShotShard, SweepRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache


def _scenario_shard(spec_bundle: tuple, shard: ShotShard) -> np.ndarray:
    """Per-shard fidelities of one ``(scenario, eps_r)`` sweep point."""
    spec, factor, seed, engine = spec_bundle
    compiled = compile_scenario(spec, seed)
    result = FeynmanPathSimulator(engine=engine).query_fidelities(
        compiled.circuit,
        compiled.input_state,
        compiled.noise_model(factor),
        shard.shots,
        keep_qubits=list(compiled.keep_qubits),
        ideal_output=compiled.ideal_output,
        rng=shard.seeds(),
        postselect=compiled.postselect or None,
    )
    # Readout error is one closed-form survival factor per shot (no random
    # stream consumed), so folding it here keeps sharding bit-identical.
    # Postselection-rejected shots are NaN and stay NaN through the
    # multiplication, so shard concatenation keeps them countable.
    survival = compiled.readout_survival(factor)
    if survival != 1.0:
        return result.fidelities * survival
    return result.fidelities


def sweep_points(
    points: Sequence[tuple[ScenarioSpec, float]],
    *,
    shots: int,
    seed: int,
    engine: str | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[QueryResult]:
    """Run ``(spec, eps_r)`` sweep points as one sharded sweep.

    Every point gets ``shots`` shots; its streams are keyed on
    ``(seed, position in points, shot)``, so the merged per-point results
    are bit-identical for any ``workers`` and ``shard_size``, and a caller
    that keeps its grid order keeps its numbers.  ``engine`` defaults to
    the session default.  Scenario runs and the paper's Monte-Carlo figures
    (Figs. 9-12) both execute here.
    """
    engine_name = get_default_engine() if engine is None else engine
    bundles = [(spec, factor, seed, engine_name) for spec, factor in points]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    return runner.map_shards(_scenario_shard, bundles, shots=shots, seed=seed)


def _point_record(
    compiled: CompiledScenario,
    factor: float,
    shots: int,
    engine: str,
    fidelity: float,
    std_error: float,
    kept_fraction: float,
) -> ScenarioRecord:
    """One sweep point as a typed record (resolved names come off the spec)."""
    spec = compiled.spec
    return ScenarioRecord(
        scenario=spec.name,
        architecture=spec.architecture,
        m=spec.qram_width,
        k=spec.sqc_width,
        mapping=spec.mapping,
        routing=spec.routing if spec.mapping == "htree" else (
            "swap" if spec.mapping == "device" else "-"
        ),
        # The resolved router is stamped even where the mapping never
        # invokes it: records (and the cache fingerprint built from the same
        # resolved spec) must be self-describing, never "whatever the
        # session default happened to be".
        router=spec.router,
        device=compiled.device.name,
        num_qubits=compiled.circuit.num_qubits,
        logical_gates=compiled.logical_gates,
        executed_gates=compiled.executed_gates,
        extra_swaps=compiled.extra_swaps,
        link_operations=compiled.link_operations,
        measurements=compiled.measurements,
        logical_depth=compiled.logical_depth,
        executed_depth=compiled.executed_depth,
        idle_error=compiled.idle_error_rate,
        readout_error=compiled.readout_error_rate,
        error_reduction_factor=factor,
        shots=shots,
        engine=engine,
        fidelity=fidelity,
        std_error=std_error,
        kept_fraction=kept_fraction,
    )


def resolve_run(
    scenario: str | ScenarioSpec,
    *,
    shots: int | None = None,
    seed: int | None = None,
    engine: str | None = None,
) -> tuple[ScenarioSpec, int, int, str, str]:
    """Pin every defaulted run input and derive the run's content address.

    Returns ``(spec, seed, shots, engine, fingerprint)`` with the spec's
    router resolved to a concrete registered name and the engine resolved to
    a concrete registry entry -- the exact inputs the sweep executes, the
    records describe and the cache keys on.
    """
    # Imported lazily: repro.cache serializes the spec/record schema defined
    # here, so a module-level import would be circular.
    from repro.cache.fingerprint import run_fingerprint

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.router is None:
        # Resolve the session-default router here, like the engine: the spec
        # is pickled into pool workers, and a spawned worker's module-global
        # default would silently fall back to the greedy router.
        spec = replace(spec, router=get_default_router())
    seed_value = resolve_seed(seed)
    engine_name = get_default_engine() if engine is None else engine
    shot_count = spec.shots if shots is None else shots
    fingerprint = run_fingerprint(
        spec, seed=seed_value, shots=shot_count, engine=engine_name
    )
    return spec, seed_value, shot_count, engine_name, fingerprint


def run_scenario(
    scenario: str | ScenarioSpec,
    *,
    shots: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
    engine: str | None = None,
    cache: ResultCache | bool | str | None = None,
) -> list[ScenarioRecord]:
    """Run one scenario's full sweep and return one record per sweep point.

    ``scenario`` is a registered name or an ad-hoc :class:`ScenarioSpec`.
    ``shots`` defaults to the spec's; ``seed`` to the project-wide default;
    ``engine`` to the session default.  Records are bit-identical across
    ``workers`` and ``shard_size``.

    ``cache`` selects the content-addressed result cache
    (see :func:`repro.cache.store.resolve_cache`): ``None`` uses
    ``$REPRO_CACHE_DIR`` when set, ``True``/``False`` force it on/off, and a
    path or :class:`~repro.cache.store.ResultCache` names one explicitly.  A
    warm hit returns the cached records directly -- no compilation, no
    engine execution, no randomness consumed.
    """
    from repro.cache.store import resolve_cache

    spec, seed_value, shot_count, engine_name, fingerprint = resolve_run(
        scenario, shots=shots, seed=seed, engine=engine
    )
    store = resolve_cache(cache)
    if store is not None:
        cached = store.get(fingerprint)
        if cached is not None:
            return cached
    merged = sweep_points(
        [(spec, factor) for factor in spec.error_reduction_factors],
        shots=shot_count,
        seed=seed_value,
        engine=engine_name,
        workers=workers,
        shard_size=shard_size,
    )
    compiled = compile_scenario(spec, seed_value)
    records = [
        _point_record(
            compiled,
            factor,
            shot_count,
            engine_name,
            result.mean_fidelity,
            result.std_error,
            result.kept_fraction,
        )
        for factor, result in zip(spec.error_reduction_factors, merged)
    ]
    if store is not None:
        store.put(fingerprint, records)
    return records


def scenario_report(
    scenario: str | ScenarioSpec,
    records: list[ScenarioRecord],
) -> str:
    """Human-readable summary of one scenario's sweep records."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    first = records[0]
    header = (
        f"Scenario '{spec.name}': {spec.description}\n"
        f"  architecture={spec.architecture} m={spec.qram_width} "
        f"k={spec.sqc_width} mapping={spec.mapping} routing={first['routing']} "
        f"router={first['router']} device={first['device']}\n"
        f"  qubits={first['num_qubits']} gates={first['executed_gates']} "
        f"(logical {first['logical_gates']}) "
        f"depth={first['executed_depth']} (logical {first['logical_depth']}) "
        f"extra_swaps={first['extra_swaps']} "
        f"link_ops={first['link_operations']} "
        f"measurements={first['measurements']} "
        f"idle_error={first['idle_error']} "
        f"readout_error={first['readout_error']}\n"
        f"  shots={first['shots']} engine={first['engine']}"
    )
    columns = ["error_reduction_factor", "fidelity", "std_error", "kept_fraction"]
    rows = [[record[column] for column in columns] for record in records]
    return header + "\n" + format_table(
        ["eps_r", "fidelity", "std_error", "kept_fraction"], rows
    )
