"""Shared utilities for the per-table / per-figure experiment runners."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.hardware.devices import DEVICES
from repro.hardware.router import get_default_router
from repro.qram.memory import ClassicalMemory

#: Seed used by every experiment unless the caller overrides it, so that the
#: numbers quoted in EXPERIMENTS.md are reproducible bit-for-bit.
DEFAULT_SEED = 2023

#: Device calibrations carrying the Z- and X-biased gate noise of Figs. 9-11.
ERROR_CALIBRATIONS = {"Z": "phase-flip", "X": "bit-flip"}


def gate_noise_point(
    figure: str,
    error: str,
    m: int,
    k: int = 0,
    *,
    architecture: str = "virtual",
    reduction_factors: tuple[float, ...] = (1.0,),
):
    """The scenario spec of one Figs. 9-11 design under Z or X gate noise.

    The logical circuit runs as built (``mapping="none"``) on the
    ``error`` channel's calibration, so every gate operand errs with
    probability ``1e-3 / eps_r`` in that one Pauli.  The router, unused
    without a mapping, is pinned to the session default up front, as
    :func:`~repro.scenarios.compile.compile_scenario` would pin it on
    every call.
    """
    # Imported here: the scenario layer imports this module.
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name=f"{figure}-{architecture}-{error}-m{m}-k{k}",
        description=f"{figure} {architecture} QRAM under {error} gate noise",
        architecture=architecture,
        qram_width=m,
        sqc_width=k,
        router=get_default_router(),
        device=ERROR_CALIBRATIONS[error],
        error_reduction_factors=reduction_factors,
    )


def gate_error_rate(error: str, factor: float = 1.0) -> float:
    """Per-gate error rate of the ``error`` channel at ``eps_r = factor``."""
    return DEVICES[ERROR_CALIBRATIONS[error]].single_qubit_error / factor


def experiment_rng(seed: int | None = None) -> np.random.Generator:
    """Random generator with the project-wide default seed."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def resolve_seed(seed: int | None = None) -> int:
    """The concrete integer seed an experiment sweep is keyed on.

    The sweep runner derives every shot's random stream from
    ``(seed, point_index, shot_index)``, so it needs the project-wide
    default made explicit rather than a ``None`` passed through.
    """
    return DEFAULT_SEED if seed is None else seed


def random_memory(
    address_width: int, seed: int | None = None, p_one: float = 0.5
) -> ClassicalMemory:
    """Uniformly random memory, the workload used throughout the evaluation."""
    return ClassicalMemory.random(address_width, rng=experiment_rng(seed), p_one=p_one)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, precision: int = 4
) -> str:
    """Render rows as a fixed-width text table (used by benchmarks and examples)."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    rendered = [[fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def records_to_rows(
    records: Iterable[Mapping[str, object]], columns: Sequence[str]
) -> list[list[object]]:
    """Project a list of record dicts onto a column order."""
    return [[record.get(column, "") for column in columns] for record in records]
