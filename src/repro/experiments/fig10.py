"""Figure 10: virtual QRAM fidelity vs error-reduction factor (Sec. 7.3).

The base error rate ``eps = 1e-3`` is divided by an error-reduction factor
``eps_r`` swept over 0.1 ... 1000, for QRAM widths ``m = 1 .. 6`` at ``k = 0``.
The left panel uses the phase-flip (Z) channel, the right panel the bit-flip
(X) channel; the fidelity gap between the two panels -- much better behaviour
under Z-biased noise -- is the paper's headline resilience claim, and curves
for larger ``m`` require proportionally larger ``eps_r`` to saturate.

Every ``(width, error, eps_r)`` triple is one scenario point on the
``"phase-flip"`` or ``"bit-flip"`` calibration, run through
:func:`repro.scenarios.run.sweep_points`; the records' ``epsilon`` is the
calibration's rate divided by ``eps_r``.
"""

from __future__ import annotations

from repro.analysis.fidelity import qram_x_fidelity_bound, qram_z_fidelity_bound
from repro.experiments.common import (
    format_table,
    gate_error_rate,
    gate_noise_point,
    resolve_seed,
)

DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
DEFAULT_REDUCTION_FACTORS: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_SHOTS = 1024

#: The report's panels, in order; a panel shows only if its channel ran.
PANELS = (("Z", "left panel: phase flip"), ("X", "right panel: bit flip"))


def run_fig10(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    errors: tuple[str, ...] = ("Z", "X"),
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (error, width, reduction factor) triple."""
    from repro.scenarios.run import sweep_points

    seed_value = resolve_seed(seed)
    grid = [
        (error_name, m, factor)
        for m in widths
        for error_name in errors
        for factor in reduction_factors
    ]
    points = [
        (
            gate_noise_point(
                "fig10", error_name, m, reduction_factors=reduction_factors
            ),
            factor,
        )
        for error_name, m, factor in grid
    ]
    merged = sweep_points(
        points, shots=shots, seed=seed_value, workers=workers, shard_size=shard_size
    )
    records: list[dict[str, object]] = []
    for (error_name, m, factor), result in zip(grid, merged):
        epsilon = gate_error_rate(error_name, factor)
        bound = (
            qram_z_fidelity_bound(epsilon, m)
            if error_name == "Z"
            else qram_x_fidelity_bound(epsilon, m)
        )
        records.append(
            {
                "error": error_name,
                "m": m,
                "k": 0,
                "error_reduction_factor": factor,
                "epsilon": epsilon,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
                "analytic_bound": bound,
            }
        )
    return records


def fig10_report(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    records: list[dict[str, object]] | None = None,
) -> str:
    """Human-readable Figure 10 series (one table per error channel run)."""
    if records is None:
        records = run_fig10(widths, reduction_factors, shots=shots, seed=seed)
    present = {r["error"] for r in records}
    lines = []
    for error_name, panel in PANELS:
        if error_name not in present:
            continue
        lines.append(f"Figure 10 reproduction ({panel})")
        headers = ["eps_r"] + [f"m={m}" for m in widths]
        rows = []
        for factor in reduction_factors:
            row: list[object] = [factor]
            for m in widths:
                entry = next(
                    r
                    for r in records
                    if r["error"] == error_name
                    and r["m"] == m
                    and r["error_reduction_factor"] == factor
                )
                row.append(entry["fidelity"])
            rows.append(row)
        lines.append(format_table(headers, rows))
        lines.append("")
    return "\n".join(lines)
