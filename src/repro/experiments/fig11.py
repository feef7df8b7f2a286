"""Figure 11: fidelity trade-off between the QRAM width m and the SQC width k.

For a fixed total address width ``n = m + k`` the designer can trade physical
QRAM size (``m``) against sequential paging (``k``).  The figure sweeps the
``(m, k)`` plane under single-qubit Z and X error models for error-reduction
factors ``eps_r`` in {1, 10, 100}; the shape to reproduce is that the fidelity
decays *exponentially faster in k* than in m -- paging through the SQC is far
more damaging than growing the router tree, which is the argument for making
the physical QRAM as large as the hardware allows.

Every ``(m, k, error, eps_r)`` point is one scenario point on the
``"phase-flip"`` or ``"bit-flip"`` calibration, run through
:func:`repro.scenarios.run.sweep_points`.
"""

from __future__ import annotations

from repro.analysis.fidelity import virtual_x_fidelity_bound, virtual_z_fidelity_bound
from repro.experiments.common import (
    format_table,
    gate_error_rate,
    gate_noise_point,
    resolve_seed,
)

DEFAULT_QRAM_WIDTHS: tuple[int, ...] = (1, 2, 3, 4)
DEFAULT_SQC_WIDTHS: tuple[int, ...] = (0, 1, 2, 3)
DEFAULT_REDUCTION_FACTORS: tuple[float, ...] = (1.0, 10.0, 100.0)
DEFAULT_SHOTS = 512


def run_fig11(
    qram_widths: tuple[int, ...] = DEFAULT_QRAM_WIDTHS,
    sqc_widths: tuple[int, ...] = DEFAULT_SQC_WIDTHS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    errors: tuple[str, ...] = ("Z", "X"),
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records over the (m, k) plane for each error channel and eps_r."""
    from repro.scenarios.run import sweep_points

    seed_value = resolve_seed(seed)
    grid = [
        (m, k, error_name, factor)
        for m in qram_widths
        for k in sqc_widths
        for error_name in errors
        for factor in reduction_factors
    ]
    points = [
        (
            gate_noise_point(
                "fig11", error_name, m, k, reduction_factors=reduction_factors
            ),
            factor,
        )
        for m, k, error_name, factor in grid
    ]
    merged = sweep_points(
        points, shots=shots, seed=seed_value, workers=workers, shard_size=shard_size
    )
    records: list[dict[str, object]] = []
    for (m, k, error_name, factor), result in zip(grid, merged):
        epsilon = gate_error_rate(error_name, factor)
        bound = (
            virtual_z_fidelity_bound(epsilon, m, k)
            if error_name == "Z"
            else virtual_x_fidelity_bound(epsilon, m, k)
        )
        records.append(
            {
                "error": error_name,
                "m": m,
                "k": k,
                "error_reduction_factor": factor,
                "epsilon": epsilon,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
                "analytic_bound": bound,
            }
        )
    return records


def fig11_report(
    qram_widths: tuple[int, ...] = DEFAULT_QRAM_WIDTHS,
    sqc_widths: tuple[int, ...] = DEFAULT_SQC_WIDTHS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    records: list[dict[str, object]] | None = None,
) -> str:
    """Human-readable Figure 11 grids (one per error channel run and eps_r)."""
    if records is None:
        records = run_fig11(
            qram_widths, sqc_widths, reduction_factors, shots=shots, seed=seed
        )
    present = {r["error"] for r in records}
    lines = []
    for error_name in ("Z", "X"):
        if error_name not in present:
            continue
        for factor in reduction_factors:
            lines.append(
                f"Figure 11 reproduction ({error_name} error, eps_r={factor:g})"
            )
            headers = ["m \\ k"] + [f"k={k}" for k in sqc_widths]
            rows = []
            for m in qram_widths:
                row: list[object] = [m]
                for k in sqc_widths:
                    entry = next(
                        r
                        for r in records
                        if r["error"] == error_name
                        and r["m"] == m
                        and r["k"] == k
                        and r["error_reduction_factor"] == factor
                    )
                    row.append(entry["fidelity"])
                rows.append(row)
            lines.append(format_table(headers, rows))
            lines.append("")
    return "\n".join(lines)


def k_versus_m_decay(
    records: list[dict[str, object]], error: str = "Z", factor: float = 1.0
) -> dict[str, float]:
    """Quantify the claim that fidelity decays faster in k than in m.

    Returns the average fidelity drop per unit increase of ``k`` (at fixed
    ``m``) and per unit increase of ``m`` (at fixed ``k``); the former should
    be the larger of the two.
    """
    subset = [
        r
        for r in records
        if r["error"] == error and r["error_reduction_factor"] == factor
    ]

    def average_drop(axis: str, other: str) -> float:
        drops = []
        other_values = sorted({r[other] for r in subset})
        for other_value in other_values:
            series = sorted(
                (r for r in subset if r[other] == other_value),
                key=lambda r: r[axis],
            )
            for first, second in zip(series, series[1:]):
                drops.append(first["fidelity"] - second["fidelity"])
        return sum(drops) / len(drops) if drops else 0.0

    return {
        "average_drop_per_k": average_drop("k", "m"),
        "average_drop_per_m": average_drop("m", "k"),
    }
