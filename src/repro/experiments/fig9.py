"""Figure 9: query fidelity of Our/BB/SS QRAMs under Z and X errors (Sec. 7.3).

Gate-based Monte-Carlo noise at error rate ``eps = 1e-3``; the fidelity is the
reduced fidelity over the address and bus registers.  The shapes to reproduce:

* virtual QRAM and bucket-brigade decay *polynomially* with the QRAM width
  under Z (phase-flip) errors;
* the virtual QRAM decays much faster (exponentially, following the tree
  size) under X (bit-flip) errors, while the bucket-brigade stays polynomial;
* Select-Swap has no resilience under either channel.

Every ``(width, architecture, error)`` triple is one scenario point at
``eps_r = 1`` on the ``"phase-flip"`` or ``"bit-flip"`` calibration, run
through :func:`repro.scenarios.run.sweep_points`; ``workers``/``shard_size``
change wall-clock time but never the records.
"""

from __future__ import annotations

from repro.experiments.common import (
    format_table,
    gate_error_rate,
    gate_noise_point,
    resolve_seed,
)

DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
DEFAULT_SHOTS = 1024

#: The figure's series labels and the scenario architectures they run.
SCENARIO_ARCHITECTURES = {
    "ours": "virtual",
    "bb": "bucket-brigade",
    "ss": "select-swap",
}


def run_fig9(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    *,
    shots: int = DEFAULT_SHOTS,
    architectures: tuple[str, ...] = ("ours", "bb", "ss"),
    errors: tuple[str, ...] = ("Z", "X"),
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (architecture, error channel, width) triple."""
    from repro.scenarios.run import sweep_points

    seed_value = resolve_seed(seed)
    grid = [
        (name, error_name, m)
        for m in widths
        for name in architectures
        for error_name in errors
    ]
    points = [
        (
            gate_noise_point(
                "fig9", error_name, m, architecture=SCENARIO_ARCHITECTURES[name]
            ),
            1.0,
        )
        for name, error_name, m in grid
    ]
    merged = sweep_points(
        points, shots=shots, seed=seed_value, workers=workers, shard_size=shard_size
    )
    return [
        {
            "architecture": name,
            "error": error_name,
            "m": m,
            "epsilon": gate_error_rate(error_name),
            "shots": shots,
            "fidelity": result.mean_fidelity,
            "std_error": result.std_error,
        }
        for (name, error_name, m), result in zip(grid, merged)
    ]


def fig9_report(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    records: list[dict[str, object]] | None = None,
) -> str:
    """Human-readable Figure 9 series (one column per architecture/error pair)."""
    if records is None:
        records = run_fig9(widths, shots=shots, seed=seed)
    series = sorted({(r["architecture"], r["error"]) for r in records})
    headers = ["m"] + [f"{arch}-{err}" for arch, err in series]
    rows = []
    for m in widths:
        row: list[object] = [m]
        for arch, err in series:
            entry = next(
                r
                for r in records
                if r["m"] == m and r["architecture"] == arch and r["error"] == err
            )
            row.append(entry["fidelity"])
        rows.append(row)
    title = (
        f"Figure 9 reproduction (fidelity vs QRAM width, "
        f"eps={gate_error_rate('Z')}, shots={shots})"
    )
    return title + "\n" + format_table(headers, rows)
