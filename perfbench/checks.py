"""Output checks: properties of the artefacts, never pinned digests.

A digest would have to change with every change of the random-stream
contract; these properties hold across such changes.  Every function
returns a list of problems, empty when the output is correct.  The
program's own record reader decodes ``.rrec`` bytes, so ``src`` must be
importable.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

#: Slack on the [0, 1] fidelity range, for the last bit of a float mean.
FIDELITY_SLACK = 1e-12

FIGURE_ARTEFACTS = ("fig8", "fig9", "fig10", "fig11", "fig12", "table1", "table2")


def fidelity_problems(rows: list[dict], label: str) -> list[str]:
    """Fidelities lie in [0, 1]; a missing (NaN) one needs kept_fraction < 1."""
    problems = []
    for index, row in enumerate(rows):
        if "fidelity" not in row:
            continue
        value = row["fidelity"]
        if value is None or (isinstance(value, float) and math.isnan(value)):
            kept = row.get("kept_fraction")
            if kept is None or not kept < 1.0:
                problems.append(f"{label}[{index}]: NaN fidelity with every shot kept")
        elif not -FIDELITY_SLACK <= value <= 1.0 + FIDELITY_SLACK:
            problems.append(f"{label}[{index}]: fidelity {value} outside [0, 1]")
    return problems


def table_problems(directory: Path, name: str) -> tuple[list[dict], list[str]]:
    """The JSON rows of one artefact, checked against its CSV and Markdown twins."""
    try:
        rows = json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))
        with open(directory / f"{name}.csv", newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.DictReader(handle))
        markdown = (directory / f"{name}.md").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return [], [f"{name}: unreadable artefact: {exc}"]
    problems = []
    if not isinstance(rows, list) or not rows:
        return [], [f"{name}.json: not a non-empty list of records"]
    if len(csv_rows) != len(rows):
        problems.append(f"{name}.csv: {len(csv_rows)} rows, JSON has {len(rows)}")
    table_rows = [line for line in markdown if line.startswith("| ")]
    if len(table_rows) != len(rows) + 2:
        problems.append(f"{name}.md: {len(table_rows) - 2} rows, JSON has {len(rows)}")
    return rows, problems + fidelity_problems(rows, name)


def rrec_problems(path: Path, json_rows: list[dict], expected: int) -> list[str]:
    """The ``.rrec`` file decodes to ``expected`` records equal to the JSON rows."""
    from repro.records import RecordFormatError, read_records

    try:
        records = read_records(path)
    except (OSError, RecordFormatError) as exc:
        return [f"{path.name}: does not decode: {exc}"]
    if len(records) != expected:
        return [f"{path.name}: {len(records)} records, expected {expected}"]
    if [record.json_dict() for record in records] != json_rows:
        return [f"{path.name}: records differ from the JSON result"]
    return []


def scenario_problems(directory: Path, names: list[str]) -> list[str]:
    """Checks of one ``scenario`` invocation's ``--out`` directory."""
    from repro.scenarios import get_scenario

    problems: list[str] = []
    every_row: list[dict] = []
    for name in names:
        expected = len(get_scenario(name).error_reduction_factors)
        stem = f"scenario_{name}"
        rows, found = table_problems(directory, stem)
        problems += found
        problems += rrec_problems(directory / f"{stem}.rrec", rows, expected)
        every_row += rows
    if len(names) > 1:
        problems += rrec_problems(
            directory / "scenario_sweep.rrec", every_row, len(every_row)
        )
    return problems


def figure_problems(directory: Path) -> list[str]:
    """Checks of one ``all --quick`` invocation's ``--out`` directory."""
    problems: list[str] = []
    for name in FIGURE_ARTEFACTS:
        problems += table_problems(directory, name)[1]
    return problems


def identical_trees(first: Path, second: Path) -> list[str]:
    """Every artefact of ``first`` is byte-identical to its twin in ``second``."""
    names = sorted(path.name for path in first.iterdir())
    others = sorted(path.name for path in second.iterdir())
    if names != others:
        return [f"artefact sets differ: {names} vs {others}"]
    return [
        f"{name}: bytes differ between worker counts"
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]


def result_problems(json_body: bytes, rrec_body: bytes, path: Path) -> list[str]:
    """A served result: the JSON records and the ``.rrec`` bytes agree.

    The ``.rrec`` bytes are decoded from ``path``, a new file per call
    (rewriting one path would make the filesystem flush it each time).
    """
    try:
        envelope = json.loads(json_body)
        rows = envelope["data"]["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"result JSON malformed: {exc}"]
    path.write_bytes(rrec_body)
    return rrec_problems(path, rows, len(rows)) + fidelity_problems(rows, "served")
