"""Per-layer metrics computed from the spans of a traced run.

A span's self time is its duration minus the time its child spans cover.
Every ``<layer>.s`` metric is a self time, so self times plus the
untraced remainder add up to the traced wall time; the exceptions are
``experiments.run_<artefact>.s`` (the artefact's whole runner, children
included) and ``sweep.busy_s`` / ``sweep.wall_s`` (whole executor calls).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from common import median

ARTEFACTS = ("fig8", "fig9", "fig10", "fig11", "fig12", "table1", "table2")
ROUTES = ("runs", "jobs", "results", "results_rrec")

#: (name, unit) of every per-layer metric, in report order.
METRICS: list[tuple[str, str]] = [
    ("scenarios.compile.s", "s"),
    ("scenarios.compile.calls", "count"),
    ("scenarios.noise_model.s", "s"),
    ("scenarios.run.s", "s"),
    ("sim.draw.s", "s"),
    ("sim.draw.values", "count"),
    ("sim.exec.s", "s"),
    ("sim.exec.shots", "count"),
    ("sim.fidelity.s", "s"),
    ("sim.fidelity.kept_shots", "count"),
    ("sim.fidelity.kept_ratio", "ratio"),
    ("sweep.self.s", "s"),
    ("sweep.units", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.wall_s", "s"),
    ("sweep.efficiency", "ratio"),
    ("records.encode.s", "s"),
    ("records.merge.s", "s"),
    ("records.written", "count"),
    ("records.bytes", "bytes"),
    *[(f"experiments.run_{name}.s", "s") for name in ARTEFACTS],
    ("experiments.export.s", "s"),
    ("experiments.export.bytes", "bytes"),
    ("cache.get.s", "s"),
    ("cache.get_payload.s", "s"),
    ("cache.get_binary.s", "s"),
    ("cache.contains.s", "s"),
    ("cache.put.s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    *[
        (f"server.route.{route}.{kind}", unit)
        for route in ROUTES
        for kind, unit in (("s", "s"), ("count", "count"))
    ],
    ("server.http.s", "s"),
    ("server.http_overhead_ms", "ms"),
    ("server.job.run_s", "s"),
    ("server.job.wait_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.remainder_s", "s"),
]
UNITS = dict(METRICS)

#: Span name -> the self-time metric it adds to.
SELF_METRIC = {
    "scenarios.compile": "scenarios.compile.s",
    "scenarios.noise_model": "scenarios.noise_model.s",
    "scenarios.run": "scenarios.run.s",
    "sim.draw": "sim.draw.s",
    "sim.exec": "sim.exec.s",
    "sim.fidelity": "sim.fidelity.s",
    "sweep.map_units": "sweep.self.s",
    "records.encode": "records.encode.s",
    "records.merge": "records.merge.s",
    "experiments.export": "experiments.export.s",
    "cache.get": "cache.get.s",
    "cache.get_payload": "cache.get_payload.s",
    "cache.get_binary": "cache.get_binary.s",
    "cache.contains": "cache.contains.s",
    "cache.put": "cache.put.s",
    "server.http": "server.http.s",
    **{f"server.route.{route}": f"server.route.{route}.s" for route in ROUTES},
}


def load(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def with_self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its self time in seconds."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += span["end"] - span["start"]
    return [
        (span, (span["end"] - span["start"] - covered[span["id"]]) / 1e9)
        for span in spans
    ]


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name, _ in METRICS}


def accumulate(spans: list[dict]) -> dict[str, float]:
    """Self times and exact counts of one span set (one invocation or window)."""
    metrics = zero_metrics()
    by_id = {span["id"]: span for span in spans}
    for span, self_s in with_self_times(spans):
        name = span["name"]
        counts = span.get("counts", {})
        if name in SELF_METRIC:
            metrics[SELF_METRIC[name]] += self_s
        duration = (span["end"] - span["start"]) / 1e9
        if name == "scenarios.compile":
            metrics["scenarios.compile.calls"] += 1
        elif name == "sim.draw":
            metrics["sim.draw.values"] += counts.get("values", 0)
        elif name == "sim.exec":
            metrics["sim.exec.shots"] += counts.get("shots", 0)
        elif name == "sim.fidelity":
            metrics["sim.fidelity.kept_shots"] += counts.get("kept", 0)
        elif name == "sweep.map_units":
            metrics["sweep.units"] += counts.get("units", 0)
            metrics["sweep.wall_s"] += duration
            if counts.get("workers") == 1:
                metrics["sweep.busy_s"] += duration
        elif name in ("records.encode", "records.merge"):
            metrics["records.bytes"] += counts.get("bytes", 0)
            metrics["records.written"] += max(0, counts.get("records", 0))
        elif name.startswith("experiments.run_"):
            metrics[f"{name}.s"] += duration
        elif name == "experiments.export":
            metrics["experiments.export.bytes"] += counts.get("bytes", 0)
        elif name.startswith("server.route."):
            route_count = f"{name}.count"
            if route_count in metrics:
                metrics[route_count] += 1
        if name.startswith("cache.") and "hit" in counts:
            parent = by_id.get(span["parent"])
            # Only the outermost lookup of a request counts as a hit or miss.
            if parent is None or not parent["name"].startswith("cache."):
                metrics["cache.hits" if counts["hit"] else "cache.misses"] += 1
    shots = sum(
        span.get("counts", {}).get("shots", 0)
        for span in spans
        if span["name"] == "sim.fidelity"
    )
    if shots:
        metrics["sim.fidelity.kept_ratio"] = metrics["sim.fidelity.kept_shots"] / shots
    workers = max(
        (span.get("counts", {}).get("workers", 1) for span in spans
         if span["name"] == "sweep.map_units"),
        default=1,
    )
    if metrics["sweep.wall_s"]:
        metrics["sweep.efficiency"] = metrics["sweep.busy_s"] / (
            workers * metrics["sweep.wall_s"]
        )
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    if lookups:
        metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups
    return metrics


def self_total(spans: list[dict]) -> float:
    return sum(self_s for _, self_s in with_self_times(spans))


def largest_self_time(metrics: dict[str, float]) -> str:
    """The self-time metric with the largest value."""
    return max(set(SELF_METRIC.values()), key=lambda name: metrics[name])


def server_job_metrics(spans: list[dict]) -> dict[str, float]:
    """Median job run time and queue wait of the job worker's spans."""
    submitted = {
        span["counts"]["job"]: span["start"]
        for span in spans
        if span["name"] == "server.job.submit" and "counts" in span
    }
    waits = [
        (span["start"] - submitted[span["counts"]["job"]]) / 1e6
        for span in spans
        if span["name"] == "server.job.status"
        and span.get("counts", {}).get("status") == "running"
        and span["counts"]["job"] in submitted
    ]
    runs = [
        (span["end"] - span["start"]) / 1e9
        for span in spans
        if span["name"] == "scenarios.run"
    ]
    return {"server.job.run_s": median(runs), "server.job.wait_ms": median(waits)}


def request_handler_times(spans: list[dict]) -> dict[str, float]:
    """Request id -> seconds inside the server's HTTP handler."""
    return {
        span["req"]: (span["end"] - span["start"]) / 1e9
        for span in spans
        if span["name"] == "server.http" and span["req"]
    }
