"""In-memory span recorder and the layer-boundary wrappers of the traced run.

Runs inside the program process, started by ``launch.py``: :func:`install`
wraps the public function at each layer boundary of ``repro`` in every
module namespace where it is bound, so calls made through the program's
own imports are recorded.  A span is ``(name, start, end, parent, request
id)`` timed with ``perf_counter_ns``; exact counts read off the call's
arguments and result ride on the span.  Nothing is written until
:meth:`SpanRecorder.write` is called at the end of the run.

Spans recorded inside forked sweep workers stay in the worker's memory and
are dropped: the traced run reads the sweep layers at ``--workers 1`` and
only the parent-side wall time at the workload's worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class SpanRecorder:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self, request: str = "") -> None:
        self.spans: list[dict] = []
        self.default_request = request
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str) -> None:
        """Tag every span this thread opens from now on with ``request``."""
        self._local.request = request

    def wrap(self, name, fn, counts=None):
        """``fn`` wrapped in a span; ``name`` may be a callable of the args.

        ``counts(args, kwargs, result)`` returns the exact counts to attach
        to the span; it runs after the span's end time is taken.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name(*args, **kwargs) if callable(name) else name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                    "req": getattr(self._local, "request", self.default_request),
                }
                if not ok:
                    span["error"] = True
                elif counts is not None:
                    span["counts"] = counts(args, kwargs, result)
                self.spans.append(span)

        return traced

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _patch_function(module_name: str, attr: str, wrapper_for) -> None:
    """Replace the function ``module.attr`` in every ``repro`` namespace binding it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(cls, attr: str, wrapper_for) -> None:
    setattr(cls, attr, wrapper_for(vars(cls)[attr]))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _draw_counts(args, kwargs, result):
    sites, _seeds, shots = args[:3]
    n_measurements = args[3] if len(args) > 3 else kwargs.get("n_measurements", 0)
    n_sites = sites.n_sites if sites is not None else 0
    return {"values": shots * (n_sites + n_measurements)}


def _exec_counts(args, kwargs, result):
    return {"shots": args[4] if len(args) > 4 else kwargs["shots"]}


def _fidelity_counts(args, kwargs, result):
    import numpy as np

    return {"shots": len(result), "kept": int(np.count_nonzero(~np.isnan(result)))}


def _encode_counts(args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs["records"]
    count = len(records) if hasattr(records, "__len__") else -1
    return {"records": count, "bytes": _file_size(result)}


def _bytes_of(args, kwargs, result):
    return {"bytes": _file_size(result)}


def _export_counts(args, kwargs, result):
    return {"bytes": sum(_file_size(path) for path in result.values())}


def _units_counts(args, kwargs, result):
    runner, _fn, units = args[:3]
    return {"units": len(units), "workers": runner.workers}


def _hit(args, kwargs, result):
    return {"hit": bool(result) if isinstance(result, bool) else result is not None}


def _route(service, path, *rest) -> str:
    """Span name of one service call, from its method and request path."""
    if rest:  # handle_post(path, body)
        return "server.route.runs"
    path = path.split("?", 1)[0].rstrip("/")
    if "/jobs/" in path:
        return "server.route.jobs"
    if "/results/" in path:
        return (
            "server.route.results_rrec"
            if path.endswith(".rrec")
            else "server.route.results"
        )
    return "server.route.other"


def install(recorder: SpanRecorder, server: bool) -> None:
    """Wrap every layer boundary the benchmark reports on.

    The server modules are imported and wrapped only when ``server`` is
    set, so a traced CLI invocation imports nothing the plain one does not.
    """
    import repro.cache.store as cache_store
    import repro.experiments.__main__  # noqa: F401 - binds the run_* names
    import repro.records  # noqa: F401
    import repro.scenarios.run  # noqa: F401
    import repro.sim.engine as engine
    import repro.sim.feynman  # noqa: F401
    import repro.sweep.runner as sweep_runner
    from repro.scenarios.compile import CompiledScenario

    wrap = recorder.wrap

    def function(module_name, attr, name, counts=None):
        _patch_function(
            module_name, attr, lambda fn: wrap(name, fn, counts)
        )

    function("repro.scenarios.compile", "compile_scenario", "scenarios.compile")
    function("repro.scenarios.run", "run_scenario", "scenarios.run")
    _patch_method(
        CompiledScenario,
        "noise_model",
        lambda fn: wrap("scenarios.noise_model", fn),
    )
    function(
        "repro.sim.seeding", "draw_shot_randomness", "sim.draw", _draw_counts
    )
    for cls in list(vars(engine).values()):
        if (
            isinstance(cls, type)
            and issubclass(cls, engine.Engine)
            and "run_noisy_shots_recorded" in vars(cls)
        ):
            _patch_method(
                cls,
                "run_noisy_shots_recorded",
                lambda fn: wrap("sim.exec", fn, _exec_counts),
            )
    function("repro.sim.fidelity", "shot_fidelities", "sim.fidelity", _fidelity_counts)
    _patch_method(
        sweep_runner.SweepRunner,
        "map_units",
        lambda fn: wrap("sweep.map_units", fn, _units_counts),
    )
    function("repro.records.writer", "write_records", "records.encode", _encode_counts)
    function("repro.records.merge", "merge_record_files", "records.merge", _bytes_of)
    for artefact in ("fig8", "fig9", "fig10", "fig11", "fig12", "table1", "table2"):
        function(
            f"repro.experiments.{artefact}",
            f"run_{artefact}",
            f"experiments.run_{artefact}",
        )
    function(
        "repro.experiments.export",
        "export_experiment",
        "experiments.export",
        _export_counts,
    )
    for attr, name in (
        ("get", "cache.get"),
        ("get_payload", "cache.get_payload"),
        ("get_binary", "cache.get_binary"),
        ("__contains__", "cache.contains"),
    ):
        _patch_method(
            cache_store.ResultCache, attr, lambda fn, n=name: wrap(n, fn, _hit)
        )
    _patch_method(cache_store.ResultCache, "put", lambda fn: wrap("cache.put", fn))
    if server:
        _install_server(recorder)


def _install_server(recorder: SpanRecorder) -> None:
    import repro.server.app as server_app
    import repro.server.jobs as server_jobs

    wrap = recorder.wrap
    for attr in ("handle_get", "handle_post"):
        _patch_method(server_app.ScenarioService, attr, lambda fn: wrap(_route, fn))
    _patch_method(
        server_jobs.JobWorker,
        "submit",
        lambda fn: wrap(
            "server.job.submit", fn, lambda a, k, r: {"job": a[1].id}
        ),
    )
    _patch_method(
        server_jobs.JobTable,
        "set_status",
        lambda fn: wrap(
            "server.job.status", fn, lambda a, k, r: {"job": a[1], "status": a[2]}
        ),
    )

    def tagged(fn):
        # The request id comes from the client's X-Request-Id header, so the
        # spans of one HTTP request can be matched to its client latency.
        traced = wrap("server.http", fn)

        @functools.wraps(fn)
        def with_request(handler):
            recorder.set_request(handler.headers.get("X-Request-Id", ""))
            try:
                return traced(handler)
            finally:
                recorder.set_request("")

        return with_request

    for attr in ("do_GET", "do_POST"):
        _patch_method(server_app._RequestHandler, attr, tagged)
