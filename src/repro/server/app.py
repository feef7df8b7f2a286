"""Scenario results as a service: the versioned stdlib-only HTTP API.

Route table (all JSON, all wrapped in the envelope of
:mod:`repro.server.responses`):

.. code-block:: text

    GET  /api/v1/health               liveness + job/cache counters
    GET  /api/v1/scenarios            registry listing (name, description, spec)
    GET  /api/v1/scenarios/<name>     one registered spec
    GET  /api/v1/results/<fp>         cached records by content address
    GET  /api/v1/results/<fp>.rrec    the packed binary artefact (raw bytes)
    POST /api/v1/runs                 submit a run -> job id + fingerprint
    GET  /api/v1/jobs/<id>            poll a submission's lifecycle state

The split below keeps the logic testable and the transport thin:
:class:`ScenarioService` maps ``(method, path, body)`` to
``(http status, envelope dict)`` with no socket in sight, and the
:class:`~http.server.ThreadingHTTPServer`-based :class:`ScenarioServer`
wires it to real connections plus the background
:class:`~repro.server.jobs.JobWorker`.

Serving model: hot scenarios are O(1) content-addressed file reads
(``GET /results/<fingerprint>`` never computes anything, and the ``.rrec``
variant streams the memory-mapped binary artefact without materializing a
single record dict); cold ones queue
through ``POST /runs`` onto the deterministic sharded runner, and because
results are pure functions of their fingerprinted inputs, any number of
servers may share one ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.cache.fingerprint import CACHE_SCHEMA_VERSION, canonical_spec
from repro.cache.store import ResultCache, resolve_cache
from repro.circuit.ir import BranchBudgetError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.record import RECORD_SCHEMA_VERSION
from repro.scenarios.run import resolve_run
from repro.scenarios.spec import available_scenarios, get_scenario
from repro.server.jobs import JobTable, JobWorker
from repro.server.responses import (
    API_PREFIX,
    API_VERSION,
    RawResponse,
    encode,
    error_envelope,
    ok_envelope,
)
from repro.sim.engine import available_engines
from repro.sweep import non_negative_int

_FINGERPRINT = re.compile(r"^[0-9a-f]{64}$")


class ScenarioService:
    """Transport-free request handling: ``(method, path, body) -> response``.

    Every public ``handle_*`` method returns ``(status_code, envelope)``;
    the HTTP layer only serializes.  A service owns the result cache and the
    job table; the :class:`~repro.server.jobs.JobWorker` executing
    submissions is attached by :class:`ScenarioServer` (tests may drive the
    service synchronously without one).
    """

    def __init__(self, cache: ResultCache | str | None = None) -> None:
        store = resolve_cache(cache)
        self.cache = store if store is not None else ResultCache()
        self.jobs = JobTable()
        self.worker: JobWorker | None = None

    # -------------------------------------------------------------- dispatch
    def handle_get(self, path: str) -> "tuple[int, dict | RawResponse]":
        """Route one GET request path."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if not path.startswith(API_PREFIX):
            return 404, error_envelope(
                "unknown_route", f"routes live under {API_PREFIX}/"
            )
        tail = path[len(API_PREFIX):]
        if tail == "/health":
            return self._health()
        if tail == "/scenarios":
            return self._list_scenarios()
        if tail.startswith("/scenarios/"):
            return self._get_scenario(tail[len("/scenarios/"):])
        if tail.startswith("/results/"):
            return self._get_result(tail[len("/results/"):])
        if tail.startswith("/jobs/"):
            return self._get_job(tail[len("/jobs/"):])
        if tail == "/runs":
            return 405, error_envelope(
                "method_not_allowed", "POST a JSON body to submit a run"
            )
        return 404, error_envelope("unknown_route", f"no route for {path}")

    def handle_post(self, path: str, body: bytes) -> tuple[int, dict]:
        """Route one POST request (only ``/api/v1/runs`` accepts POST)."""
        path = path.split("?", 1)[0].rstrip("/")
        if path != f"{API_PREFIX}/runs":
            return 405, error_envelope(
                "method_not_allowed", f"POST is only accepted at {API_PREFIX}/runs"
            )
        return self._submit_run(body)

    # --------------------------------------------------------------- routes
    def _health(self) -> tuple[int, dict]:
        return 200, ok_envelope(
            {
                "cache_dir": str(self.cache.root),
                "cache_schema_version": CACHE_SCHEMA_VERSION,
                "record_schema_version": RECORD_SCHEMA_VERSION,
                "cached_results": len(self.cache.fingerprints()),
                "jobs": len(self.jobs),
            }
        )

    def _list_scenarios(self) -> tuple[int, dict]:
        entries = []
        for name in available_scenarios():
            spec = get_scenario(name)
            entries.append(
                {
                    "name": name,
                    "description": spec.description,
                    "spec": canonical_spec(spec),
                }
            )
        return 200, ok_envelope({"scenarios": entries})

    def _get_scenario(self, name: str) -> tuple[int, dict]:
        try:
            spec = get_scenario(name)
        except KeyError:
            return 404, error_envelope(
                "unknown_scenario",
                f"no scenario {name!r}; GET {API_PREFIX}/scenarios lists them",
            )
        return 200, ok_envelope(
            {
                "name": spec.name,
                "description": spec.description,
                "spec": canonical_spec(spec),
            }
        )

    def _get_result(self, fingerprint: str) -> "tuple[int, dict | RawResponse]":
        if fingerprint.endswith(".rrec"):
            return self._get_result_binary(fingerprint[: -len(".rrec")])
        if not _FINGERPRINT.match(fingerprint):
            return 400, error_envelope(
                "invalid_request",
                "a result fingerprint is 64 lowercase hex characters",
            )
        payload = self.cache.get_payload(fingerprint)
        if payload is None:
            return 404, error_envelope(
                "not_found",
                f"no cached result {fingerprint}; submit it via "
                f"POST {API_PREFIX}/runs",
            )
        return 200, ok_envelope(payload)

    def _get_result_binary(self, fingerprint: str) -> "tuple[int, dict | RawResponse]":
        """The packed ``.rrec`` artefact, streamed straight off the cache mmap."""
        if not _FINGERPRINT.match(fingerprint):
            return 400, error_envelope(
                "invalid_request",
                "a result fingerprint is 64 lowercase hex characters",
            )
        blob = self.cache.get_binary(fingerprint)
        if blob is None:
            return 404, error_envelope(
                "not_found",
                f"no cached result {fingerprint}; submit it via "
                f"POST {API_PREFIX}/runs",
            )
        return 200, RawResponse(blob)

    def _get_job(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_envelope("not_found", f"no job {job_id!r}")
        return 200, ok_envelope(job.public_view())

    def _submit_run(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            return 400, error_envelope(
                "invalid_request", "request body must be a JSON object"
            )
        if not isinstance(request, dict):
            return 400, error_envelope(
                "invalid_request", "request body must be a JSON object"
            )
        unknown = set(request) - {"scenario", "shots", "seed", "engine"}
        if unknown:
            return 400, error_envelope(
                "invalid_request", f"unknown fields: {sorted(unknown)}"
            )
        name = request.get("scenario")
        if not isinstance(name, str) or not name:
            return 400, error_envelope(
                "invalid_request", "a 'scenario' name is required"
            )
        # JSON true/false decode to bool, an int subclass: reject them, and
        # reject counts no run can use (0 shots) or no seed stream accepts.
        for key, least, kind in (
            ("shots", 1, "positive"),
            ("seed", 0, "non-negative"),
        ):
            value = request.get(key, least)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                return 400, error_envelope(
                    "invalid_request", f"{key!r} must be a {kind} integer"
                )
        engine = request.get("engine")
        if engine is not None and engine not in available_engines():
            return 400, error_envelope(
                "invalid_request",
                f"unknown engine {engine!r}; available: {available_engines()}",
            )
        try:
            spec, seed, shots, engine_name, fingerprint = resolve_run(
                name,
                shots=request.get("shots"),
                seed=request.get("seed"),
                engine=engine,
            )
        except KeyError:
            return 404, error_envelope(
                "unknown_scenario",
                f"no scenario {name!r}; GET {API_PREFIX}/scenarios lists them",
            )
        # Pre-flight the compile so a circuit whose path branching exceeds
        # the budget is rejected at submit time with a typed slug instead of
        # queueing a job that can only fail.  compile_scenario is memoised
        # per process, so repeat submissions (and the health of hot paths)
        # pay nothing.
        try:
            compile_scenario(spec, seed)
        except BranchBudgetError as exc:
            return 400, error_envelope("branch_budget_exceeded", str(exc))
        cached = fingerprint in self.cache
        job = self.jobs.create(
            spec,
            fingerprint,
            shots=shots,
            seed=seed,
            engine=engine_name,
            status="done" if cached else "queued",
        )
        if not cached and self.worker is not None:
            self.worker.submit(job)
        return (200 if cached else 202), ok_envelope(
            {"job": job.public_view(), "cached": cached}
        )


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin transport shim: parse, delegate to the service, serialize."""

    # Injected per server class (see ScenarioServer); annotated for clarity.
    service: ScenarioService
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:
        """Serve one GET through :meth:`ScenarioService.handle_get`."""
        self._respond(*self.service.handle_get(self.path))

    def do_POST(self) -> None:
        """Serve one POST through :meth:`ScenarioService.handle_post`."""
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        self._respond(*self.service.handle_post(self.path, body))

    def _respond(self, status: int, payload: "dict | RawResponse") -> None:
        if isinstance(payload, RawResponse):
            blob = payload.body
            content_type = payload.content_type
        else:
            blob = encode(payload)
            content_type = "application/json; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (tests and CI run many)."""


class ScenarioServer:
    """The HTTP server: a :class:`ScenarioService` behind real sockets.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address.  ``start()`` launches the listener thread and the job
    worker; ``close()`` tears both down.  Also usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8035,
        *,
        cache: ResultCache | str | None = None,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> None:
        self.service = ScenarioService(cache=cache)
        worker = JobWorker(
            self.service.jobs,
            self.service.cache,
            workers=workers,
            shard_size=shard_size,
        )
        self.service.worker = worker
        handler = type("BoundHandler", (_RequestHandler,), {"service": self.service})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-http", daemon=True
        )

    @property
    def url(self) -> str:
        """Base URL of the bound listener, e.g. ``http://127.0.0.1:8035``."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ScenarioServer":
        """Start the listener thread and the job worker; returns ``self``."""
        self.service.worker.start()
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop for ``python -m repro.server``."""
        self.service.worker.start()
        self.httpd.serve_forever()

    def close(self) -> None:
        """Shut the listener down and join the worker thread."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
        self.service.worker.stop()

    def __enter__(self) -> "ScenarioServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.server``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve scenario results over the versioned HTTP API: cached "
            "artefacts by content address, cold runs via async job "
            f"submission ({API_PREFIX}/runs)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8035, help="bind port")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR, else "
        "~/.cache/repro-qram)",
    )
    parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=None,
        help="sweep worker processes per job (see repro.sweep)",
    )
    args = parser.parse_args(argv)
    server = ScenarioServer(
        args.host, args.port, cache=args.cache_dir, workers=args.workers
    )
    print(
        f"serving API {API_VERSION} on {server.url}{API_PREFIX}/ "
        f"(cache: {server.service.cache.root})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
        server.close()
    return 0
