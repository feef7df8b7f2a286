"""Job table and background worker for asynchronous scenario runs.

``POST /api/v1/runs`` must return immediately -- cold scenarios can take
seconds to minutes -- so submissions become :class:`Job` entries in a
thread-safe :class:`JobTable` and a single background :class:`JobWorker`
thread drains them in FIFO order, executing each through
:func:`repro.scenarios.run.run_scenario` with the server's result cache.
The run itself still fans out across the sharded
:class:`~repro.sweep.SweepRunner` process pool, so one worker thread is a
scheduling choice (strict FIFO, bounded load), not a throughput ceiling.

Lifecycle: ``queued -> running -> done | error``; a submission whose
fingerprint is already cached is born ``done`` without ever queueing.
Completed results are read back through the cache by fingerprint
(``GET /api/v1/results/<fingerprint>``), so the job table holds only
metadata, never record payloads.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass, field

from repro.cache.store import ResultCache
from repro.circuit.ir import BranchBudgetError
from repro.scenarios.run import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sweep import resolve_workers

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "error")


@dataclass
class Job:
    """One submitted run: resolved inputs, lifecycle state, outcome."""

    id: str
    spec: ScenarioSpec
    fingerprint: str
    shots: int
    seed: int
    engine: str
    status: str = "queued"
    error: str | None = None

    def public_view(self) -> dict[str, object]:
        """The JSON-safe description ``GET /api/v1/jobs/<id>`` serves."""
        view: dict[str, object] = {
            "id": self.id,
            "scenario": self.spec.name,
            "fingerprint": self.fingerprint,
            "shots": self.shots,
            "seed": self.seed,
            "engine": self.engine,
            "router": self.spec.router,
            "status": self.status,
        }
        if self.status == "done":
            view["result_url"] = f"/api/v1/results/{self.fingerprint}"
        if self.error is not None:
            view["error"] = self.error
        return view


@dataclass
class JobTable:
    """Thread-safe registry of every job this server process has seen."""

    _jobs: dict[str, Job] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _counter: int = 0

    def create(
        self,
        spec: ScenarioSpec,
        fingerprint: str,
        *,
        shots: int,
        seed: int,
        engine: str,
        status: str = "queued",
    ) -> Job:
        """Register a new job (ids are ``job-<n>``, dense and process-local)."""
        with self._lock:
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:04d}",
                spec=spec,
                fingerprint=fingerprint,
                shots=shots,
                seed=seed,
                engine=engine,
                status=status,
            )
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Job | None:
        """Look a job up by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def set_status(self, job_id: str, status: str, error: str | None = None) -> None:
        """Advance a job's lifecycle state (worker-side)."""
        if status not in JOB_STATES:
            raise ValueError(f"unknown job status {status!r}; one of {JOB_STATES}")
        with self._lock:
            job = self._jobs[job_id]
            job.status = status
            job.error = error

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)


class JobWorker:
    """Background thread executing queued jobs through ``run_scenario``."""

    def __init__(
        self,
        table: JobTable,
        cache: ResultCache,
        *,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> None:
        self.table = table
        self.cache = cache
        # Resolved (and validated) here, so a bad count fails construction
        # instead of every job it would run.
        self.workers = resolve_workers(workers)
        self.shard_size = shard_size
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-job-worker", daemon=True
        )

    def start(self) -> None:
        """Start the worker thread (idempotent per instance)."""
        if not self._thread.is_alive():
            self._thread.start()

    def submit(self, job: Job) -> None:
        """Enqueue a ``queued`` job for execution."""
        self._queue.put(job)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the sentinel through the queue and join the thread."""
        if self._thread.is_alive():
            self._queue.put(None)
            self._thread.join(timeout=timeout)

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self.table.set_status(job.id, "running")
            try:
                run_scenario(
                    job.spec,
                    shots=job.shots,
                    seed=job.seed,
                    engine=job.engine,
                    workers=self.workers,
                    shard_size=self.shard_size,
                    cache=self.cache,
                )
            except BranchBudgetError as exc:
                # Run-time budget overruns (e.g. a runtime-registered spec
                # that dodged the submit-time pre-flight) carry the same
                # typed slug the synchronous API paths use.
                self.table.set_status(
                    job.id, "error", error=f"branch_budget_exceeded: {exc}"
                )
            except Exception as exc:  # surface, never kill the worker
                self.table.set_status(
                    job.id, "error", error=f"{type(exc).__name__}: {exc}"
                )
                traceback.print_exc()
            else:
                self.table.set_status(job.id, "done")
