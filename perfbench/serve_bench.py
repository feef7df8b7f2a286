"""The ``serve-mixed`` workload: one ``python -m repro.server`` process, one
client process with two threads.

Reader (closed loop, main thread): warm ``POST /runs``, ``GET
/results/<fp>`` and ``GET /results/<fp>.rrec`` over the prefilled
fingerprints, each next request sent when the previous one completed.
Writer (open loop, one thread): cold submissions of small scenarios at
:data:`COLD_RATE` per second, each polled until its job reads ``done`` and
timed from the moment it was due.  Cold runs execute on the server's job
thread, which shares the interpreter lock with the request threads, so
they show up in the reader's latency.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from common import (
    PERFBENCH,
    ROOT,
    Tally,
    fresh_dir,
    median,
    percentile,
    program_env,
    remove,
    setup_samples,
)

API = "/api/v1"
SMALL_SCENARIOS = [
    "bare-bb-m2",
    "dual-rail-bb-m2",
    "htree-swap-m3",
    "htree-teleport-m3",
    "ideal-m3",
    "perth-m1",
    "perth-m1-readout",
]
SHOTS = 256
COLD_RATE = 7.0
POLL_S = 0.005
SPAWN_SAMPLES = 5
TIMEOUT_S = 60.0


class Failure(Exception):
    """An operation whose response was wrong."""


class Client:
    """HTTP calls tagged with request ids ``<prefix><n>``.

    Each call opens its own connection and sends ``Connection: close``.  On
    a kept-alive connection the server's response, written as two sends
    (headers, then body) without ``TCP_NODELAY``, waits for the client's
    delayed acknowledgement, so every request would read about 40 ms of
    TCP timer instead of the server's work.
    """

    def __init__(self, port: int, prefix: str) -> None:
        self.port = port
        self.prefix = prefix
        self.sent = 0

    def call(self, method: str, path: str, body: bytes | None = None):
        """One request: ``(status, body bytes, seconds, request id)``."""
        self.sent += 1
        request_id = f"{self.prefix}{self.sent}"
        headers = {"X-Request-Id": request_id, "Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            conn.request(method, API + path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise Failure(f"{method} {path}: {exc}") from exc
        finally:
            conn.close()
        return response.status, data, time.perf_counter() - start, request_id

    def submit(self, body: bytes) -> dict:
        status, data, _, _ = self.call("POST", "/runs", body)
        if status not in (200, 202):
            raise Failure(f"POST /runs returned {status}: {data[:200]!r}")
        return json.loads(data)["data"]

    def job_state(self, job_id: str) -> str:
        """The job's status, or the whole response when it is not a 200."""
        status, data, _, _ = self.call("GET", f"/jobs/{job_id}")
        if status != 200:
            return f"GET /jobs/{job_id} returned {status}: {data[:300]!r}"
        return json.loads(data)["data"]["status"]

    def wait_done(self, job_id: str) -> None:
        deadline = time.perf_counter() + TIMEOUT_S
        while time.perf_counter() < deadline:
            state = self.job_state(job_id)
            if state == "done":
                return
            if state not in ("queued", "running"):
                raise Failure(f"job {job_id}: {state}")
            time.sleep(POLL_S)
        raise Failure(f"job {job_id} not done after {TIMEOUT_S} s")


def _placement() -> tuple[set[int], set[int]]:
    """CPUs for the server and for the client process.

    With two CPUs or more, the server gets the first and the client the
    second.  Left to the scheduler, the two sometimes share a CPU and
    sometimes not, and the warm-read median moves by about 10% between
    the two cases.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


def _server_child(cpus: set[int]) -> None:
    """Runs in the server child between fork and exec.

    It restores the default SIGINT, which Python turns into the
    KeyboardInterrupt that shuts the server down: a shell starting the
    benchmark in the background hands it SIGINT ignored, and an ignored
    signal stays ignored across exec.  No benchmark thread may run during
    a spawn.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.sched_setaffinity(0, cpus)


class Server:
    """A server process on an ephemeral port with a fresh cache directory."""

    def __init__(self, traced: bool, cpus: set[int]) -> None:
        self.work = fresh_dir("serve")
        self.spans_file = self.work / "spans.jsonl"
        args = ["--port", "0", "--workers", "1", "--cache-dir", str(self.work / "cache")]
        if traced:
            argv = [sys.executable, str(PERFBENCH / "launch.py"), str(self.spans_file), "server", "server", *args]
        else:
            argv = [sys.executable, "-m", "repro.server", *args]
        self.log = open(self.work / "stderr", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=program_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=functools.partial(_server_child, cpus),
        )
        try:
            self.port = self._read_port()
            status, _, _, _ = Client(self.port, "h").call("GET", "/health")
            if status != 200:
                raise Failure(f"health returned {status}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline().decode(errors="replace") if ready else ""
        match = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
        if not match:
            raise Failure(f"server did not report its address: {line!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> list[dict]:
        """Interrupt the server, wait for it, return its spans, remove its files."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        spans = layers.load(self.spans_file)
        remove(self.work)
        return spans


def _body(scenario: str, seed: int) -> bytes:
    return json.dumps({"scenario": scenario, "shots": SHOTS, "seed": seed}).encode()


class ServeRun:
    """One benchmark run of ``serve-mixed``."""

    def __init__(self, seed: int) -> None:
        self.server_cpus, self.client_cpus = _placement()
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.tally = Tally()
        self.check_dir = fresh_dir("check")
        self._checked = 0
        self.reader_ids: dict[str, float] = {}

    def served_problems(self, client: Client, fingerprint: str) -> tuple[bytes, bytes, list[str]]:
        """Fetch a result both ways and check that they agree."""
        _, json_body, _, _ = client.call("GET", f"/results/{fingerprint}")
        _, rrec_body, _, _ = client.call("GET", f"/results/{fingerprint}.rrec")
        self._checked += 1
        path = self.check_dir / f"served-{self._checked}.rrec"
        return json_body, rrec_body, checks.result_problems(json_body, rrec_body, path)

    def prefill(self, server: Server) -> tuple[list[tuple[str, bytes, bytes, bytes]], float]:
        """Cold-run one result per small scenario; returns them and the time taken.

        Each entry is ``(fingerprint, request body, JSON bytes, .rrec bytes)``,
        the bytes being what every later warm read must serve again.
        """
        client = Client(server.port, "p")
        start = time.perf_counter()
        submitted = []
        for scenario in SMALL_SCENARIOS:
            body = _body(scenario, self.rng.randrange(1, 2**30))
            job = client.submit(body)["job"]
            client.wait_done(job["id"])
            submitted.append((job["fingerprint"], body))
        elapsed = time.perf_counter() - start
        entries = []
        for fingerprint, body in submitted:
            json_body, rrec_body, problems = self.served_problems(client, fingerprint)
            if not self.tally.record(f"serve-mixed prefill {fingerprint[:12]}", problems):
                raise Failure("a prefilled result failed its checks")
            entries.append((fingerprint, body, json_body, rrec_body))
        return entries, elapsed

    def reader(self, port: int, entries, deadline: float) -> list[float]:
        """Closed-loop warm requests until ``deadline``; returns latencies (s).

        Also keeps each request's latency by request id in :attr:`reader_ids`.
        """
        client = Client(port, "r")
        latencies: list[float] = []
        self.reader_ids = {}
        while time.perf_counter() < deadline:
            fingerprint, body, json_body, rrec_body = self.rng.choice(entries)
            kind = self.rng.randrange(3)
            problems: list[str] = []
            try:
                if kind == 0:
                    status, data, elapsed, rid = client.call("POST", "/runs", body)
                    if status != 200 or b'"cached": true' not in data:
                        problems.append(f"warm POST /runs: {status} {data[:200]!r}")
                else:
                    path = f"/results/{fingerprint}" + (".rrec" if kind == 2 else "")
                    status, data, elapsed, rid = client.call("GET", path)
                    if status != 200 or data != (rrec_body if kind == 2 else json_body):
                        problems.append(f"GET {path}: {status}, not the cold result's bytes")
            except Failure as exc:
                problems.append(str(exc))
            if self.tally.record("serve-mixed warm request", problems):
                latencies.append(elapsed)
                self.reader_ids[rid] = elapsed
        return latencies

    def writer(self, port: int, deadline: float, rng: random.Random, out: dict) -> None:
        """Open-loop cold submissions until ``deadline``, then drain them."""
        client = Client(port, "w")
        period = 1.0 / COLD_RATE
        due = time.perf_counter()
        outstanding: dict[str, tuple[float, str, bytes]] = {}
        latencies: list[float] = []
        lateness: list[float] = []
        done: list[tuple[str, bytes]] = []
        # Every scenario once per cycle, in a seeded order, so that each seed
        # puts the same mix of work on the job thread.
        cycle: list[str] = []
        while True:
            now = time.perf_counter()
            if now >= deadline + TIMEOUT_S:
                for job_id in outstanding:
                    self.tally.record(f"serve-mixed cold job {job_id}", ["not done in time"])
                break
            if due < deadline and now >= due:
                if not cycle:
                    cycle = rng.sample(SMALL_SCENARIOS, len(SMALL_SCENARIOS))
                body = _body(cycle.pop(), rng.randrange(2**30, 2**31))
                try:
                    job = client.submit(body)["job"]
                    lateness.append(now - due)
                    outstanding[job["id"]] = (due, job["fingerprint"], body)
                except Failure as exc:
                    self.tally.record("serve-mixed cold submit", [str(exc)])
                due += period
                continue
            if not outstanding and due >= deadline:
                break
            for job_id in list(outstanding):
                try:
                    state = client.job_state(job_id)
                except Failure as exc:
                    state = str(exc)
                if state in ("queued", "running"):
                    continue
                started, fingerprint, body = outstanding.pop(job_id)
                if self.tally.record(f"serve-mixed cold job {job_id}", [] if state == "done" else [state]):
                    latencies.append(time.perf_counter() - started)
                    done.append((fingerprint, body))
            time.sleep(max(0.0, min(POLL_S, due - time.perf_counter())))
        out.update(latencies=latencies, lateness=lateness, done=done)

    def verify_cold(self, port: int, done: list[tuple[str, bytes]]) -> None:
        """After the window: each cold result agrees with its ``.rrec`` twin,
        and a warm resubmission serves byte-identical JSON."""
        client = Client(port, "v")
        for fingerprint, body in done:
            try:
                cold_json, _, problems = self.served_problems(client, fingerprint)
                if client.submit(body).get("cached") is not True:
                    problems.append("resubmission was not served from the cache")
                _, warm_json, _, _ = client.call("GET", f"/results/{fingerprint}")
                if warm_json != cold_json:
                    problems.append("warm payload differs from the cold one")
            except Failure as exc:
                problems = [str(exc)]
            self.tally.record(f"serve-mixed cold result {fingerprint[:12]}", problems)

    def window(self, server: Server, entries, seconds: float) -> dict:
        """Reader and writer side by side for ``seconds``."""
        writer_rng = random.Random(self.rng.random())
        deadline = time.perf_counter() + seconds
        writes: dict = {}
        thread = threading.Thread(
            target=self.writer, args=(server.port, deadline, writer_rng, writes)
        )
        thread.start()
        try:
            reads = self.reader(server.port, entries, deadline)
        finally:
            thread.join()
        self.verify_cold(server.port, writes.get("done", []))
        return {"reads": reads, "seconds": seconds, **writes}

    @contextlib.contextmanager
    def _pinned_client(self):
        """Client process on its CPU for the run; restored, and checks removed, after."""
        original = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.client_cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, original)
            remove(self.check_dir)

    def _spawn_once(self) -> float:
        server = Server(traced=False, cpus=self.server_cpus)
        server.stop()
        return server.ready_s

    def measure(self, seconds: float) -> tuple[dict, dict]:
        with self._pinned_client():
            spawn = setup_samples(self._spawn_once, SPAWN_SAMPLES)
            server = Server(traced=False, cpus=self.server_cpus)
            try:
                entries, prefill_s = self.prefill(server)
                result = self.window(server, entries, seconds)
                rss = server.peak_rss_mb()
            finally:
                server.stop()
        reads, colds = result["reads"], result["latencies"]
        metrics = {
            "setup_s": median(spawn) + prefill_s,
            "latency_p50_ms": median(reads) * 1e3,
            "peak_rss_mb": rss,
        }
        samples = {"setup_s": len(spawn), "latency_p50_ms": len(reads), "peak_rss_mb": 1}
        reads_ms = [value * 1e3 for value in reads]
        colds_ms = [value * 1e3 for value in colds]
        lateness_ms = [value * 1e3 for value in result["lateness"]]
        extra = [
            ("req_p99_ms", percentile(reads_ms, 0.99), "ms", len(reads)),
            ("req_per_s", len(reads) / seconds, "1/s", len(reads)),
            ("cold_run_p50_ms", median(colds_ms) if colds else None, "ms", len(colds)),
            ("cold_run_p90_ms", percentile(colds_ms, 0.90), "ms", len(colds)),
            ("writer_late_max_ms", max(lateness_ms, default=0.0), "ms", len(lateness_ms)),
        ]
        for name, value, unit, count in extra:
            shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.4f} {unit}"
            print(f"serve-mixed {name} = {shown} (n={count})")
        return metrics, samples

    def trace(self, seconds: float) -> dict:
        """Untraced then traced server, half the window each."""
        half = seconds / 2.0
        with self._pinned_client():
            server = Server(traced=False, cpus=self.server_cpus)
            try:
                entries, _ = self.prefill(server)
                untraced = self.window(server, entries, half)["reads"]
            finally:
                server.stop()
            server = Server(traced=True, cpus=self.server_cpus)
            try:
                entries, _ = self.prefill(server)
                traced = self.window(server, entries, half)["reads"]
            finally:
                spans = server.stop()
        metrics = layers.accumulate(spans)
        metrics.update(layers.server_job_metrics(spans))
        handler = layers.request_handler_times(spans)
        gaps = [
            latency - handler[rid]
            for rid, latency in self.reader_ids.items()
            if rid in handler
        ]
        metrics["server.http_overhead_ms"] = median(gaps) * 1e3
        metrics["trace.remainder_s"] = sum(gaps)
        metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
        reader_spans = [span for span in spans if span["req"].startswith("r")]
        shares = {"cache+server": 0.0, "sim": 0.0}
        for span, self_s in layers.with_self_times(reader_spans):
            if span["name"].startswith(("cache.", "server.")):
                shares["cache+server"] += self_s
            elif span["name"].startswith("sim."):
                shares["sim"] += self_s
        print(
            "reader path self time: cache+server "
            f"{shares['cache+server']:.4f} s, sim {shares['sim']:.4f} s "
            f"over {len(gaps)} requests"
        )
        return metrics
