"""HTTP API tests: envelope, listing, cached fetch, submit -> poll -> result.

One module-scoped :class:`~repro.server.ScenarioServer` on an ephemeral port
(and a throwaway cache dir) backs the socket-level tests; the error-model
and service-logic tests drive :class:`~repro.server.ScenarioService`
directly, without a socket.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cache import ResultCache
from repro.scenarios import available_scenarios, run_scenario
from repro.server import API_PREFIX, API_VERSION, ScenarioServer, ScenarioService
from repro.server.jobs import JobTable
from repro.server.responses import encode, error_envelope, ok_envelope

SHOTS = 16
SEED = 9
POLL_TIMEOUT_SECONDS = 60.0


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A live server on an ephemeral port with an empty cache."""
    cache_dir = tmp_path_factory.mktemp("server-cache")
    with ScenarioServer(port=0, cache=str(cache_dir), workers=1) as live:
        yield live


def _request(server, path, payload=None):
    """GET (or POST when ``payload``) returning ``(status, envelope)``."""
    url = server.url + path
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_job(server, job_id):
    deadline = time.monotonic() + POLL_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        status, body = _request(server, f"{API_PREFIX}/jobs/{job_id}")
        assert status == 200
        if body["data"]["status"] in ("done", "error"):
            return body["data"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in time")


class TestEnvelope:
    def test_health_reports_cache_and_jobs(self, server):
        status, body = _request(server, f"{API_PREFIX}/health")
        assert status == 200
        assert body["api_version"] == API_VERSION
        assert body["status"] == "ok"
        assert body["data"]["cached_results"] >= 0

    def test_every_error_uses_the_envelope(self, server):
        for path in (f"{API_PREFIX}/nope", "/outside", f"{API_PREFIX}/jobs/job-9999"):
            status, body = _request(server, path)
            assert status == 404
            assert body["status"] == "error"
            assert set(body["error"]) == {"code", "message"}
            assert body["api_version"] == API_VERSION

    def test_envelope_helpers_are_canonical(self):
        assert json.loads(encode(ok_envelope({"x": 1}))) == {
            "api_version": API_VERSION,
            "status": "ok",
            "data": {"x": 1},
        }
        envelope = error_envelope("not_found", "gone")
        assert envelope["error"]["code"] == "not_found"


class TestScenarioListing:
    def test_listing_matches_registry(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios")
        assert status == 200
        names = [entry["name"] for entry in body["data"]["scenarios"]]
        assert names == available_scenarios()
        entry = body["data"]["scenarios"][0]
        assert set(entry) == {"name", "description", "spec"}

    def test_single_scenario_detail(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios/ideal-m3")
        assert status == 200
        assert body["data"]["spec"]["qram_width"] == 3

    def test_unknown_scenario_404s(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios/not-a-scenario")
        assert status == 404
        assert body["error"]["code"] == "unknown_scenario"


class TestRunLifecycle:
    def test_submit_poll_fetch_and_warm_resubmit(self, server):
        submission = {"scenario": "ideal-m3", "shots": SHOTS, "seed": SEED}
        status, body = _request(server, f"{API_PREFIX}/runs", submission)
        assert status == 202
        assert body["data"]["cached"] is False
        job = body["data"]["job"]
        assert job["status"] == "queued"
        assert job["engine"] and job["router"]

        finished = _poll_job(server, job["id"])
        assert finished["status"] == "done"
        assert finished["result_url"] == f"{API_PREFIX}/results/{job['fingerprint']}"

        status, result = _request(server, finished["result_url"])
        assert status == 200
        payload = result["data"]
        assert payload["fingerprint"] == job["fingerprint"]
        records = payload["records"]
        assert [r["error_reduction_factor"] for r in records] == [1.0, 10.0, 100.0]

        # Served records are bit-identical to an in-process fresh run.
        fresh = run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1)
        assert records == [record.as_dict() for record in fresh]

        # Resubmitting the same inputs is a warm hit: done on arrival.
        status, body = _request(server, f"{API_PREFIX}/runs", submission)
        assert status == 200
        assert body["data"]["cached"] is True
        assert body["data"]["job"]["status"] == "done"
        assert body["data"]["job"]["fingerprint"] == job["fingerprint"]

    def test_failed_job_reports_error_state(self, server, monkeypatch):
        """A worker exception lands in the job table, not in the logs only."""
        import repro.server.jobs as jobs_module

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(jobs_module, "run_scenario", explode)
        status, body = _request(
            server,
            f"{API_PREFIX}/runs",
            {"scenario": "ideal-m3", "shots": SHOTS + 1, "seed": SEED},
        )
        assert status == 202
        finished = _poll_job(server, body["data"]["job"]["id"])
        assert finished["status"] == "error"
        assert "synthetic failure" in finished["error"]


class TestErrorModel:
    """Validation paths, driven through the service without a socket."""

    @pytest.fixture()
    def service(self, tmp_path):
        return ScenarioService(cache=str(tmp_path))

    def test_malformed_fingerprint_is_invalid_request(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/results/nothex")
        assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_uncached_fingerprint_404s(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/results/{'0' * 64}")
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_post_rejects_bad_json_and_bad_shapes(self, service):
        for body_bytes in (b"{not json", b'"a string"', b"[1]"):
            status, body = service.handle_post(f"{API_PREFIX}/runs", body_bytes)
            assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_post_requires_scenario_name(self, service):
        status, body = service.handle_post(f"{API_PREFIX}/runs", b"{}")
        assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_post_rejects_unknown_fields_and_types(self, service):
        for payload in (
            {"scenario": "ideal-m3", "workers": 4},
            {"scenario": "ideal-m3", "shots": "many"},
            {"scenario": "ideal-m3", "seed": 1.5},
            {"scenario": "ideal-m3", "engine": "warp-drive"},
        ):
            status, body = service.handle_post(
                f"{API_PREFIX}/runs", json.dumps(payload).encode()
            )
            assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_post_rejects_out_of_range_shots_and_seed(self, service):
        for payload in (
            {"scenario": "ideal-m3", "shots": 0},
            {"scenario": "ideal-m3", "shots": -4},
            {"scenario": "ideal-m3", "shots": True},
            {"scenario": "ideal-m3", "seed": -1},
            {"scenario": "ideal-m3", "seed": False},
        ):
            status, body = service.handle_post(
                f"{API_PREFIX}/runs", json.dumps(payload).encode()
            )
            assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert len(service.jobs) == 0

    def test_post_unknown_scenario_404s(self, service):
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps({"scenario": "nope"}).encode()
        )
        assert (status, body["error"]["code"]) == (404, "unknown_scenario")

    def test_post_anywhere_else_is_405(self, service):
        status, body = service.handle_post(f"{API_PREFIX}/scenarios", b"{}")
        assert (status, body["error"]["code"]) == (405, "method_not_allowed")

    def test_get_on_runs_is_405(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/runs")
        assert (status, body["error"]["code"]) == (405, "method_not_allowed")

    def test_submission_without_worker_queues_for_later(self, service):
        """A service with no attached worker still records the job."""
        status, body = service.handle_post(
            f"{API_PREFIX}/runs",
            json.dumps({"scenario": "ideal-m3", "shots": 4}).encode(),
        )
        assert status == 202
        job_id = body["data"]["job"]["id"]
        status, body = service.handle_get(f"{API_PREFIX}/jobs/{job_id}")
        assert body["data"]["status"] == "queued"

    def test_pre_seeded_cache_is_served_without_any_job_run(self, tmp_path):
        """Results written by another process (CLI, CI) serve immediately."""
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        service = ScenarioService(cache=cache)
        fingerprint = cache.fingerprints()[0]
        status, body = service.handle_get(f"{API_PREFIX}/results/{fingerprint}")
        assert status == 200
        assert body["data"]["records"]


def test_out_of_range_seed_over_a_real_socket(server):
    """A negative seed gets a 400 envelope, not a dropped connection."""
    status, body = _request(
        server, f"{API_PREFIX}/runs", {"scenario": "ideal-m3", "seed": -1}
    )
    assert (status, body["status"], body["error"]["code"]) == (
        400,
        "error",
        "invalid_request",
    )


class TestBinaryArtefactRoute:
    """``GET /results/<fp>.rrec``: raw mmap-served bytes, JSON errors."""

    @pytest.fixture()
    def seeded(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        return ScenarioService(cache=cache), cache.fingerprints()[0]

    def test_serves_the_committed_artefact_bytes(self, seeded):
        from repro.server.responses import RawResponse

        service, fingerprint = seeded
        status, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        assert status == 200
        assert isinstance(raw, RawResponse)
        assert raw.content_type == "application/octet-stream"
        assert raw.body == service.cache.binary_path_for(fingerprint).read_bytes()

    def test_served_bytes_decode_to_the_cached_records(self, seeded):
        from repro.records import RecordFile

        service, fingerprint = seeded
        _, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        path = service.cache.binary_path_for(fingerprint)
        with RecordFile(path) as record_file:
            assert record_file.records() == service.cache.get(fingerprint)
            assert record_file.tag == fingerprint

    def test_errors_stay_json_envelopes(self, seeded):
        service, _ = seeded
        status, body = service.handle_get(f"{API_PREFIX}/results/nothex.rrec")
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        status, body = service.handle_get(
            f"{API_PREFIX}/results/{'0' * 64}.rrec"
        )
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_corrupt_binary_heals_from_json_and_serves(self, seeded):
        service, fingerprint = seeded
        path = service.cache.binary_path_for(fingerprint)
        expected = path.read_bytes()
        path.write_bytes(b"\x00" * 32)
        status, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        assert status == 200
        assert raw.body == expected

    def test_binary_route_over_a_real_socket(self, server):
        """End to end over HTTP: run a job, then fetch the raw artefact."""
        scenario = available_scenarios()[0]
        status, body = _request(
            server,
            f"{API_PREFIX}/runs",
            {"scenario": scenario, "shots": SHOTS, "seed": SEED},
        )
        assert status in (200, 202)
        job = body["data"]["job"]
        fingerprint = job["fingerprint"]
        _poll_job(server, job["id"])
        url = server.url + f"{API_PREFIX}/results/{fingerprint}.rrec"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/octet-stream"
            blob = response.read()
        assert blob == service_bytes(server, fingerprint)


def service_bytes(server, fingerprint):
    """The artefact bytes straight off the live server's cache."""
    return server.service.cache.binary_path_for(fingerprint).read_bytes()


class TestJobTable:
    def test_ids_are_dense_and_ordered(self):
        from repro.scenarios import get_scenario

        table = JobTable()
        spec = get_scenario("ideal-m3")
        first = table.create(spec, "f" * 64, shots=1, seed=1, engine="feynman-tape")
        second = table.create(spec, "f" * 64, shots=1, seed=1, engine="feynman-tape")
        assert (first.id, second.id) == ("job-0001", "job-0002")
        assert len(table) == 2
        assert table.get("job-0003") is None

    def test_set_status_rejects_unknown_states(self):
        from repro.scenarios import get_scenario

        table = JobTable()
        job = table.create(
            get_scenario("ideal-m3"), "f" * 64, shots=1, seed=1, engine="feynman-tape"
        )
        with pytest.raises(ValueError, match="unknown job status"):
            table.set_status(job.id, "exploded")


def test_server_main_module_importable():
    """``python -m repro.server`` resolves (the CLI itself binds a socket)."""
    import repro.server.__main__  # noqa: F401
    from repro.server.app import main

    assert callable(main)


class TestWorkerCountValidation:
    """A bad worker count fails at startup, not in every cold job."""

    def test_cli_rejects_negative_workers_before_serving(self, capsys):
        from repro.server.app import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--port", "0", "--workers", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --workers" in err

    def test_job_worker_rejects_negative_workers(self, tmp_path):
        from repro.server.jobs import JobWorker

        with pytest.raises(ValueError, match="workers must be non-negative"):
            JobWorker(JobTable(), ResultCache(tmp_path), workers=-1)

    def test_job_worker_resolves_workers_once(self, tmp_path, monkeypatch):
        from repro.server.jobs import JobWorker
        from repro.sweep import WORKERS_ENV_VAR

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        worker = JobWorker(JobTable(), ResultCache(tmp_path))
        assert worker.workers == 3
