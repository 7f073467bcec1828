"""HTTP front-end: real requests against an in-process AioServiceServer."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.model.site import Site
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService
from repro.service.schema import JobSpec
from repro.service.state import ClusterState


@pytest.fixture
def server():
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
    service = AllocationService(state, max_delay=0.005)
    srv = AioServiceServer(service, port=0, quiet=True).start()
    yield srv
    srv.shutdown()


def call(srv, method: str, path: str, body: dict | None = None):
    url = f"http://127.0.0.1:{srv.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestEndpoints:
    def test_health(self, server):
        status, payload = call(server, "GET", "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["sites"] == 2 and payload["jobs"] == 0

    def test_allocate_round_trip(self, server):
        status, payload = call(
            server,
            "POST",
            "/v1/allocate",
            {
                "jobs": [
                    {"name": "x", "workload": {"a": 1.0}},
                    {"name": "y", "workload": {"b": 1.0}},
                ]
            },
        )
        assert status == 200
        assert payload["queued_jobs"] == ["x", "y"]
        assert payload["policy"] == "amf-incremental"
        assert payload["jobs"]["x"]["aggregate"] == pytest.approx(2.0)
        assert payload["jobs"]["y"]["aggregate"] == pytest.approx(3.0)
        assert payload["jobs"]["x"]["shares"] == {"a": pytest.approx(2.0)}
        # an immediate repeat is served from the cache
        status, payload = call(server, "POST", "/v1/allocate")
        assert status == 200 and payload["cached"] is True

    def test_jobs_get_reports_current_allocation(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        status, payload = call(server, "GET", "/v1/jobs")
        assert status == 200
        assert set(payload["jobs"]) == {"x"}

    def test_post_jobs_queues_without_solving(self, server):
        status, payload = call(server, "POST", "/v1/jobs", {"name": "q", "workload": {"a": 1.0}})
        assert status == 202
        assert payload["queued_jobs"] == ["q"]

    def test_delete_job(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        status, _ = call(server, "DELETE", "/v1/jobs/x")
        assert status == 202
        status, payload = call(server, "POST", "/v1/allocate")
        assert status == 200
        assert payload["jobs"] == {}

    def test_capacity_change(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        status, _ = call(server, "POST", "/v1/capacity", {"site": "a", "capacity": 4.0})
        assert status == 202
        status, payload = call(server, "POST", "/v1/allocate")
        assert payload["jobs"]["x"]["aggregate"] == pytest.approx(4.0)

    def test_stats_counters_move(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        call(server, "POST", "/v1/allocate")
        status, payload = call(server, "GET", "/v1/stats")
        assert status == 200
        assert payload["solver"]["solves"] == 1
        assert payload["cache"]["hits"] >= 1
        assert payload["state"]["events_accepted"] == 1

    def test_background_flusher_applies_batches(self, server):
        call(server, "POST", "/v1/jobs", {"name": "bg", "workload": {"a": 1.0}})
        deadline = threading.Event()
        for _ in range(200):  # max_delay is 5 ms; poll up to ~2 s
            _, payload = call(server, "GET", "/v1/health")
            if payload["jobs"] == 1:
                break
            deadline.wait(0.01)
        assert payload["jobs"] == 1


class TestErrors:
    def test_unknown_path_404(self, server):
        status, payload = call(server, "GET", "/v1/nope")
        assert status == 404 and "error" in payload

    def test_malformed_job_400(self, server):
        status, payload = call(server, "POST", "/v1/jobs", {"workload": {"a": 1.0}})
        assert status == 400 and "error" in payload

    def test_malformed_json_400(self, server):
        url = f"http://127.0.0.1:{server.port}/v1/jobs"
        req = urllib.request.Request(url, data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_capacity_requires_fields(self, server):
        status, _ = call(server, "POST", "/v1/capacity", {"site": "a"})
        assert status == 400


class TestWireFormat:
    def test_job_from_dict_full(self):
        job = JobSpec.from_json(
            {"name": "j", "workload": {"a": 2}, "demand": {"a": 0.5}, "weight": 2.0, "arrival": 1.5}
        ).to_job()
        assert job.name == "j" and job.workload == {"a": 2.0}
        assert job.demand == {"a": 0.5} and job.weight == 2.0 and job.arrival == 1.5

    def test_job_from_dict_requires_name_and_workload(self):
        with pytest.raises(ValueError):
            JobSpec.from_json({"name": "j"}).to_job()


class TestPassiveAllocate:
    def test_get_allocate_fresh_false_serves_last_answer(self, server):
        call(server, "POST", "/v1/allocate", {"jobs": [{"name": "x", "workload": {"a": 1.0}}]})
        status, payload = call(server, "GET", "/v1/allocate?fresh=false")
        assert status == 200
        assert set(payload["jobs"]) == {"x"}

    def test_get_allocate_fresh_true_forces_pending_batch(self, server):
        call(server, "POST", "/v1/jobs", {"jobs": [{"name": "x", "workload": {"a": 1.0}}]})
        status, payload = call(server, "GET", "/v1/allocate?fresh=true")
        assert status == 200
        assert set(payload["jobs"]) == {"x"}

    def test_get_allocate_rejects_bad_flag(self, server):
        status, payload = call(server, "GET", "/v1/allocate?fresh=perhaps")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestKeepAliveLatency:
    """A keep-alive read is answered in one write, so it never waits on
    the client's delayed ACK (~40 ms)."""

    def test_keep_alive_round_trips_do_not_stall(self, server):
        call(server, "POST", "/v1/allocate", {"jobs": [{"name": "x", "workload": {"a": 1.0}}]})
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            samples = []
            for _ in range(50):
                t0 = time.perf_counter()
                conn.request("GET", "/v1/allocate?fresh=false")
                resp = conn.getresponse()
                resp.read()
                samples.append(time.perf_counter() - t0)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(samples) < 0.010


class TestFlusherResilience:
    def test_flusher_survives_a_poisoned_flush(self, server):
        # one raising due solve must not stop the solver loop, or every
        # later event would never reach a published allocation
        from repro.obs.instruments import FLUSH_ERRORS
        from repro.obs.registry import REGISTRY

        service = server.service
        real_allocation = service.allocation
        blew = threading.Event()

        def poisoned_allocation(*, fresh=True):
            if fresh and not blew.is_set():
                blew.set()
                raise RuntimeError("poisoned batch")
            return real_allocation(fresh=fresh)

        was_enabled, errors_before = REGISTRY.enabled, FLUSH_ERRORS.value
        REGISTRY.enabled = True
        service.allocation = poisoned_allocation
        try:
            status, _ = call(server, "POST", "/v1/jobs", {"jobs": [{"name": "x", "workload": {"a": 1.0}}]})
            assert status == 202
            assert blew.wait(timeout=5.0)
            # the loop kept running: the next due solve publishes the job
            deadline = 100
            while deadline:
                _, listing = call(server, "GET", "/v1/jobs")
                if listing["pagination"]["total"] == 1:
                    break
                deadline -= 1
                threading.Event().wait(0.02)
            assert set(listing["jobs"]) == {"x"}
            assert FLUSH_ERRORS.value >= errors_before + 1
        finally:
            service.allocation = real_allocation
            REGISTRY.enabled = was_enabled


class TestShutdownRace:
    def test_inflight_writes_get_answer_or_503(self):
        state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
        service = AllocationService(state, max_delay=0.005)
        srv = AioServiceServer(service, port=0, quiet=True).start()
        results, errors = [], []
        start = threading.Barrier(9)

        def fire(i):
            start.wait()
            for n in range(10):
                try:
                    status, _ = call(
                        srv, "POST", "/v1/jobs", {"jobs": [{"name": f"w{i}-{n}", "workload": {"a": 1.0}}]}
                    )
                    results.append(status)
                except (urllib.error.URLError, ConnectionError, OSError) as exc:
                    errors.append(exc)
                    return

        workers = [threading.Thread(target=fire, args=(i,)) for i in range(8)]
        for w in workers:
            w.start()
        start.wait()
        service.close()  # the service closes under the edge, then the edge stops
        srv.shutdown()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        # a write either landed fully (202) or bounced whole (503)
        assert set(results) <= {202, 503}
        # every accepted event is either applied or rejected, one version each
        assert service.events_accepted == service.state.version + service.events_rejected
