"""Resource-vector v1 surface over HTTP.

Two promises under test:

* **canonical back-compat** — a request spelled with scalars and the same
  request spelled with ``{"slots": x}`` vectors produce *byte-identical*
  ``/v1`` responses (same fingerprints, same cache keys, same JSON);
* **multi-resource serving** — vector clusters allocate end-to-end through
  ``/v1/allocate``, and resource-shape violations answer 400 with the new
  ``resource_mismatch`` / ``unknown_resource`` error codes.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.model.site import Site
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService
from repro.service.state import ClusterState


def start_server(sites) -> AioServiceServer:
    service = AllocationService(ClusterState(sites), max_delay=0.005)
    return AioServiceServer(service, port=0, quiet=True).start()


def scalar_sites():
    return [Site("a", 2.0), Site("b", 3.0)]


def vector_sites():
    return [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})]


@pytest.fixture(autouse=True)
def _clean_obs():
    REGISTRY.reset()
    TRACER.clear()
    yield


def request_raw(srv, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    url = f"http://127.0.0.1:{srv.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def call(srv, method: str, path: str, body: dict | None = None):
    status, raw = request_raw(srv, method, path, body)
    return status, json.loads(raw.decode())


class TestCanonicalByteIdentity:
    def test_slots_spelling_is_byte_identical(self):
        """Same traffic, scalar vs ``{"slots": x}`` spelling, two servers:
        every byte of the cache-hit allocation and the jobs listing match."""
        spellings = [
            {"demand": {"a": 1.5}, "capacity": 4.0},
            {"demand": {"a": {"slots": 1.5}}, "capacity": {"slots": 4.0}},
        ]
        bodies = []
        for spelled in spellings:
            srv = start_server(scalar_sites())
            try:
                status, _ = call(
                    srv,
                    "POST",
                    "/v1/allocate",
                    {"name": "x", "workload": {"a": 2.0, "b": 1.0}, "demand": spelled["demand"]},
                )
                assert status == 200
                status, _ = call(srv, "POST", "/v1/capacity", {"site": "b", "capacity": spelled["capacity"]})
                assert status == 202
                # absorb the capacity change, then hit the allocation
                # cache: the replayed payload has solve_ms pinned to 0,
                # so every byte is deterministic
                status, _ = call(srv, "POST", "/v1/allocate", {})
                assert status == 200
                status, hit = request_raw(srv, "POST", "/v1/allocate", {})
                assert status == 200
                assert json.loads(hit.decode())["cached"] is True
                status, jobs = request_raw(srv, "GET", "/v1/jobs")
                assert status == 200
                bodies.append((hit, jobs))
            finally:
                srv.shutdown()
        assert bodies[0] == bodies[1]

    def test_explicit_slots_resources_field_is_canonical(self):
        srv = start_server(scalar_sites())
        try:
            status, plain = call(
                srv, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}}
            )
            assert status == 200
            status, _ = call(srv, "DELETE", "/v1/jobs/x")
            assert status == 202
            status, spelled = call(
                srv,
                "POST",
                "/v1/allocate",
                {"name": "x", "workload": {"a": 1.0}, "resources": {"slots": 1.0}},
            )
            assert status == 200
            assert spelled["fingerprint"] == plain["fingerprint"]
            assert spelled["jobs"] == plain["jobs"]
        finally:
            srv.shutdown()


class TestMultiResourceServing:
    def test_vector_allocate_end_to_end(self):
        srv = start_server(vector_sites())
        try:
            status, _ = call(
                srv,
                "POST",
                "/v1/jobs",
                {
                    "name": "j0",
                    "workload": {"a": 100.0, "b": 100.0},
                    "resources": {"cpu": 1.0, "mem": 4.0},
                },
            )
            assert status == 202
            status, payload = call(
                srv,
                "POST",
                "/v1/allocate",
                {
                    "name": "j1",
                    "workload": {"a": 100.0, "b": 100.0},
                    "resources": {"cpu": 4.0, "mem": 1.0},
                },
            )
            assert status == 200
            aggs = {name: j["aggregate"] for name, j in payload["jobs"].items()}
            assert aggs["j0"] > 0.0 and aggs["j1"] > 0.0
            status, stats = call(srv, "GET", "/v1/stats")
            assert status == 200
            assert stats["incremental"]["amrf_lps"] >= 1
        finally:
            srv.shutdown()

    def test_vector_demand_converts_to_task_cap(self):
        srv = start_server(vector_sites())
        try:
            status, payload = call(
                srv,
                "POST",
                "/v1/allocate",
                {
                    "name": "j",
                    "workload": {"a": 100.0},
                    "demand": {"a": {"cpu": 2.0, "mem": 8.0}},
                    "resources": {"cpu": 1.0, "mem": 4.0},
                },
            )
            # cap = min(2/1, 8/4) = 2 tasks; alone on site a that binds
            assert status == 200
            assert payload["jobs"]["j"]["aggregate"] == pytest.approx(2.0, abs=1e-6)
        finally:
            srv.shutdown()

    def test_vector_capacity_update(self):
        srv = start_server(vector_sites())
        try:
            status, _ = call(
                srv,
                "POST",
                "/v1/capacity",
                {"site": "a", "capacity": {"cpu": 16.0, "mem": 32.0}},
            )
            assert status == 202
            status, payload = call(
                srv,
                "POST",
                "/v1/allocate",
                {"name": "j", "workload": {"a": 100.0}, "resources": {"cpu": 1.0, "mem": 1.0}},
            )
            assert status == 200
            assert payload["jobs"]["j"]["aggregate"] == pytest.approx(16.0, abs=1e-5)
        finally:
            srv.shutdown()


class TestResourceErrorCodes:
    def test_unknown_resource_is_400(self):
        srv = start_server(vector_sites())
        try:
            status, payload = call(
                srv,
                "POST",
                "/v1/allocate",
                {"name": "j", "workload": {"a": 1.0}, "resources": {"gpu": 1.0}},
            )
            assert status == 400
            assert payload["error"]["code"] == "unknown_resource"
            assert "gpu" in payload["error"]["message"]
        finally:
            srv.shutdown()

    def test_capacity_resource_mismatch_is_400(self):
        srv = start_server(vector_sites())
        try:
            status, payload = call(
                srv, "POST", "/v1/capacity", {"site": "a", "capacity": {"cpu": 9.0}}
            )
            assert status == 400
            assert payload["error"]["code"] == "resource_mismatch"
        finally:
            srv.shutdown()

    def test_scalar_capacity_on_vector_site_is_mismatch(self):
        srv = start_server(vector_sites())
        try:
            status, payload = call(
                srv, "POST", "/v1/capacity", {"site": "a", "capacity": 5.0}
            )
            assert status == 400
            assert payload["error"]["code"] == "resource_mismatch"
        finally:
            srv.shutdown()

    def test_demand_map_mismatch_is_400(self):
        srv = start_server(scalar_sites())
        try:
            status, payload = call(
                srv,
                "POST",
                "/v1/allocate",
                {"name": "j", "workload": {"a": 1.0}, "demand": {"a": {"cpu": 1.0}}},
            )
            assert status == 400
            assert payload["error"]["code"] == "resource_mismatch"
        finally:
            srv.shutdown()

    def test_rejected_event_never_reaches_the_journal(self, tmp_path):
        """Fail-synchronous admission: the WAL stays free of doomed events."""
        from repro.service.journal import open_journal

        state, journal, _rec = open_journal(tmp_path, fallback_state=ClusterState(vector_sites()))
        service = AllocationService(state, max_delay=0.005, journal=journal)
        srv = AioServiceServer(service, port=0, quiet=True).start()
        try:
            status, _ = call(
                srv,
                "POST",
                "/v1/jobs",
                {"name": "bad", "workload": {"a": 1.0}, "resources": {"gpu": 1.0}},
            )
            assert status == 400
            text = "".join(p.read_text() for p in tmp_path.glob("*.jsonl"))
            assert "bad" not in text
        finally:
            srv.shutdown()


class TestSpecAdvertisesVectors:
    def test_spec_schema_version_and_codes(self):
        srv = start_server(scalar_sites())
        try:
            status, spec = call(srv, "GET", "/v1/spec")
            assert status == 200
            assert spec["schema_version"] == 2
            codes = spec["error_envelope"]["codes"]
            assert "resource_mismatch" in codes
            assert "unknown_resource" in codes
            job_fields = spec["schemas"]["JobSpec"]
            assert "resources" in job_fields
            assert "resource" in job_fields["demand"]  # dual form documented
        finally:
            srv.shutdown()
