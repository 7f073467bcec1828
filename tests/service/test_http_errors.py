"""HTTP error paths: exact status codes, liveness after failures, the
/metrics <-> /stats cross-check, and a wire-format round-trip property.

Regression suite for two service-edge bugs: non-finite numbers slipping
through validation (json.loads happily parses ``Infinity``/``NaN``
literals), and ``DELETE /jobs/<name>`` neither URL-decoding the name nor
distinguishing "unknown job" (404) from a server fault (500)."""

import http.client
import json
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.job import Job
from repro.model.serialize import job_to_dict
from repro.model.site import Site
from repro.obs.instruments import STATS_METRICS
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService, ServiceClosed
from repro.service.schema import MAX_BODY_BYTES, JobSpec
from repro.service.state import ClusterState, StateError
from tests.obs.prometheus import parse_prometheus


@pytest.fixture
def server():
    # fresh instrument totals so /metrics can be compared against /stats
    REGISTRY.reset()
    TRACER.clear()
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
    service = AllocationService(state, max_delay=0.005)
    srv = AioServiceServer(service, port=0, quiet=True).start()
    yield srv
    srv.shutdown()


def call(srv, method: str, path: str, body: dict | None = None, raw: bytes | None = None):
    url = f"http://127.0.0.1:{srv.port}{path}"
    data = raw if raw is not None else (json.dumps(body).encode() if body is not None else None)
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def assert_alive(srv):
    status, payload = call(srv, "GET", "/v1/health")
    assert status == 200 and payload["status"] == "ok"


class TestMalformedBodies:
    def test_invalid_json_400(self, server):
        status, payload = call(server, "POST", "/v1/jobs", raw=b"{not json")
        assert status == 400 and "error" in payload
        assert_alive(server)

    def test_non_object_body_400(self, server):
        status, payload = call(server, "POST", "/v1/jobs", raw=b"[1, 2, 3]")
        assert status == 400 and "object" in payload["error"]["message"]
        assert_alive(server)

    def test_non_numeric_workload_400(self, server):
        status, payload = call(
            server, "POST", "/v1/jobs", {"name": "j", "workload": {"a": "lots"}}
        )
        assert status == 400 and "malformed job" in payload["error"]["message"]
        assert_alive(server)

    def test_workload_not_a_mapping_400(self, server):
        status, _ = call(server, "POST", "/v1/jobs", {"name": "j", "workload": [1.0]})
        assert status == 400
        assert_alive(server)

    @pytest.mark.parametrize(
        "path, raw",
        [
            ("/v1/jobs", b"\xff\xfe"),
            ("/v1/jobs", b'{"name": "\xff", "workload": {"a": 1.0}}'),
            ("/v1/allocate", b"\xff\xfe"),
            ("/v1/capacity", b'{"site": "\xff", "capacity": 1.0}'),
        ],
    )
    def test_non_utf8_body_400(self, server, path, raw):
        """A body that is not UTF-8 is a bad request like any other
        unparsable body, never a 500 ``UnicodeDecodeError``."""
        status, payload = call(server, "POST", path, raw=raw)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "utf-8" in payload["error"]["message"]
        assert_alive(server)


class TestNonFiniteInputs:
    """json.loads parses Infinity/NaN literals, so these reach the handler
    as real floats and must be rejected there -- not crash the solver."""

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_workload_400(self, server, value):
        raw = b'{"name": "j", "workload": {"a": %s}}' % value.encode()
        status, payload = call(server, "POST", "/v1/jobs", raw=raw)
        assert status == 400 and "finite" in payload["error"]["message"]
        assert_alive(server)

    @pytest.mark.parametrize("field", ["weight", "arrival"])
    def test_non_finite_scalar_fields_400(self, server, field):
        raw = json.dumps({"name": "j", "workload": {"a": 1.0}, field: float("nan")}).encode()
        status, _ = call(server, "POST", "/v1/jobs", raw=raw)
        assert status == 400
        assert_alive(server)

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "0.0", "-2.0"])
    def test_bad_capacity_400(self, server, value):
        raw = b'{"site": "a", "capacity": %s}' % value.encode()
        status, payload = call(server, "POST", "/v1/capacity", raw=raw)
        assert status == 400 and "capacity" in payload["error"]["message"]
        assert_alive(server)
        # the bad value never reached the state
        status, payload = call(server, "GET", "/v1/health")
        assert payload["sites"] == 2

    def test_finite_capacity_still_accepted(self, server):
        status, _ = call(server, "POST", "/v1/capacity", {"site": "a", "capacity": 4.0})
        assert status == 202


class TestDeleteJob:
    def test_url_encoded_name_round_trip(self, server):
        """A job named "map reduce" must be deletable: the DELETE path
        arrives percent-encoded and the handler must unquote it."""
        call(server, "POST", "/v1/allocate", {"name": "map reduce", "workload": {"a": 1.0}})
        status, _ = call(server, "DELETE", "/v1/jobs/" + quote("map reduce"))
        assert status == 202
        status, payload = call(server, "POST", "/v1/allocate")
        assert status == 200 and payload["jobs"] == {}

    def test_unicode_name_round_trip(self, server):
        name = "jöb/α"
        call(server, "POST", "/v1/allocate", {"name": name, "workload": {"b": 1.0}})
        status, _ = call(server, "DELETE", "/v1/jobs/" + quote(name, safe=""))
        assert status == 202
        status, payload = call(server, "POST", "/v1/allocate")
        assert payload["jobs"] == {}

    def test_unknown_job_404(self, server):
        status, payload = call(server, "DELETE", "/v1/jobs/ghost")
        assert status == 404 and "unknown job" in payload["error"]["message"]
        assert_alive(server)

    def test_queued_but_unflushed_job_is_deletable(self, server):
        # the arrival may not be solved yet when the DELETE lands; it is in
        # the state from its 202 on, so the DELETE is not answered 404
        call(server, "POST", "/v1/jobs", {"name": "q", "workload": {"a": 1.0}})
        status, _ = call(server, "DELETE", "/v1/jobs/q")
        assert status == 202
        # its departure is in the state too: a second DELETE finds no job
        status, payload = call(server, "DELETE", "/v1/jobs/q")
        assert status == 404 and "unknown job" in payload["error"]["message"]

    def test_bare_jobs_path_404(self, server):
        status, _ = call(server, "DELETE", "/v1/jobs/")
        assert status == 404
        status, _ = call(server, "DELETE", "/v1/jobs")
        assert status == 404


class TestUnknownRoutes:
    @pytest.mark.parametrize("method,path", [
        ("GET", "/nope"),
        ("POST", "/nope"),
        ("DELETE", "/nope"),
        ("GET", "/jobs/x"),
    ])
    def test_404(self, server, method, path):
        status, payload = call(server, method, path)
        assert status == 404 and "error" in payload
        assert_alive(server)


class TestOversizedBody:
    def test_content_length_over_limit_413(self, server):
        # claim a huge body but never send it: the handler must refuse from
        # the header alone instead of stalling on a 4 MiB read
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            payload = json.loads(resp.read().decode())
            assert "exceeds" in payload["error"]["message"]
            # the unread body poisons the connection; the server closes it
            assert resp.headers.get("Connection", "").lower() == "close"
        finally:
            conn.close()
        assert_alive(server)

    def test_bad_content_length_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            resp.read()
        finally:
            conn.close()
        assert_alive(server)


class TestObservabilityEndpoints:
    def test_metrics_parse_and_cross_check_stats(self, server):
        """/metrics must be valid Prometheus text, and every counter it
        renders from the stats table must equal the /stats field it names."""
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        call(server, "POST", "/v1/allocate", {"name": "y", "workload": {"b": 2.0}})
        _, stats = call(server, "GET", "/v1/stats")

        url = f"http://127.0.0.1:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            samples = parse_prometheus(resp.read().decode())

        assert stats["incremental"]["failures"] == 0
        assert stats["incremental"]["solves"] >= 1
        for metric in STATS_METRICS:
            section, key = metric.path.split(".")
            expected = 0 if stats[section] is None else stats[section][key]
            assert samples[metric.name] == expected, metric.name
        assert samples["repro_service_requests_total"] >= 3

    def test_traces_serve_chrome_json(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        status, doc = call(server, "GET", "/v1/traces")
        assert status == 200
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"service.allocate", "amf.solve", "flow.probe"} <= names
        probe_parents = {
            ev["args"]["parent"] for ev in doc["traceEvents"] if ev["name"] == "flow.probe"
        }
        assert probe_parents == {"amf.solve"}

    def test_errors_counted(self, server):
        call(server, "GET", "/nope")
        _, _ = call(server, "GET", "/v1/health")
        url = f"http://127.0.0.1:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            samples = parse_prometheus(resp.read().decode())
        assert samples["repro_service_errors_total"] >= 1


# -- wire-format round-trip property -----------------------------------

_names = st.text(min_size=1, max_size=20).filter(lambda s: s.strip())
_values = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
_workloads = st.dictionaries(_names, _values, min_size=1, max_size=4)


class TestWireRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        name=_names,
        workload=_workloads,
        weight=_values,
        arrival=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        data=st.data(),
    )
    def test_job_round_trips_through_wire_format(self, name, workload, weight, arrival, data):
        demand_sites = data.draw(st.sets(st.sampled_from(sorted(workload))))
        demand = {s: data.draw(_values) for s in sorted(demand_sites)}
        job = Job(name, workload, demand, weight=weight, arrival=arrival)
        # through JSON: exactly what POST /v1/jobs would carry, in the one
        # job encoding cluster files and the journal use too
        rebuilt = JobSpec.from_json(json.loads(json.dumps(job_to_dict(job)))).to_job()
        assert rebuilt.name == job.name
        assert dict(rebuilt.workload) == dict(job.workload)
        assert dict(rebuilt.demand) == dict(job.demand)
        assert rebuilt.weight == job.weight and rebuilt.arrival == job.arrival

    @settings(max_examples=25, deadline=None)
    @given(workload=_workloads, bad=st.sampled_from([float("inf"), float("-inf"), float("nan")]))
    def test_non_finite_workload_always_rejected(self, workload, bad):
        site = sorted(workload)[0]
        poisoned = dict(workload, **{site: bad})
        with pytest.raises((StateError, ValueError)):
            JobSpec.from_json({"name": "j", "workload": poisoned}).to_job()


class TestRequestTimeout408:
    """A client that stalls mid-body (or under-delivers its declared
    Content-Length) gets the uniform envelope with 408, on a connection
    marked close — and the server stays alive for the next client."""

    @pytest.fixture
    def fast_server(self):
        REGISTRY.reset()
        state = ClusterState([Site("a", 2.0)])
        service = AllocationService(state, max_delay=0.005, observability=False)
        srv = AioServiceServer(service, port=0, quiet=True, request_timeout=0.5).start()
        yield srv
        srv.shutdown()

    def _post_partial(self, srv, declared: int, sent: bytes, *, close_early: bool):
        import socket

        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=10)
        try:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
                + sent
            )
            if close_early:
                sock.shutdown(socket.SHUT_WR)
            # a 408 is always Connection: close, so EOF delimits the response
            chunks = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return chunks
                chunks += chunk
        finally:
            sock.close()

    def test_short_body_answers_408_envelope(self, fast_server):
        raw = self._post_partial(fast_server, declared=500, sent=b'{"jobs', close_early=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"408" in head.splitlines()[0]
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "request_timeout"
        assert "500 expected bytes" in envelope["error"]["message"]
        assert_alive(fast_server)

    def test_stalled_body_answers_408_after_timeout(self, fast_server):
        # never send the rest, never close: the request deadline must fire
        raw = self._post_partial(fast_server, declared=500, sent=b'{"jo', close_early=False)
        assert b"408" in raw.splitlines()[0]
        assert b"request_timeout" in raw
        assert_alive(fast_server)

    def test_spec_documents_the_new_codes(self, fast_server):
        status, spec = call(fast_server, "GET", "/v1/spec")
        assert status == 200
        codes = spec["error_envelope"]["codes"]
        assert "request_timeout" in codes and "unavailable" in codes


class TestGracefulShutdown503:
    def test_closed_service_answers_503_envelope(self, server):
        service = server.service
        status, payload = call(server, "POST", "/v1/jobs", {"name": "j", "workload": {"a": 1.0}})
        assert status == 202
        # hold shutdown's final solve open so requests land mid-drain
        draining, release = threading.Event(), threading.Event()
        real_allocation = service.allocation

        def held_allocation(*, fresh=True):
            if server._closing:
                draining.set()
                release.wait(timeout=10)
            return real_allocation(fresh=fresh)

        service.allocation = held_allocation
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        try:
            assert draining.wait(timeout=10)
            status, payload = call(
                server, "POST", "/v1/jobs", {"name": "k", "workload": {"a": 1.0}}
            )
            assert status == 503
            assert payload["error"]["code"] == "unavailable"
            status, payload = call(server, "GET", "/v1/jobs")
            assert status == 503
        finally:
            release.set()
            stopper.join(timeout=30)
        assert not stopper.is_alive()
        with pytest.raises(ServiceClosed):
            service.submit_all(())
        assert service.stats()["state"]["pending_events"] == 0  # the final solve took the pending event

    def test_close_drains_queue_and_flushes_journal(self):
        state = ClusterState([Site("a", 2.0)])
        service = AllocationService(state, max_delay=60.0, observability=False)
        service.submit_all(
            [__import__("repro.service.state", fromlist=["JobArrived"]).JobArrived(
                Job(f"j{i}", {"a": 1.0})
            ) for i in range(3)]
        )
        assert state.version == 3  # one version per event, applied on acceptance
        service.close()
        assert state.n_jobs == 3 and state.version == 3  # the unsolved batch is kept, not dropped
        service.close()  # idempotent

    def test_submit_after_close_raises(self):
        from repro.service.daemon import ServiceClosed
        from repro.service.state import JobArrived

        service = AllocationService(ClusterState([Site("a", 2.0)]), observability=False)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(JobArrived(Job("j", {"a": 1.0})))
        with pytest.raises(ServiceClosed):
            service.allocation()
