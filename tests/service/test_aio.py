"""Asyncio edge: read/write routes, admission, malformed requests, shutdown races."""

import ctypes
import json
import logging
import math
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.model.site import Site
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService, ServiceClosed
from repro.service.state import ClusterState
from tests.service.wire import exchange
from tests.obs.prometheus import parse_prometheus


def make_service(**kwargs):
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
    kwargs.setdefault("max_delay", 0.005)
    return AllocationService(state, **kwargs)


@pytest.fixture
def server():
    srv = AioServiceServer(make_service(), port=0, quiet=True).start()
    yield srv
    srv.shutdown()


def call(srv, method: str, path: str, body: dict | None = None):
    """(status, payload, headers) against a live edge."""
    url = f"http://127.0.0.1:{srv.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), dict(exc.headers)


JOBS = {"jobs": [{"name": "x", "workload": {"a": 1.0}}, {"name": "y", "workload": {"b": 1.0}}]}


def raw_request(srv, payload: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def errors_total(srv) -> float:
    url = f"http://127.0.0.1:{srv.port}/v1/metrics"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return parse_prometheus(resp.read().decode())["repro_service_errors_total"]


#: A request hidden in a body: run as a request, it deletes job ``victim``.
SMUGGLED = b"DELETE /v1/jobs/victim HTTP/1.1\r\nHost: t\r\n\r\n"


class TestReadEndpoints:
    def test_health(self, server):
        status, payload, _ = call(server, "GET", "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["sites"] == 2 and payload["jobs"] == 0

    def test_stats_reports_edge_and_admission(self, server):
        status, payload, _ = call(server, "GET", "/v1/stats")
        assert status == 200
        assert payload["edge"] == "aio"
        adm = payload["admission"]
        assert adm["max_pending"] == 1024 and adm["shed"] == 0

    def test_passive_allocate_serves_published_view(self, server):
        status, payload, _ = call(server, "GET", "/v1/allocate?fresh=false")
        assert status == 200
        assert payload["version"] == 0 and payload["jobs"] == {}

    def test_fresh_flag_rejects_garbage(self, server):
        status, payload, _ = call(server, "GET", "/v1/allocate?fresh=sometimes")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_metrics_prometheus(self, server):
        url = f"http://127.0.0.1:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")

    def test_spec_is_versioned_only(self, server):
        status, payload, _ = call(server, "GET", "/v1/spec")
        assert status == 200 and "routes" in payload
        status, _, _ = call(server, "GET", "/spec")
        assert status == 404

    def test_unknown_route_envelope(self, server):
        status, payload, _ = call(server, "GET", "/v1/nope")
        assert status == 404
        assert set(payload["error"]) >= {"code", "message"}


class TestWriteEndpoints:
    def test_submit_then_list_jobs(self, server):
        status, payload, _ = call(server, "POST", "/v1/jobs", JOBS)
        assert status == 202
        assert payload["pending_events"] >= 0
        assert payload["queued_jobs"] == ["x", "y"]
        # the solver publishes the post-write view before resolving the
        # future, so a follow-up read sees the jobs once flushed
        deadline = 50
        while deadline:
            _, listing, _ = call(server, "GET", "/v1/jobs")
            if listing["pagination"]["total"] == 2:
                break
            deadline -= 1
            threading.Event().wait(0.02)
        assert set(listing["jobs"]) == {"x", "y"}

    def test_allocate_round_trip(self, server):
        status, payload, _ = call(server, "POST", "/v1/allocate", JOBS)
        assert status == 200
        assert set(payload["jobs"]) == {"x", "y"}
        assert payload["queued_jobs"] == ["x", "y"]

    def test_delete_job(self, server):
        call(server, "POST", "/v1/allocate", JOBS)
        status, payload, _ = call(server, "DELETE", "/v1/jobs/x")
        assert status == 202
        status, payload, _ = call(server, "DELETE", "/v1/jobs/ghost")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_bad_body_is_400(self, server):
        status, payload, _ = call(server, "POST", "/v1/jobs", {"jobs": [{"name": "x"}]})
        assert status == 400

    def test_capacity_update(self, server):
        status, payload, _ = call(server, "POST", "/v1/capacity", {"site": "a", "capacity": 9.0})
        assert status == 202


class TestAdmission:
    def test_full_intake_sheds_with_retry_after(self):
        srv = AioServiceServer(make_service(), port=0, max_pending=0, quiet=True).start()
        try:
            status, payload, headers = call(srv, "POST", "/v1/jobs", JOBS)
            assert status == 429
            assert payload["error"]["code"] == "too_many_requests"
            retry = payload["error"]["detail"]["retry_after_seconds"]
            assert retry > 0
            assert int(headers["Retry-After"]) == max(1, math.ceil(retry))
            # reads are never shed
            status, _, _ = call(srv, "GET", "/v1/health")
            assert status == 200
            # /v1/stats serves the published snapshot (which predates the
            # shed); the live counters update immediately
            assert srv.admission_stats()["shed"] == 1
            assert srv.admission_stats()["admitted"] == 0
        finally:
            srv.shutdown()

    def test_retry_after_floor_and_backlog_scaling(self):
        service = make_service(max_delay=0.05)
        srv = AioServiceServer(service, max_pending=0, retry_floor=0.1)
        # no published view yet: p50 falls back to the coalescing delay,
        # backlog is the single incoming request -> the floor wins
        assert srv._retry_after() == pytest.approx(0.1)
        slow = AioServiceServer(make_service(max_delay=0.5), max_pending=0, retry_floor=0.1)
        assert slow._retry_after() == pytest.approx(0.5)


class TestMalformedRequests:
    def test_malformed_content_length_is_400(self, server):
        # int('abc') must surface as a 400 envelope, not a silent drop +
        # an unhandled task exception in the event loop
        raw = raw_request(
            server,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"bad_request" in raw and b"Content-Length" in raw
        assert b"Connection: close" in raw

    @pytest.mark.parametrize("content_length", ["-1", "+5", "1 2", ""])
    def test_content_length_must_be_one_decimal(self, server, content_length):
        raw = raw_request(
            server,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: %s\r\n\r\n{}" % content_length.encode(),
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"bad_request" in raw and b"Connection: close" in raw

    @pytest.mark.parametrize(
        "framing",
        [
            b"Transfer-Encoding: chunked\r\n",
            b"Content-Length: -%d\r\n" % len(SMUGGLED),
            b"Content-Length: %d\r\nContent-Length: 0\r\n" % len(SMUGGLED),
        ],
        ids=["transfer_encoding", "negative_length", "conflicting_lengths"],
    )
    def test_body_never_runs_as_the_next_request(self, server, framing):
        # a body the edge cannot delimit is refused before it is read: it
        # must not be parsed as a second request on the keep-alive connection
        status, payload, _ = call(server, "POST", "/v1/allocate", {"name": "victim", "workload": {"a": 1.0}})
        assert status == 200 and "victim" in payload["jobs"]
        responses = exchange(server.port, b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n" + framing + b"\r\n" + SMUGGLED)
        status, payload, _ = call(server, "POST", "/v1/allocate", {})  # applies anything queued
        assert "victim" in payload["jobs"]
        assert len(responses) == 1
        assert responses[0].startswith(b"HTTP/1.1 400 ")
        assert b"bad_request" in responses[0] and b"Connection: close" in responses[0]

    @pytest.mark.parametrize(
        "line",
        [b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"GET //[ HTTP/1.1\r\nHost: t\r\n\r\n"],
        ids=["line_over_reader_limit", "target_urlsplit_rejects"],
    )
    def test_unframeable_request_line_is_answered(self, server, caplog, line):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            raw = raw_request(server, line)
            status, _, _ = call(server, "GET", "/v1/health")  # a new connection is served
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"bad_request"' in raw and b"Connection: close" in raw
        assert status == 200
        assert not [r for r in caplog.records if "Unhandled exception" in r.getMessage()]

    def test_malformed_request_line_is_counted(self, server):
        before = errors_total(server)
        raw = raw_request(server, b"GARBAGE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ") and b"malformed request line" in raw
        assert errors_total(server) == before + 1

    def test_header_flood_is_431(self, server):
        # header count is bounded like http.client's 100-header cap
        flood = b"".join(b"X-Flood-%d: v\r\n" % i for i in range(150))
        raw = raw_request(server, b"GET /v1/health HTTP/1.1\r\n" + flood + b"\r\n")
        assert raw.startswith(b"HTTP/1.1 431 ")
        assert b"headers_too_large" in raw

    def test_idle_keepalive_timeout_drops_connection(self):
        # idle_timeout governs the between-requests readline; the served
        # response still arrives, then the connection closes silently
        srv = AioServiceServer(
            make_service(), port=0, quiet=True, request_timeout=30.0, idle_timeout=0.1
        ).start()
        try:
            raw = raw_request(srv, b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 200 ")  # EOF followed within ~0.1s
        finally:
            srv.shutdown()


    def test_dribbled_headers_share_one_request_deadline(self):
        # request_timeout bounds the whole request: a client feeding one
        # header line per 0.2 s never stalls 0.3 s on any single read, yet is
        # answered 408 once 0.3 s have passed since its request line
        srv = AioServiceServer(make_service(), port=0, quiet=True, request_timeout=0.3, idle_timeout=5.0).start()
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                sock.sendall(b"GET /v1/health HTTP/1.1\r\n")
                t0 = time.monotonic()
                sock.settimeout(0.2)
                raw, lines = b"", 0
                while not raw and lines < 8:
                    sock.sendall(b"X-Slow-%d: v\r\n" % lines)
                    lines += 1
                    try:
                        raw = sock.recv(65536)  # waits out the 0.2 s between lines
                    except TimeoutError:
                        pass
                elapsed = time.monotonic() - t0
            assert raw.startswith(b"HTTP/1.1 408 "), f"no 408 after {lines} dribbled lines"
            assert b"request_timeout" in raw and b"Connection: close" in raw
            assert 0.25 <= elapsed < 1.0 and lines <= 4
        finally:
            srv.shutdown()

    def test_slow_body_still_times_out(self):
        srv = AioServiceServer(make_service(), port=0, quiet=True, request_timeout=0.2).start()
        try:
            raw = raw_request(srv, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{")
            assert raw.startswith(b"HTTP/1.1 408 ") and b"request_timeout" in raw
        finally:
            srv.shutdown()


class TestShutdownRace:
    def test_inflight_writes_get_answer_or_503(self):
        """Writes racing shutdown() either land fully or bounce as 503 —
        the accounting invariant rules out partial mutation."""
        service = make_service()
        srv = AioServiceServer(service, port=0, quiet=True).start()
        results = []
        errors = []
        start = threading.Barrier(9)

        def fire(i):
            start.wait()
            for n in range(10):
                try:
                    status, _, _ = call(srv, "POST", "/v1/jobs",
                                        {"jobs": [{"name": f"w{i}-{n}", "workload": {"a": 1.0}}]})
                    results.append(status)
                except (urllib.error.URLError, ConnectionError, OSError) as exc:
                    errors.append(exc)
                    return

        workers = [threading.Thread(target=fire, args=(i,)) for i in range(8)]
        for w in workers:
            w.start()
        start.wait()
        srv.shutdown()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert set(results) <= {202, 503}
        # every accepted event is either applied or rejected - nothing
        # half-applied, nothing lost
        with pytest.raises(ServiceClosed):
            service.submit_all(())
        assert service.events_accepted == service.state.version + service.events_rejected

    def test_shutdown_is_idempotent_and_closes_service(self, server):
        service = server.service
        server.shutdown()
        server.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit_all(())
        with pytest.raises(urllib.error.URLError):
            call(server, "GET", "/v1/health")


RECEIVE_FAULTS = """
import socket
import threading
from repro.service.aio import _keep_receive_buffers_on_the_heap

def faults():
    return int(open("/proc/self/stat").read().rsplit(")", 1)[1].split()[7])

a, b = socket.socketpair()
counts = []

def reads(n=200):
    # what the event loop's thread does per request: a small request
    # received into a fresh 256 KiB buffer
    before = faults()
    for _ in range(n):
        a.send(b"x" * 100)
        b.recv(256 * 1024)
    counts.append(faults() - before)

def in_a_thread():
    t = threading.Thread(target=reads)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()

in_a_thread()
_keep_receive_buffers_on_the_heap()
in_a_thread()
print(*counts)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the minor-fault count from /proc")
def test_serve_keeps_receive_buffers_on_the_heap():
    """A read cost a page fault (and an mmap/munmap pair) on glibc until the
    mmap threshold rose by chance; ``serve`` pins it above the buffer."""
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("no glibc mallopt here")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", RECEIVE_FAULTS], env=env, capture_output=True, text=True, check=True)
    cold, pinned = map(int, out.stdout.split())
    if cold < 200:  # at least one fresh page a read, or there is nothing to show
        pytest.skip(f"the mmap threshold had already risen in this process ({cold} faults over 200 reads)")
    assert pinned <= 10
