"""Raw request bytes from a small HTTP grammar, thrown at a live edge.

Whatever arrives on a connection, the edge answers it: every connection
whose first line is not blank gets at least one response, every response is
well formed (a known status, ``Content-Length`` equal to the body length,
the error envelope on any status >= 400), and the server keeps serving.
"""

from __future__ import annotations

import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.site import Site
from repro.service.aio import _REASONS, AioServiceServer
from repro.service.daemon import AllocationService
from repro.service.state import ClusterState
from tests.service.wire import body_of, exchange, request

_TOKEN = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=12)

METHODS = st.sampled_from(["GET", "POST", "DELETE", "PUT", "get", "HEAD", "G\x00T", "\xff\xfe"]) | _TOKEN

TARGETS = st.sampled_from(
    [
        "/v1/health",
        "/v1/stats",
        "/v1/jobs",
        "/v1/jobs?limit=0",
        "/v1/jobs/x%20y",
        "/v1/jobs/%ff%fe",
        "/v1/jobs/",
        "/v1/allocate",
        "/v1/allocate?fresh=true",
        "/v1/allocate?fresh=maybe",
        "/v1/capacity",
        "/v1/spec",
        "/v1/%",
        "//[",
        "http://[::1/v1/health",
        "*",
        "/nope",
        "/v1/" + "a" * 70_000,
    ]
) | _TOKEN.map(lambda s: "/" + s)

BODIES = st.sampled_from(
    [
        b"",
        b"{}",
        b'{"jobs": [{"name": "f", "workload": {"a": 1.0}}]}',
        b'{"site": "a", "capacity": 3.0}',
        b'{"site": "a", "capacity": Infinity}',
        b'{"name": "n", "workload": {"a": NaN}}',
        b"\xff\xfe",
        b"not json",
        b"[1, 2]",
    ]
) | st.binary(max_size=64)

#: Content-Length as a function of the body: right, short, long, or not one
#: non-negative decimal.
LENGTHS = st.sampled_from(
    [
        lambda n: str(n),
        lambda n: str(max(0, n - 1)),
        lambda n: str(n + 5),
        lambda n: str(-n - 1),
        lambda n: f"+{n}",
        lambda n: f"{n} {n}",
        lambda n: "abc",
        lambda n: "",
    ]
)

OTHER_HEADERS = st.sampled_from(
    [
        "Host: fuzz",
        "Connection: close",
        "Connection: keep-alive",
        "Transfer-Encoding: chunked",
        "Content-Type: application/json",
        "X-Dup: 1",
        "a line without a colon",
        ": no name",
    ]
)


@st.composite
def raw_requests(draw) -> bytes:
    body = draw(BODIES)
    headers = draw(st.lists(OTHER_HEADERS, max_size=4))
    for fn in draw(st.lists(LENGTHS, max_size=2)):
        headers.append(f"Content-Length: {fn(len(body))}")
    headers = draw(st.permutations(headers))
    line = f"{draw(METHODS)} {draw(TARGETS)} HTTP/1.1"
    return ("\r\n".join([line, *headers]) + "\r\n\r\n").encode("latin-1") + body


def assert_well_formed(response: bytes) -> None:
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, f"truncated response {response[:200]!r}"
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    assert status in _REASONS, lines[0]
    fields = dict(line.split(": ", 1) for line in lines[1:])
    assert int(fields["Content-Length"]) == len(body)
    if status >= 400:
        envelope = json.loads(body)
        assert list(envelope) == ["error"]
        assert set(envelope["error"]) == {"code", "message", "detail"}


@pytest.fixture(scope="module")
def server():
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
    srv = AioServiceServer(AllocationService(state, max_delay=0.005), port=0, quiet=True).start()
    yield srv
    srv.shutdown()


class TestOnePathFuzz:
    @settings(max_examples=100, deadline=None)
    @given(raw=raw_requests())
    @example(raw=b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
    @example(raw=b"GET //[ HTTP/1.1\r\nHost: t\r\n\r\n")
    def test_every_connection_is_answered(self, server, raw):
        responses = exchange(server.port, raw)
        assert responses, f"no answer to {raw[:200]!r}"
        for response in responses:
            assert_well_formed(response)
        (health,) = exchange(server.port, request("GET", "/v1/health"))
        assert health.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body_of(health))["status"] == "ok"
