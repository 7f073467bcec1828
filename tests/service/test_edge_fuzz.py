"""Raw request bytes from a small HTTP grammar, thrown at a live edge and at
its framing function.

Whatever arrives on a connection, the edge answers it: every connection
whose first line is not blank gets at least one response, every response is
well formed (a known status, ``Content-Length`` equal to the body length,
the error envelope on any status >= 400), and the server keeps serving.
How the bytes are cut into reads changes nothing: the wire-golden corpus
sent in arbitrary pieces is answered byte for byte as when sent at once.
:func:`repro.service.aio._frame` refuses with ``_HttpError`` or
``ValueError`` only, and frames at most one request.
"""

from __future__ import annotations

import json
import socket
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.site import Site
from repro.service import aio
from repro.service.aio import _REASONS, AioServiceServer, _frame, _HttpError
from repro.service.daemon import AllocationService
from repro.service.state import ClusterState
from tests.service.test_wire_golden import CORPUS, _normalised, corpus_server
from tests.service.wire import body_of, exchange, request, split_responses

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


# ----------------------------------------------------------------------
# Chunk boundaries: the corpus cut into arbitrary reads
# ----------------------------------------------------------------------
def _dribble(port: int, raw: bytes, cuts: list[int]) -> list[bytes]:
    """``raw`` sent in the pieces ``cuts`` make, a pause after each; then
    half-close and return every response, as :func:`exchange` does."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for start, end in zip([0, *cuts], [*cuts, len(raw)]):
                sock.sendall(raw[start:end])
                time.sleep(0.001)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the edge answered and closed before the rest arrived (EPIPE, ECONNRESET, ENOTCONN)
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except ConnectionResetError:
            pass
    return split_responses(b"".join(chunks))


def _answers(case, send) -> list[str]:
    srv = corpus_server(case.server)
    try:
        return _normalised(case, send(srv.port))
    finally:
        srv.shutdown()


@st.composite
def cut_cases(draw):
    case = draw(st.sampled_from(CORPUS))
    offsets = st.integers(min_value=1, max_value=max(1, len(case.raw) - 1))
    return case, sorted(set(draw(st.lists(offsets, max_size=12))))


_SMALL = next(case for case in CORPUS if case.name == "bad_queries")
_FLOOD = next(case for case in CORPUS if case.name == "header_flood")


class TestChunkBoundaries:
    @settings(max_examples=25, deadline=None)
    @given(cut=cut_cases())
    @example(cut=(_SMALL, list(range(1, len(_SMALL.raw)))))  # one byte a read
    @example(cut=(_FLOOD, list(range(1, len(_FLOOD.raw), 7))))
    def test_any_cut_is_answered_as_one_send(self, cut):
        case, cuts = cut
        whole = _answers(case, lambda port: exchange(port, case.raw))
        assert _answers(case, lambda port: _dribble(port, case.raw, cuts)) == whole


# ----------------------------------------------------------------------
# _frame without a socket
# ----------------------------------------------------------------------
class TestFrame:
    @settings(max_examples=300, deadline=None)
    @given(raw=raw_requests() | st.binary(max_size=200), extra=st.binary(max_size=64), eof=st.booleans())
    @example(raw=b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", extra=b"", eof=False)
    @example(raw=b"GET /" + b"a" * 70_000, extra=b"", eof=False)
    def test_refuses_with_edge_errors_and_frames_one_request(self, raw, extra, eof):
        buf = bytearray(raw)
        try:
            framed = _frame(buf, eof)
        except (_HttpError, ValueError):
            return
        assert buf == raw  # a pure function of the bytes
        if framed is None or framed[4] is None:
            assert not eof  # after EOF every request is framed or refused
            if framed is not None:  # the head is in: the length it names is still missing
                assert framed[0] > len(raw)
                assert _frame(bytearray(raw + bytes(framed[0] - len(raw))))[:4] == framed[:4]
            return
        consumed = framed[0]
        assert 0 < consumed <= len(raw)
        # a request needs none of the bytes after it, and (short of EOF,
        # which completes a last line) they never change it
        assert _frame(bytearray(raw[:consumed]), eof) == framed
        if not eof:
            assert _frame(bytearray(raw + extra)) == framed

    def test_a_dribbled_request_is_framed_once_a_line_and_once_its_body_is_in(self, server, monkeypatch):
        """A partial request is framed again only when new bytes can decide
        it, so a client dribbling a byte at a time costs no re-parse of its
        head per byte."""
        calls = []

        def counted(buf, eof=False):
            calls.append(len(buf))
            return _frame(buf, eof)

        monkeypatch.setattr(aio, "_frame", counted)
        body = json.dumps({"jobs": [{"name": "dribbled", "workload": {"a": 1.0}}]}).encode()
        raw = request("POST", "/v1/jobs", body, headers=["X-Pad: " + "p" * 40])
        head_lines = raw.count(b"\n")
        (answer,) = _dribble(server.port, raw, list(range(1, len(raw))))
        assert answer.startswith(b"HTTP/1.1 202 ")
        # once per head line, once for the body's last byte and once on the
        # empty buffer after the answer; unguarded it is once a byte
        assert len(calls) <= head_lines + 2 < len(raw) // 2, calls
