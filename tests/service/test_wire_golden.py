"""The edge's wire bytes, pinned: a request corpus against committed responses.

``CORPUS`` is ~30 raw requests on a 2-site, 2-job cluster whose AMF split is
unique (each job runs on a site of its own, and so does each job added
later).  It covers every route, every error class, keep-alive pipelining and
``Connection: close``.  ``wire_golden.json`` holds, for every case, the
responses the edge answered with at commit b96c964 (``"parent"``), captured
by :func:`capture`.  A case whose bytes changed on purpose since then also
holds ``"expected"`` and a ``"why"`` from :data:`WHY`; no other case may
differ.

Clock-dependent bytes are normalised by :mod:`tests.service.wire`: a real
solve's ``solve_ms`` is masked, and the bodies of ``/v1/stats``,
``/v1/metrics`` and ``/v1/traces`` are dropped (their status line and
headers are still compared).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.model.job import Job
from repro.model.site import Site
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService
from repro.service.schema import MAX_BODY_BYTES
from repro.service.state import ClusterState
from tests.service.wire import exchange, head_only, masked, request

GOLDEN = Path(__file__).with_name("wire_golden.json")

#: Why a case's bytes may differ from the parent capture.
WHY = {
    "drain_503_closes": "a write answered 503 by the shutdown drain carries Connection: close, like every 503",
    "framing": "Transfer-Encoding and any Content-Length other than one non-negative decimal are refused with 400",
    "spec_text": "the bad_request description in /v1/spec names the framing causes",
    "unanswered": "the parent wrote no response at all (the connection was dropped)",
}


class Case(NamedTuple):
    name: str
    raw: bytes
    server: str = "main"  # "main", "shed" (max_pending=0) or "drained" (solver stopped)
    timed: bool = False  # a body that carries timings: compare the head only


def _post(target: str, payload, **kw) -> bytes:
    return request("POST", target, json.dumps(payload).encode(), **kw)


def _get(target: str, **kw) -> bytes:
    return request("GET", target, **kw)


def _job(name: str, site: str) -> dict:
    return {"name": name, "workload": {site: 1.0}}


CORPUS: tuple[Case, ...] = (
    # -- reads, pipelined on one keep-alive connection -----------------
    Case(
        "reads_keepalive",
        _get("/v1/health")
        + _get("/v1/allocate?fresh=false")
        + _get("/v1/allocate")
        + _get("/v1/jobs")
        + _get("/v1/jobs?limit=1&offset=1")
        + _get("/v1/jobs?status=pending"),
    ),
    Case("spec", _get("/v1/spec")),
    Case("stats", _get("/v1/stats"), timed=True),
    Case("metrics", _get("/v1/metrics"), timed=True),
    Case("traces", _get("/v1/traces"), timed=True),
    Case("stats_close", _get("/v1/stats", close=True), timed=True),
    # Connection: close ends the connection: the second request is unanswered
    Case("health_close", _get("/v1/health", close=True) + _get("/v1/health")),
    Case("allocate_view_close", _get("/v1/allocate?fresh=false", close=True)),
    Case("jobs_close", _get("/v1/jobs", close=True)),
    # -- writes ---------------------------------------------------------
    Case(
        "writes_keepalive",
        _post("/v1/jobs", {"jobs": [_job("z", "a")]})
        + _get("/v1/health")
        + _get("/v1/jobs?status=pending")
        + _post("/v1/capacity", {"site": "b", "capacity": 4.0})
        + _get("/v1/allocate?fresh=true")
        + _get("/v1/allocate?fresh=false")
        + request("DELETE", "/v1/jobs/z")
        + _post("/v1/allocate", {})
        + _post("/v1/allocate", {"jobs": [_job("w", "b")]})
        + request("POST", "/v1/allocate"),
    ),
    Case("write_close", _post("/v1/jobs", _job("v", "a"), close=True) + _get("/v1/health")),
    Case("delete_quoted", request("DELETE", "/v1/jobs/v%20x") + request("DELETE", "/v1/jobs/v")),
    Case("allocate_close", _post("/v1/allocate", {}, close=True)),
    # -- 400: the body or the query does not validate -------------------
    Case(
        "bad_bodies",
        request("POST", "/v1/jobs", b"{not json")
        + request("POST", "/v1/jobs", b"[1, 2, 3]")
        + request("POST", "/v1/jobs", b"\xff\xfe")
        + _post("/v1/jobs", {"name": "j", "workload": {"a": "lots"}})
        + _post("/v1/jobs", {})
        + request("POST", "/v1/jobs", b'{"name": "j", "workload": {"a": NaN}}')
        + request("POST", "/v1/capacity", b'{"site": "a", "capacity": Infinity}')
        + _post("/v1/capacity", {"site": "a", "capacity": {"cpu": 1.0}})
        + _post("/v1/capacity", {"site": "nowhere", "capacity": 1.0})
        + _post("/v1/jobs", {"name": "r", "workload": {"a": 1.0}, "resources": {"gpu": 1.0}}),
    ),
    Case(
        "bad_queries",
        _get("/v1/allocate?fresh=sometimes") + _get("/v1/jobs?limit=0") + _get("/v1/jobs?colour=red"),
    ),
    Case("bad_query_close", _get("/v1/jobs?limit=x", close=True) + _get("/v1/health")),
    # -- 404: an error on keep-alive leaves the connection open ----------
    Case(
        "not_found",
        _get("/nope")
        + _get("/v1/nope")
        + _get("/v1")
        + _get("/jobs/x")
        + _post("/v1/nope", {})
        + request("POST", "/v1/nope", b"{bad")
        + request("PUT", "/v1/jobs")
        + request("DELETE", "/v1/jobs/ghost")
        + request("DELETE", "/v1/jobs/")
        + request("DELETE", "/v1/health")
        + _get("/v1/health"),
    ),
    Case("not_found_close", _get("/v1/nope", close=True) + _get("/v1/health")),
    # -- framing: answered, then the connection is closed ----------------
    Case("malformed_line", b"GARBAGE\r\n\r\n" + _get("/v1/health")),
    Case("bad_target", b"GET //[ HTTP/1.1\r\nHost: wire\r\n\r\n" + _get("/v1/health")),
    Case("content_length_abc", b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
    Case(
        "payload_too_large",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
    ),
    Case(
        "header_flood",
        b"GET /v1/health HTTP/1.1\r\n" + b"".join(b"X-Flood-%d: v\r\n" % i for i in range(150)) + b"\r\n",
    ),
    Case("short_body", b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"jobs"),
    Case(
        "transfer_encoding",
        b"POST /v1/allocate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"0\r\n\r\n" + _get("/v1/health"),
    ),
    Case(
        "negative_content_length",
        b"POST /v1/allocate HTTP/1.1\r\nContent-Length: -5\r\n\r\n" + _get("/v1/health"),
    ),
    Case(
        "conflicting_content_length",
        b"POST /v1/allocate HTTP/1.1\r\nContent-Length: 16\r\nContent-Length: 0\r\n\r\n"
        + _get("/v1/health"),
    ),
    Case("signed_content_length", b"POST /v1/allocate HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}"),
    # -- 429 and 503 ------------------------------------------------------
    Case("shed", _post("/v1/jobs", {"jobs": [_job("s", "a")]}) + _get("/v1/health"), server="shed"),
    Case("drained", _post("/v1/jobs", {"jobs": [_job("d", "a")]}) + _get("/v1/health"), server="drained"),
)


def _service() -> AllocationService:
    # no timed solve in the corpus's lifetime: a batch is solved only when
    # a request forces it, so pending counts are part of the bytes
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)], [Job("x", {"a": 1.0}), Job("y", {"b": 1.0})])
    return AllocationService(state, max_delay=3600.0)


def _normalised(case: Case, responses: list[bytes]) -> list[str]:
    cut = head_only if case.timed else masked
    return [cut(r).decode("latin-1") for r in responses]


def corpus_server(kind: str) -> AioServiceServer:
    """A started server of ``kind``: ``"main"``, ``"shed"`` or ``"drained"`` (see :class:`Case`)."""
    from repro.service import aio

    shed = {"max_pending": 0} if kind == "shed" else {}
    srv = AioServiceServer(_service(), port=0, quiet=True, **shed).start()
    if kind == "drained":
        # the race shutdown() guards against, held open: the solver took its
        # final drain and exited while the edge still admits writes
        srv._intake.put(aio._STOP)
        srv._solver_thread.join(timeout=30.0)
    return srv


def run_corpus() -> dict[str, list[str]]:
    """Each case's normalised responses, in corpus order on fresh servers."""
    out: dict[str, list[str]] = {}
    servers: dict[str, AioServiceServer] = {}
    try:
        for kind in ("main", "shed", "drained"):
            servers[kind] = corpus_server(kind)
        for case in CORPUS:
            out[case.name] = _normalised(case, exchange(servers[case.server].port, case.raw))
    finally:
        for srv in servers.values():
            srv.shutdown()
    return out


def capture(path: Path = GOLDEN) -> None:
    """Write the current edge's answers as the ``"parent"`` side of the golden."""
    cases = {name: {"parent": responses} for name, responses in run_corpus().items()}
    path.write_text(json.dumps({"cases": cases}, indent=1, ensure_ascii=True) + "\n")


@pytest.fixture(scope="module")
def answered() -> dict[str, list[str]]:
    return run_corpus()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())["cases"]


class TestEdgeGolden:
    def test_corpus_is_the_golden_corpus(self, golden):
        assert list(golden) == [case.name for case in CORPUS]
        answers = sum(len(entry["parent"]) for entry in golden.values())
        assert len(CORPUS) >= 25 and answers >= 50

    @pytest.mark.parametrize("case", CORPUS, ids=[case.name for case in CORPUS])
    def test_bytes_match(self, case, answered, golden):
        entry = golden[case.name]
        assert answered[case.name] == entry.get("expected", entry["parent"])

    def test_every_difference_is_listed(self, golden):
        for name, entry in golden.items():
            if "expected" in entry:
                assert entry["why"] in WHY, name
                assert entry["expected"] != entry["parent"], f"{name}: stale expected bytes"
            else:
                assert "why" not in entry, name

    def test_corpus_covers_every_status(self, golden):
        statuses = {
            int(response.split(" ", 2)[1])
            for entry in golden.values()
            for response in entry.get("expected", entry["parent"])
        }
        assert statuses >= {200, 202, 400, 404, 408, 413, 429, 431, 503}
