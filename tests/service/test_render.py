"""One render and one encoding per allocation, and the same bytes as before.

The served renderer (:func:`repro.service.schema.allocation_payload`) and
jobs listing are compared byte for byte with the dense reference kept in
``reference_render.py``; the asyncio edge's spliced documents (``head +
tail``, ``queued_jobs`` before the closing brace) are compared with
``json.dumps`` of the whole payload; and the live edge is checked to publish
an allocation document again only when the state version moved.
"""

import copy
import itertools
import json
import time
import urllib.request

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.amf import solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService, ServedAllocation
from repro.service.schema import JobsQuery, allocation_payload, jobs_listing_payload
from repro.service.state import ClusterState
from tests.conftest import random_cluster
from tests.multiresource.test_engine import random_mr_cluster
from tests.service import reference_render

AWKWARD = ['quo"te', "back\\slash", "naïve-β", "tab\there", "plain"]


def served_of(alloc: Allocation, *, cached=False, seconds=0.00123, version=7) -> ServedAllocation:
    return ServedAllocation(
        alloc, cached=cached, seconds=seconds, version=version, fingerprint=alloc.cluster.fingerprint()
    )


def document_of(payload: dict, tail: bytes) -> bytes:
    """The head fields encoded, their closing brace traded for the tail."""
    head = {key: payload[key] for key in ("policy", "cached", "solve_ms", "version", "fingerprint")}
    return json.dumps(head)[:-1].encode() + b", " + tail


def random_allocations() -> list[Allocation]:
    rng = np.random.default_rng(20261001)
    out = []
    for k in range(60):
        cluster = random_mr_cluster(rng, weights=True) if k % 3 == 0 else random_cluster(rng, weight_spread=1.0)
        alloc = solve_amf(cluster)
        out.append(alloc)
        # rows of zeros: some jobs hold nothing anywhere
        matrix = np.array(alloc.matrix)
        matrix[rng.random(cluster.n_jobs) < 0.4] = 0.0
        out.append(Allocation(cluster, matrix, policy="sparse"))
    sites = [Site(name, 2.0 + k) for k, name in enumerate(AWKWARD)]
    out.append(Allocation(Cluster(sites, []), np.zeros((0, len(sites))), policy="empty"))
    jobs = [Job(f"job {name}", {name: 1.0, AWKWARD[(k + 1) % len(AWKWARD)]: 0.5}) for k, name in enumerate(AWKWARD)]
    out.append(solve_amf(Cluster(sites, jobs)))
    return out


class TestRendererMatchesReference:
    def test_payload_bytes_equal_the_dense_renderer(self):
        seen_zero_row = seen_vector = False
        for alloc in random_allocations():
            for cached in (False, True):
                served = served_of(alloc, cached=cached, seconds=0.0 if cached else 0.00123)
                new, tail = allocation_payload(served)
                want = json.dumps(reference_render.allocation_payload(served))
                assert json.dumps(new) == want
                assert document_of(new, tail) == want.encode()
            seen_zero_row |= any(not entry["shares"] for entry in new["jobs"].values())
            seen_vector |= alloc.cluster.is_multiresource
            # plain Python numbers throughout: nothing numpy leaks into the document
            assert all(type(entry["aggregate"]) is float for entry in new["jobs"].values())
        assert seen_zero_row and seen_vector

    @pytest.mark.parametrize("status", ["active", "pending", "all"])
    def test_jobs_listing_bytes_equal_the_reference(self, status):
        alloc = random_allocations()[-1]
        payload = allocation_payload(served_of(alloc))[0]
        before = copy.deepcopy(payload)
        active = list(payload["jobs"])
        pending = ["queued-1", active[1], "queued-2"]  # one pending name is also active
        for limit, offset in itertools.product((1, 2, 3, 100, 1000), (0, 1, 4, 5, 6, 7, 50)):
            q = JobsQuery(limit=limit, offset=offset, status=status)
            page = jobs_listing_payload(payload, list(pending), q)
            want = reference_render.jobs_listing_payload(copy.deepcopy(before), list(pending), q)
            assert json.dumps(page) == json.dumps(want)
            assert payload == before, "the listing must not touch the payload it pages"
        assert active[1] not in jobs_listing_payload(payload, pending, JobsQuery(status="pending"))["jobs"]


class TestSplicedDocument:
    """``head + tail (+ queued_jobs)`` is the document ``json.dumps`` writes."""

    def edge(self) -> AioServiceServer:
        return AioServiceServer(AllocationService(ClusterState([Site("a", 1.0)])))

    def test_head_plus_tail_is_the_whole_document(self):
        edge = self.edge()
        for alloc in random_allocations():
            served = served_of(alloc)
            payload, document = edge._rendered(served)
            assert document == json.dumps(reference_render.allocation_payload(served)).encode()
            # the slot holds what a cache re-read of the same state would have rendered
            version, again, republished = edge._answer
            reread = served_of(alloc, cached=True, seconds=0.0)
            assert version == served.version
            assert republished == json.dumps(reference_render.allocation_payload(reread)).encode()
            assert again == reference_render.allocation_payload(reread)
            assert again["jobs"] is payload["jobs"]  # one rendering behind both

    @pytest.mark.parametrize("names", [[], ["x"], AWKWARD])
    def test_queued_jobs_spliced_before_the_closing_brace(self, names):
        state = ClusterState([Site("a", 2.0), Site("b", 3.0)], [Job("seed", {"a": 1.0, "b": 1.0})])
        with AioServiceServer(AllocationService(state, max_delay=0.005)) as srv:
            jobs = [{"name": name, "workload": {"a": 1.0}} for name in names]
            status, body = http(srv, "POST", "/v1/allocate", {"jobs": jobs})
            assert status == 200
            payload = json.loads(body)
            assert payload["queued_jobs"] == names and list(payload)[-1] == "queued_jobs"
            assert json.dumps(payload).encode() == body
            want = reference_render.allocation_payload(srv.service.allocation(fresh=False))
            assert mask(body) == mask(json.dumps({**want, "queued_jobs": names}).encode())


def http(srv, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(f"http://127.0.0.1:{srv.port}{path}", data=data, method=method)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, resp.read()


def mask(body: bytes) -> bytes:
    """``cached``/``solve_ms`` say how an answer was produced, not what it is."""
    doc = json.loads(body)
    doc["cached"], doc["solve_ms"] = None, None
    return json.dumps(doc).encode()


def wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class TestPublishSemantics:
    def start(self, max_delay: float) -> AioServiceServer:
        state = ClusterState(
            [Site("a", 2.0), Site("b", 3.0)], [Job("x", {"a": 1.0}), Job("y", {"a": 1.0, "b": 2.0})]
        )
        return AioServiceServer(AllocationService(state, max_delay=max_delay)).start()

    def test_read_after_allocate_is_the_rendered_cache_re_read(self):
        srv = self.start(max_delay=0.005)
        try:
            status, answer = http(srv, "POST", "/v1/allocate", {"name": "z", "workload": {"b": 1.0}})
            assert status == 200 and json.loads(answer)["cached"] is False
            _, read = http(srv, "GET", "/v1/allocate?fresh=false")
            assert read == json.dumps(allocation_payload(srv.service.allocation(fresh=False))[0]).encode()
            assert json.loads(read)["cached"] is True and mask(read) == mask(answer[: answer.rindex(b', "queued_jobs"')] + b"}")
        finally:
            srv.shutdown()

    def test_a_202_republishes_stats_and_health_only(self):
        srv = self.start(max_delay=30.0)  # nothing flushes on its own
        try:
            http(srv, "POST", "/v1/allocate", {})
            pending = 0
            writes = [
                ("DELETE", "/v1/jobs/x", None),
                ("POST", "/v1/jobs", {"name": "w", "workload": {"a": 1.0}}),
                ("POST", "/v1/capacity", {"site": "b", "capacity": 4.0}),
            ]
            for method, path, body in writes:
                before = srv.view
                status, _ = http(srv, method, path, body)
                assert status == 202
                pending += 1
                after = srv.view
                assert after is not before, "the 202 published a view"
                assert after.allocate_json is before.allocate_json, "the allocation document was encoded again"
                assert after.allocate is before.allocate
                assert json.loads(http(srv, "GET", "/v1/stats")[1])["state"]["pending_events"] == pending
                assert json.loads(http(srv, "GET", "/v1/health")[1])["pending_events"] == pending
                assert http(srv, "GET", "/v1/allocate?fresh=false")[1] == before.allocate_json
            assert json.loads(http(srv, "GET", "/v1/jobs?status=pending")[1])["jobs"] == {"w": {"status": "pending"}}
        finally:
            srv.shutdown()

    def test_a_flushed_batch_shows_in_the_view(self):
        srv = self.start(max_delay=0.01)
        try:
            http(srv, "POST", "/v1/allocate", {})
            before = srv.view
            assert http(srv, "DELETE", "/v1/jobs/x")[0] == 202
            wait_for(lambda: srv.view.version > before.version)
            view = srv.view
            assert "x" not in view.allocate["jobs"] and view.pending == 0
            assert view.allocate_json == json.dumps(view.allocate).encode()
            read = json.loads(http(srv, "GET", "/v1/allocate?fresh=false")[1])
            assert read["version"] == view.version == srv.service.state.version
            assert read["fingerprint"] == srv.service.state.snapshot().fingerprint()
        finally:
            srv.shutdown()
