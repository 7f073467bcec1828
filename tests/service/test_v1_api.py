"""The v1 control-plane surface: versioned routes, no unversioned
aliases, the uniform error envelope, pagination, and /v1/spec.

Golden tests — they pin the wire contract clients are told to rely on
(docs/api.md), so a failure here is an API break, not a refactor detail.
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
from repro.service.schema import API_SPEC, JobsQuery, SchemaError
from repro.service.state import ClusterState


# The /v1/stats leaves as the service has always served them.
STATS_KEYS = {
    "admission.admitted",
    "admission.intake_depth",
    "admission.max_pending",
    "admission.retry_floor",
    "admission.shed",
    "batching.batches",
    "batching.coalesced_events",
    "batching.folded_events",
    "batching.max_batch",
    "batching.max_delay",
    "batching.mean_batch",
    "cache.entries",
    "cache.evictions",
    "cache.hit_rate",
    "cache.hits",
    "cache.misses",
    "edge",
    "incremental.amrf_lps",
    "incremental.amrf_probes",
    "incremental.amrf_probes_skipped",
    "incremental.amrf_rounds",
    "incremental.basis_size",
    "incremental.cuts_generated",
    "incremental.deferred_checks",
    "incremental.deferred_refuted",
    "incremental.failures",
    "incremental.feasibility_solves",
    "incremental.frozen_by_cap",
    "incremental.frozen_by_cut",
    "incremental.jobs_folded",
    "incremental.probe_rollbacks",
    "incremental.probes_cold",
    "incremental.probes_cut_reject",
    "incremental.probes_early_accept",
    "incremental.probes_reused",
    "incremental.probes_warm",
    "incremental.rounds",
    "incremental.solves",
    "incremental.warm_cuts_seeded",
    "journal",
    "resilience.errors",
    "resilience.fallback_activations",
    "resilience.served_by",
    "resilience.solves",
    "sharding.last_shards",
    "sharding.shard_bases",
    "sharding.shard_cache_entries",
    "sharding.shard_cache_hits",
    "sharding.shard_cache_misses",
    "sharding.shard_solves",
    "solver.max_ms",
    "solver.mean_ms",
    "solver.p50_ms",
    "solver.p99_ms",
    "solver.solves",
    "state.events_accepted",
    "state.events_rejected",
    "state.jobs",
    "state.pending_events",
    "state.rejections_dropped",
    "state.rejections_logged",
    "state.sites",
    "state.version",
    "uptime_seconds",
}


@pytest.fixture
def server():
    REGISTRY.reset()
    TRACER.clear()
    state = ClusterState([Site("a", 2.0), Site("b", 3.0), Site("c", 1.0)])
    service = AllocationService(state, max_delay=0.005)
    srv = AioServiceServer(service, port=0, quiet=True).start()
    yield srv
    srv.shutdown()


def call(srv, method: str, path: str, body: dict | None = None):
    """Like the other suites' helper but also returns the response headers."""
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


class TestV1Reachability:
    def test_every_get_endpoint_answers_under_v1(self, server):
        for path in ("/v1/health", "/v1/stats", "/v1/jobs", "/v1/spec", "/v1/traces"):
            status, _, _ = call(server, "GET", path)
            assert status == 200, path

    def test_metrics_under_v1(self, server):
        url = f"http://127.0.0.1:{server.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")

    def test_post_delete_lifecycle_under_v1(self, server):
        status, payload, _ = call(
            server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}}
        )
        assert status == 200 and set(payload["jobs"]) == {"x"}
        status, payload, _ = call(
            server, "POST", "/v1/jobs", {"name": "y", "workload": {"b": 1.0}}
        )
        assert status == 202 and payload["queued_jobs"] == ["y"]
        status, _, _ = call(server, "POST", "/v1/capacity", {"site": "a", "capacity": 5.0})
        assert status == 202
        status, _, _ = call(server, "DELETE", "/v1/jobs/x")
        assert status == 202


class TestDeprecationHeaders:
    def test_unversioned_paths_are_plain_404(self, server):
        # only /v1/ is routed: the pre-v1 paths answer like any unknown path
        job = {"name": "x", "workload": {"a": 1.0}}
        for method, path, body in [("GET", "/jobs", None), ("POST", "/allocate", job)]:
            status, payload, headers = call(server, method, path, body)
            assert status == 404, path
            assert payload["error"]["code"] == "not_found"
            assert "Deprecation" not in headers and "Link" not in headers

    @pytest.mark.parametrize("path", ["/v1/health", "/v1/stats", "/v1/jobs", "/v1/spec"])
    def test_v1_routes_are_clean(self, server, path):
        status, _, headers = call(server, "GET", path)
        assert status == 200
        assert "Deprecation" not in headers
        assert "Link" not in headers

    def test_unknown_legacy_path_is_plain_404(self, server):
        status, _, headers = call(server, "GET", "/nope")
        assert status == 404 and "Deprecation" not in headers

    def test_spec_has_no_legacy_alias(self, server):
        status, payload, _ = call(server, "GET", "/spec")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestErrorEnvelope:
    """Every error body is {"error": {"code", "message", "detail"}}."""

    def envelope(self, payload):
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"code", "message", "detail"}
        return payload["error"]

    def test_bad_request(self, server):
        status, payload, _ = call(server, "POST", "/v1/jobs", {"name": "j"})
        assert status == 400
        err = self.envelope(payload)
        assert err["code"] == "bad_request"
        assert "workload" in err["message"]

    def test_not_found_path(self, server):
        status, payload, _ = call(server, "GET", "/v1/nope")
        assert status == 404
        assert self.envelope(payload)["code"] == "not_found"

    def test_not_found_job(self, server):
        status, payload, _ = call(server, "DELETE", "/v1/jobs/ghost")
        assert status == 404
        err = self.envelope(payload)
        assert err["code"] == "not_found" and "ghost" in err["message"]

    def test_bad_query_string(self, server):
        status, payload, _ = call(server, "GET", "/v1/jobs?limit=0")
        assert status == 400
        assert self.envelope(payload)["code"] == "bad_request"

    def test_unknown_field_rejected_with_envelope(self, server):
        status, payload, _ = call(
            server, "POST", "/v1/jobs", {"name": "j", "workload": {"a": 1.0}, "nope": 1}
        )
        assert status == 400
        assert "unknown fields" in self.envelope(payload)["message"]


class TestPagination:
    def seed_jobs(self, server, n):
        jobs = [{"name": f"j{i:02d}", "workload": {"a": 1.0}} for i in range(n)]
        status, _, _ = call(server, "POST", "/v1/allocate", {"jobs": jobs})
        assert status == 200

    def test_defaults(self, server):
        self.seed_jobs(server, 5)
        _, payload, _ = call(server, "GET", "/v1/jobs")
        page = payload["pagination"]
        assert page == {"limit": 100, "offset": 0, "total": 5, "returned": 5, "status": "active"}
        assert all(entry["status"] == "active" for entry in payload["jobs"].values())

    def test_limit_and_offset_window(self, server):
        self.seed_jobs(server, 6)
        _, payload, _ = call(server, "GET", "/v1/jobs?limit=2&offset=3")
        assert payload["pagination"]["returned"] == 2
        assert payload["pagination"]["total"] == 6
        assert list(payload["jobs"]) == ["j03", "j04"]

    def test_offset_past_end(self, server):
        self.seed_jobs(server, 3)
        _, payload, _ = call(server, "GET", "/v1/jobs?offset=10")
        assert payload["jobs"] == {} and payload["pagination"]["returned"] == 0

    @pytest.mark.parametrize("query", ["limit=0", "limit=1001", "limit=x", "offset=-1", "status=zzz", "nope=1"])
    def test_invalid_query_400(self, server, query):
        status, payload, _ = call(server, "GET", f"/v1/jobs?{query}")
        assert status == 400 and payload["error"]["code"] == "bad_request"

    def test_pending_filter_sees_queued_jobs(self, server):
        # queue without flushing: max_delay keeps the batch pending briefly
        call(server, "POST", "/v1/jobs", {"name": "p1", "workload": {"a": 1.0}})
        _, payload, _ = call(server, "GET", "/v1/jobs?status=pending")
        names = {n for n, e in payload["jobs"].items() if e["status"] == "pending"}
        # the flusher may have landed the batch already; either way the
        # filter answers without error and never lists it as active
        assert names <= {"p1"}
        assert all(e["status"] == "pending" for e in payload["jobs"].values())

    def test_status_all_merges_active_and_pending(self, server):
        self.seed_jobs(server, 2)
        _, payload, _ = call(server, "GET", "/v1/jobs?status=all")
        assert payload["pagination"]["status"] == "all"
        assert {"j00", "j01"} <= set(payload["jobs"])


class TestSpec:
    def test_spec_served_verbatim(self, server):
        status, payload, _ = call(server, "GET", "/v1/spec")
        assert status == 200 and payload == json.loads(json.dumps(API_SPEC))

    def test_spec_covers_every_route(self, server):
        _, payload, _ = call(server, "GET", "/v1/spec")
        routes = {(r["method"], r["path"]) for r in payload["routes"]}
        assert routes == {
            ("GET", "/v1/health"),
            ("GET", "/v1/stats"),
            ("GET", "/v1/metrics"),
            ("GET", "/v1/traces"),
            ("GET", "/v1/jobs"),
            ("GET", "/v1/allocate"),
            ("GET", "/v1/spec"),
            ("POST", "/v1/jobs"),
            ("POST", "/v1/capacity"),
            ("POST", "/v1/allocate"),
            ("DELETE", "/v1/jobs/<name>"),
        }
        assert payload["api_version"] == "v1"
        assert payload["pagination"]["limit"] == {"default": 100, "min": 1, "max": 1000}


class TestJobsQueryUnit:
    def test_defaults(self):
        q = JobsQuery.from_query({})
        assert (q.limit, q.offset, q.status) == (100, 0, "active")

    @pytest.mark.parametrize("params", [{"limit": "0"}, {"limit": "1001"}, {"offset": "-1"}, {"status": "none"}, {"bogus": "1"}])
    def test_rejections(self, params):
        with pytest.raises(SchemaError):
            JobsQuery.from_query(params)

    def test_bounds_accepted(self):
        assert JobsQuery.from_query({"limit": "1"}).limit == 1
        assert JobsQuery.from_query({"limit": "1000"}).limit == 1000


class TestShardingStats:
    def test_stats_expose_sharding_section(self, server):
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        _, stats, _ = call(server, "GET", "/v1/stats")
        sharding = stats["sharding"]
        assert "enabled" not in sharding  # every solve is per component
        assert sharding["last_shards"] >= 1
        assert sharding["shard_solves"] >= 1

    def test_stats_key_set_is_pinned(self, server):
        """Every /v1/stats field, dotted down to its leaf: clients (and the
        perf ledger) read these names, so removing a layer keeps them."""

        def leaves(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict) and key != "served_by":
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        _, stats, _ = call(server, "GET", "/v1/stats")
        assert set(leaves(stats)) == STATS_KEYS

    def test_stats_have_no_dist_section(self, server):
        # one process serves: there is no solver-worker pool to report on
        call(server, "POST", "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
        _, stats, _ = call(server, "GET", "/v1/stats")
        assert "dist" not in stats
        assert {"state", "solver", "sharding", "resilience", "admission"} <= stats.keys()
