"""``/v1/metrics`` and ``/v1/stats`` are two renderings of one snapshot.

Every row of :data:`repro.obs.instruments.STATS_METRICS` must scrape as
exactly the ``/v1/stats`` field it names, read from the same published
view.  The scenarios are the ones a process-global counter gets wrong: a
second service in the process, a library solve beside a service, a write
the fallback chain served, and a service that leaves the registry off.
"""

import json
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.core.amf import solve_amf
from repro.model.cluster import Cluster
from repro.model.site import Site
from repro.obs.instruments import STATS_METRICS
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService
from repro.service.journal import open_journal
from repro.service import solver as solver_mod
from repro.service.state import ClusterState
from tests.obs.prometheus import parse_prometheus


@contextmanager
def serving(state: ClusterState | None = None, **kwargs):
    state = state or ClusterState([Site("a", 2.0), Site("b", 3.0)])
    service = AllocationService(state, max_delay=0.005, **kwargs)
    srv = AioServiceServer(service, port=0, quiet=True).start()
    try:
        yield srv
    finally:
        srv.shutdown()


def get(srv, path: str) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{srv.port}{path}", timeout=10) as resp:
        return resp.read()


def post(srv, path: str, body: dict) -> int:
    req = urllib.request.Request(f"http://127.0.0.1:{srv.port}{path}", data=json.dumps(body).encode(), method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status


def scrape(srv) -> tuple[dict, dict[str, float]]:
    """``/v1/stats`` and ``/v1/metrics`` of one published view: the stats
    bytes are read on both sides of the scrape and must not have moved
    (a view's ``uptime_seconds`` differs from every other view's)."""
    for _ in range(100):
        before = get(srv, "/v1/stats")
        text = get(srv, "/v1/metrics").decode()
        if get(srv, "/v1/stats") == before:
            return json.loads(before), parse_prometheus(text)
        time.sleep(0.01)
    raise AssertionError("the published view kept moving")


def stats_value(stats: dict, path: str) -> float:
    section, key = path.split(".")
    return 0 if stats[section] is None else stats[section][key]


def assert_agree(stats: dict, samples: dict[str, float]) -> None:
    mismatched = {
        metric.name: (samples.get(metric.name), stats_value(stats, metric.path))
        for metric in STATS_METRICS
        if samples.get(metric.name) != stats_value(stats, metric.path)
    }
    assert not mismatched, f"metric != stats: {mismatched}"


class TestMetricsEqualStats:
    def test_two_services_in_one_process(self):
        with serving() as first:
            post(first, "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
            post(first, "/v1/allocate", {"name": "y", "workload": {"a": 1.0, "b": 1.0}})
            with serving() as second:
                post(second, "/v1/allocate", {"name": "z", "workload": {"b": 2.0}})
                stats, samples = scrape(second)
                assert stats["incremental"]["solves"] == 1
                assert_agree(stats, samples)
            stats, samples = scrape(first)
            assert stats["incremental"]["solves"] == 2
            assert_agree(stats, samples)

    def test_library_solve_beside_a_service(self):
        with serving() as srv:
            post(srv, "/v1/allocate", {"name": "x", "workload": {"a": 1.0, "b": 1.0}})
            assert REGISTRY.enabled  # the service switched the registry on
            solve_amf(Cluster.from_matrices([2.0, 3.0], [[1.0, 1.0], [1.0, 0.0]]))
            stats, samples = scrape(srv)
            assert stats["incremental"]["solves"] == 1
            assert_agree(stats, samples)

    def test_fallback_served_write(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("primary down")

        # the warm solver's pipeline call fails; the cold rung's solve_amf does not
        monkeypatch.setattr(solver_mod, "solve", broken)
        with serving() as srv:
            post(srv, "/v1/allocate", {"name": "x", "workload": {"a": 1.0, "b": 1.0}})
            stats, samples = scrape(srv)
            assert stats["resilience"]["served_by"].get("amf", 0) >= 1
            assert stats["incremental"]["solves"] == 0
            assert stats["cache"]["misses"] >= 1
            assert_agree(stats, samples)

    @pytest.fixture
    def obs_off(self):
        reg_on, trc_on = REGISTRY.enabled, TRACER.enabled
        REGISTRY.disable()
        TRACER.disable()
        yield
        REGISTRY.enabled, TRACER.enabled = reg_on, trc_on

    def test_no_obs_service_still_renders_its_counters(self, obs_off, tmp_path):
        state, journal, _ = open_journal(tmp_path, fallback_state=ClusterState([Site("a", 2.0), Site("b", 3.0)]))
        with serving(state, journal=journal, observability=False) as srv:
            post(srv, "/v1/allocate", {"name": "x", "workload": {"a": 1.0}})
            post(srv, "/v1/jobs", {"name": "y", "workload": {"b": 1.0}})
            post(srv, "/v1/allocate", {})
            assert not REGISTRY.enabled
            stats, samples = scrape(srv)
            assert stats["incremental"]["solves"] >= 1
            assert stats["journal"]["appends"] == 2
            assert stats["admission"]["admitted"] == 3
            assert_agree(stats, samples)
