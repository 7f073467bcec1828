"""The publish step of a write.

* ``/v1/stats`` reads the solve-time percentiles off the sorted window
  :class:`~repro.sim.scheduler.SolveStats` keeps: no ``np.percentile``, no
  pass over the window;
* on 300-op ledger streams the ``/v1/allocate`` tails, rendered per
  component with each memo entry's encoded jobs reused, equal a full
  re-render byte for byte.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.service import schema
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService, ServedAllocation
from repro.service.state import ClusterState
from tests.service.test_partition import ledger_events


class _NoPass(deque):
    """A window that refuses to be walked once ``refuse`` is set."""

    refuse = False

    def __iter__(self):
        if self.refuse:
            raise AssertionError("the solve-time window was walked")
        return super().__iter__()


def churned_service(workload: str = "churn_sharded", n_ops: int = 40) -> AllocationService:
    cluster, events = ledger_events(workload, seed=5, n_ops=n_ops)
    service = AllocationService(ClusterState(cluster.sites, cluster.jobs), max_delay=0.0, observability=False)
    for event in [None, *events]:
        if event is not None:
            service.submit(event)
        service.allocation(fresh=True)
    return service


class TestStatsReadTheSortedWindow:
    def test_stats_and_publish_answer_without_numpy_percentile(self, monkeypatch):
        service = churned_service()
        s = service.solve_stats
        assert s.solves > 10
        want = {q: 1e3 * float(np.percentile(s.samples, q)) for q in (50, 99)}

        def refused(*args, **kwargs):
            raise AssertionError("np.percentile was called")

        monkeypatch.setattr(np, "percentile", refused)
        window = _NoPass(s.samples, maxlen=s.samples.maxlen)
        monkeypatch.setattr(s, "samples", window)  # ranked afresh here, once
        window.refuse = True
        solver = service.stats()["solver"]
        assert (solver["p50_ms"], solver["p99_ms"]) == (want[50], want[99])
        edge = AioServiceServer(service)
        edge._publish()
        assert edge.view.stats["solver"]["p99_ms"] == want[99]
        assert edge.view.solve_p50_s == want[50] / 1e3


def tail_of(document: bytes) -> bytes:
    """The part of an ``/v1/allocate`` document the allocation determines."""
    return document[document.index(b'"jobs": ') :]


class TestRenderedTails:
    @pytest.mark.parametrize("workload", ["churn_connected", "churn_sharded", "churn_vector"])
    def test_tails_equal_a_full_re_render(self, workload):
        cluster, events = ledger_events(workload, seed=11, n_ops=300)
        service = AllocationService(ClusterState(cluster.sites, cluster.jobs), max_delay=0.0, observability=False)
        edge = AioServiceServer(service)
        served_tails, full_tails = hashlib.sha256(), hashlib.sha256()
        for event in [None, *events]:
            if event is not None:
                service.submit(event)
            served = service.allocation(fresh=True)
            assert served.components is not None  # the warm solver served it
            served_tails.update(tail_of(edge._rendered(served)[1]))
            whole = ServedAllocation(
                served.allocation,
                cached=served.cached,
                seconds=served.seconds,
                version=served.version,
                fingerprint=served.fingerprint,
            )
            full_tails.update(schema.allocation_payload(whole)[1])
        assert len(events) == 300
        assert served_tails.hexdigest() == full_tails.hexdigest()
