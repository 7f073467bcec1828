"""A served write is checked per component, once.

Every block the pipeline solves passes the allocation rule set
(``repro.core.allocation.check_matrix``) against its component's
sub-cluster, and the served ``Allocation`` is stitched from those blocks
without a second, full-width check.  Here, through the service:

* a vector stream is served by the warm solver on every write: the rule
  set checks a vector site per resource, not the column sum of task rates
  against the site's stand-in scalar capacity;
* with the first two rungs poisoned, the ``psmf`` rung serves that stream
  (per-site DRF on a vector cluster), every answer valid;
* solving one vector component checks its block once, on every route
  through the multi-resource engine; a reduction that changes variables
  also checks its scalar split before scrubbing it, so a bad split raises
  instead of being scrubbed into shape;
* a memo block is read-only, and a rebound one is checked again;
* a warm write on a multi-component state builds none of the snapshot's
  whole-cluster dense views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import allocation, policies, sharding
from repro.core.allocation import CapacityViolationError, SolverError, SupportViolationError, check_matrix
from repro.core.amf import solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import engine
from repro.service.aio import AioServiceServer
from repro.service.solver import IncrementalAmfSolver
from repro.service.daemon import AllocationService
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from tests.service.test_partition import ledger_events
from tests.service.test_reference_construction import two_resource

DENSE_VIEWS = ("workloads", "demand_caps", "support")


def two_resource_stream(seed: int, n_events: int = 30):
    """The irreducible cpu/mem stream of the construction differential, as
    service events: s4 offers cpu alone, some edges are uncapped."""
    rng = np.random.default_rng(seed)
    sites, jobs, arrival = two_resource(rng)
    alive = [j.name for j in jobs]
    events = []
    for step in range(n_events):
        kind = rng.choice(["arrive", "depart", "capacity"], p=[0.45, 0.45, 0.10])
        if kind == "arrive" or len(alive) < 3:
            job = arrival(f"a{step}")
            alive.append(job.name)
            events.append(JobArrived(job))
        elif kind == "depart":
            events.append(JobDeparted(alive.pop(int(rng.integers(len(alive))))))
        else:
            site = sites[int(rng.integers(len(sites)))]
            scale = float(rng.uniform(0.8, 1.25))
            events.append(CapacityChanged(site.name, {res: x * scale for res, x in site.resource_vector.items()}))
    return sites, jobs, events


def test_vector_stream_is_served_without_a_fallback():
    sites, jobs, events = two_resource_stream(seed=20261003)
    service = AllocationService(ClusterState(sites, jobs), max_delay=0.0, observability=False)
    answers = [service.allocation(fresh=True)]
    for event in events:
        service.submit(event)
        answers.append(service.allocation(fresh=True))
    assert service.resilience.errors == []
    assert service.resilience.fallback_activations == 0
    assert {served.allocation.policy for served in answers} == {"amf-incremental"}
    assert service.incremental.stats.amrf_lps > 0  # the vector engine served these, not a reduction


def test_psmf_rung_serves_a_vector_stream(monkeypatch):
    def poisoned(cluster):
        raise SolverError("poisoned rung")

    monkeypatch.setattr(IncrementalAmfSolver, "__call__", lambda self, cluster: poisoned(cluster))
    monkeypatch.setitem(policies.POLICIES, "amf", poisoned)
    sites, jobs, events = two_resource_stream(seed=20261003)
    service = AllocationService(ClusterState(sites, jobs), max_delay=0.0, observability=False)
    answers = [service.allocation(fresh=True)]
    for event in events:
        service.submit(event)
        answers.append(service.allocation(fresh=True))
    assert len(answers) == 31
    assert service.resilience.served_by == {"psmf": 31}
    for served in answers:
        cluster = served.allocation.cluster
        assert cluster.is_multiresource and served.allocation.policy == "psdrf"
        check_matrix(cluster, served.allocation.matrix)  # the serving gate, per resource


def counting_checks(monkeypatch) -> list[int]:
    """Count every ``check_matrix`` call, wherever it is looked up."""
    calls = [0]
    real = allocation.check_matrix

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for module in (allocation, sharding, policies, engine):
        monkeypatch.setattr(module, "check_matrix", counted)
    return calls


VECTOR_COMPONENTS = {
    # irreducible: the LP engine
    "amrf": ([Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})], [{"cpu": 2.0, "mem": 1.0}, {"cpu": 1.0, "mem": 4.0}]),
    # one resource at one task's worth: the scalar reduction, k = 1
    "identity": ([Site("a", {"cpu": 8.0}), Site("b", {"cpu": 4.0})], [{"cpu": 1.0}] * 2),
    # one resource at two tasks' worth: the scalar reduction, k != 1
    "reduced": ([Site("a", {"cpu": 8.0}), Site("b", {"cpu": 4.0})], [{"cpu": 2.0}] * 2),
}

#: ``check_matrix`` calls a solve of one component of each route makes: the
#: block once, and on the k != 1 reduction its scalar split before that.
CHECKS = {"amrf": 1, "identity": 1, "reduced": 2}


def vector_component(route: str, workloads=({"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 2.0})):
    sites, per_task = VECTOR_COMPONENTS[route]
    jobs = [Job(name, w, resources=r) for name, w, r in zip("xy", workloads, per_task)]
    return sites, jobs


@pytest.mark.parametrize("route", sorted(VECTOR_COMPONENTS))
def test_a_vector_component_is_checked_once(monkeypatch, route):
    sites, jobs = vector_component(route)
    cluster = Cluster(sites, jobs)
    calls = counting_checks(monkeypatch)
    alloc = solve_amf(cluster)
    assert calls == [CHECKS[route]]
    assert alloc.policy == ("amrf" if route == "amrf" else "amf")
    calls[0] = 0
    served = AllocationService(ClusterState(sites, jobs), max_delay=0.0, observability=False).allocation()
    assert calls == [CHECKS[route]] and served.allocation.policy == "amf-incremental"
    np.testing.assert_array_equal(served.allocation.matrix, alloc.matrix)


@pytest.mark.parametrize("fault", ["off_support", "over_capacity"])
def test_a_bad_reduced_split_raises(monkeypatch, fault):
    # y runs at site a only; workloads far above the capacities, so that
    # over-committing site a breaks no demand cap
    sites, jobs = vector_component("reduced", workloads=({"a": 50.0, "b": 50.0}, {"a": 50.0}))
    real = engine._flow_split

    def bad_split(scalar, *args):
        matrix = np.array(real(scalar, *args))
        if fault == "off_support":
            matrix[1, 1] = 0.5  # y at site b
        else:
            matrix[:, 0] = scalar.demand_caps[:, 0]  # both at their cap at site a
        return matrix

    monkeypatch.setattr(engine, "_flow_split", bad_split)
    error = SupportViolationError if fault == "off_support" else CapacityViolationError
    with pytest.raises(error):
        solve_amf(Cluster(sites, jobs))


def test_memo_blocks_are_read_only():
    service = AllocationService(ClusterState([Site("a", 2.0), Site("b", 3.0)]), max_delay=0.0, observability=False)
    service.submit(JobArrived(Job("x", {"a": 1.0})))
    service.submit(JobArrived(Job("y", {"b": 1.0})))
    service.allocation()
    entries = list(service.incremental.memo._entries.values())
    assert len(entries) == 2
    for entry in entries:
        with pytest.raises(ValueError, match="read-only"):
            entry.matrix[0, 0] = 0.5


def test_a_rebound_block_is_checked_once_and_kept():
    service = AllocationService(ClusterState([Site("a", 2.0), Site("b", 3.0)]), max_delay=0.0, observability=False)
    service.submit(JobArrived(Job("x", {"a": 1.0})))
    service.submit(JobArrived(Job("y", {"b": 1.0})))
    first = service.allocation()
    entries = list(service.incremental.memo._entries.values())
    assert all(entry.checked for entry in entries)
    entries[0].matrix = np.array(entries[0].matrix) * 0.5  # still valid, no longer known-good
    assert not entries[0].checked and entries[1].checked
    replay = service.allocation()
    assert replay.cached and replay.allocation.policy == "amf-incremental"
    assert entries[0].checked and not entries[0].matrix.flags.writeable
    np.testing.assert_array_equal(replay.allocation.matrix.sum(axis=0), first.allocation.site_usage * [0.5, 1.0])


def test_a_sharded_write_builds_no_whole_snapshot_view():
    cluster, events = ledger_events("churn_sharded", seed=5, n_ops=30)
    state = ClusterState(cluster.sites, cluster.jobs)
    service = AllocationService(state, max_delay=0.0, observability=False)
    edge = AioServiceServer(service)
    edge._rendered(service.allocation(fresh=True))  # boot: every component is solved once
    writes = 0
    for event in events:
        service.submit(event)
        served = service.allocation(fresh=True)
        edge._rendered(served)
        snap = served.allocation.cluster
        assert snap is state.snapshot() and len(served.components) > 1
        assert served.allocation.policy == "amf-incremental"
        assert not set(DENSE_VIEWS) & set(vars(snap)), (event, sorted(set(DENSE_VIEWS) & set(vars(snap))))
        writes += 1
    assert writes >= 20
