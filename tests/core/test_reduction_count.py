"""The scalar reduction runs once per job-bearing vector component.

``solve_multiresource`` asks :func:`~repro.multiresource.engine.scalar_reduction`
whether a component is a change of variables away from the scalar problem;
the engine counts the components it then solved itself
(``AmfDiagnostics.amrf_components``), and ``solve_amf`` labels the
allocation ``"amrf"`` from that count.  Nothing asks the reduction a second
time for the label, in ``solve_amf`` or on the served path.
"""

from __future__ import annotations

import pytest

from repro.core.amf import AmfDiagnostics, solve_amf
from repro.core.sharding import decompose
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import engine
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import ClusterState
from tests.service.test_partition import ledger_events


@pytest.fixture
def reductions(monkeypatch):
    """The clusters ``scalar_reduction`` was asked about, in order."""
    asked: list[Cluster] = []
    real = engine.scalar_reduction

    def counted(cluster, resource_totals=None):
        asked.append(cluster)
        return real(cluster, resource_totals)

    monkeypatch.setattr(engine, "scalar_reduction", counted)
    return asked


def crossing(prefix: str) -> tuple[list[Site], list[Job]]:
    """Two sites where cpu and mem cross: no resource dominates."""
    sites = [Site(f"{prefix}a", {"cpu": 8.0, "mem": 16.0}), Site(f"{prefix}b", {"cpu": 4.0, "mem": 32.0})]
    jobs = [
        Job(f"{prefix}0", {f"{prefix}a": 1.0, f"{prefix}b": 1.0}, resources={"cpu": 1.0, "mem": 4.0}),
        Job(f"{prefix}1", {f"{prefix}a": 1.0}, resources={"cpu": 4.0, "mem": 1.0}),
    ]
    return sites, jobs


def dominated(prefix: str) -> tuple[list[Site], list[Job]]:
    """Two sites where cpu dominates every job: the scalar route."""
    sites = [Site(f"{prefix}a", {"cpu": 4.0, "mem": 100.0}), Site(f"{prefix}b", {"cpu": 2.0, "mem": 100.0})]
    jobs = [
        Job(f"{prefix}0", {f"{prefix}a": 10.0}, resources={"cpu": 2.0, "mem": 1.0}),
        Job(f"{prefix}1", {f"{prefix}a": 10.0, f"{prefix}b": 10.0}, resources={"cpu": 1.0, "mem": 0.5}),
    ]
    return sites, jobs


def federation(*parts) -> Cluster:
    sites = [Site("idle", {"cpu": 1.0, "mem": 1.0})]  # a job-less component: never reduced
    jobs: list[Job] = []
    for part_sites, part_jobs in parts:
        sites += part_sites
        jobs += part_jobs
    return Cluster(sites, jobs)


@pytest.mark.parametrize(
    "parts, policy",
    [
        ((crossing("x"),), "amrf"),
        ((dominated("d"),), "amf"),
        ((crossing("x"), dominated("d"), dominated("e")), "amrf"),
        ((dominated("d"), dominated("e"), dominated("f")), "amf"),
    ],
    ids=["crossing", "dominated", "mixed", "all-dominated"],
)
def test_solve_amf_reduces_each_component_once(reductions, parts, policy):
    cluster = federation(*parts)
    job_bearing = [sh.cluster for sh in decompose(cluster) if sh.n_jobs]
    diag = AmfDiagnostics()
    alloc = solve_amf(cluster, diagnostics=diag)
    assert len(reductions) == len(job_bearing)
    assert [c.sites for c in reductions] == [c.sites for c in job_bearing]
    assert alloc.policy == policy
    assert diag.amrf_components == sum(sites[0].name.startswith("x") for sites, _ in parts)
    # the count is a delta: a diagnostics record that already counted
    # engine solves labels a reducible cluster plain AMF
    assert solve_amf(federation(dominated("d")), diagnostics=diag).policy == "amf"


def test_a_served_solve_reduces_each_solved_component_once(reductions):
    cluster, events = ledger_events("churn_vector", seed=7, n_ops=40)
    state = ClusterState(cluster.sites, cluster.jobs)
    solver = IncrementalAmfSolver()
    solved = 0
    for event in [None, *events]:
        if event is not None:
            state.apply(event)
        before, shard_solves = len(reductions), solver.stats.shard_solves
        solver(state.snapshot())
        # every component of this cluster is a vector one; a memo hit asks nothing
        assert len(reductions) - before == solver.stats.shard_solves - shard_solves
        solved += solver.stats.shard_solves - shard_solves
    assert solved > 0 and solver.stats.amrf_components == solved
