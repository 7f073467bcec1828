"""Warm-started incremental AMF == cold AMF, on arbitrary event sequences.

This is the service's central correctness claim (docs/service.md): the
per-shard cut pools and the shard-matrix memo are *purely* accelerators.
Hypothesis drives random clusters through random churn (arrivals,
departures, capacity changes) and checks the warm solver's aggregates
against a cold :func:`solve_amf` on every intermediate snapshot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ABS_TOL
from repro.core.amf import AmfDiagnostics, CutBasis, amf_levels, solve_amf
from repro.core.sharding import ShardBasisPool
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from tests.core.test_sharding import monolithic
from tests.multiresource.test_engine import crossing_cluster


@st.composite
def churn_scripts(draw):
    """A starting state plus a sequence of mutation events."""
    m = draw(st.integers(1, 3))
    sites = [Site(f"s{j}", draw(st.floats(0.5, 4.0))) for j in range(m)]

    def fresh_job(tag: str) -> Job:
        support = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m)))
        workload = {f"s{j}": draw(st.floats(0.1, 3.0)) for j in support}
        demand = {
            f"s{j}": draw(st.floats(0.05, 2.0))
            for j in support
            if draw(st.booleans())
        }
        return Job(tag, workload, demand, weight=draw(st.floats(0.5, 2.0)))

    jobs = [fresh_job(f"j{i}") for i in range(draw(st.integers(1, 4)))]
    events = []
    alive = [j.name for j in jobs]
    for step in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["arrive", "depart", "capacity"]))
        if kind == "arrive":
            job = fresh_job(f"n{step}")
            events.append(JobArrived(job))
            alive.append(job.name)
        elif kind == "depart" and alive:
            name = draw(st.sampled_from(alive))
            alive.remove(name)
            events.append(JobDeparted(name))
        else:
            site = draw(st.sampled_from([s.name for s in sites]))
            events.append(CapacityChanged(site, draw(st.floats(0.5, 4.0))))
    return sites, jobs, events


class TestIncrementalEqualsCold:
    @given(churn_scripts())
    @settings(max_examples=60, deadline=None)
    def test_warm_solution_matches_cold_oracle(self, script):
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        solver = IncrementalAmfSolver()
        for event in [None, *events]:
            if event is not None:
                state.apply(event)
            cluster = state.snapshot()
            if cluster.n_jobs == 0:
                continue
            warm = solver(cluster)
            cold = solve_amf(cluster)
            np.testing.assert_allclose(
                warm.aggregates, cold.aggregates, atol=ABS_TOL * 10, rtol=1e-9
            )

    @given(churn_scripts())
    @settings(max_examples=30, deadline=None)
    def test_basis_seeding_never_changes_levels(self, script):
        """amf_levels with a pre-populated shard pool == without, exactly."""
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        bases = ShardBasisPool()
        snapshots = []
        for event in [None, *events]:
            if event is not None:
                state.apply(event)
            if state.n_jobs:
                snapshots.append(state.snapshot())
        for cluster in snapshots:
            amf_levels(cluster, bases=bases)  # populate/rotate the pool
        for cluster in snapshots:
            warm = amf_levels(cluster, bases=bases)
            cold = amf_levels(cluster)
            np.testing.assert_allclose(warm, cold, atol=ABS_TOL * 10, rtol=1e-9)


class TestSolverBehaviour:
    def make_cluster(self) -> Cluster:
        # Site "a" is the bottleneck; "y" can offload at most 0.1 onto "b",
        # so progressive filling must discover the site cut {a}.
        sites = [Site("a", 1.0), Site("b", 10.0)]
        jobs = [Job("x", {"a": 1.0}), Job("y", {"a": 1.0, "b": 1.0}, demand={"b": 0.1})]
        return Cluster(sites, jobs)

    def test_repeat_solve_skips_rediscovery(self):
        cluster = self.make_cluster()
        solver = IncrementalAmfSolver()
        solver(cluster)
        first_cuts = solver.stats.cuts_generated
        first_feas = solver.stats.feasibility_solves
        # a new capacity on "b" misses the shard-matrix memo; cut {a} replays
        solver(Cluster([Site("a", 1.0), Site("b", 9.0)], cluster.jobs))
        assert solver.stats.cuts_generated == first_cuts  # nothing rediscovered
        assert solver.stats.feasibility_solves - first_feas <= first_feas
        assert solver.stats.warm_cuts_seeded > 0

    def test_failure_clears_basis_and_reraises(self, monkeypatch):
        cluster = self.make_cluster()
        solver = IncrementalAmfSolver()
        solver(cluster)
        assert solver.bases.total_cuts > 0

        import repro.service.solver as solver_mod

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(solver_mod, "solve_shards", poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            solver(cluster)
        monkeypatch.undo()
        assert solver.bases.total_cuts == 0
        assert solver.stats.failures == 1
        solver(cluster)  # recovers cold

    def test_cold_solve_amf_pays_equal_probes(self):
        """X9's cold arm: ``solve_amf`` carries nothing from one solve to the
        next, so it pays the same probes every time and seeds no cut."""
        cluster = self.make_cluster()
        paid = []
        for _ in range(2):
            diag = AmfDiagnostics()
            solve_amf(cluster, diagnostics=diag)
            assert diag.cuts_generated > 0 and diag.warm_cuts_seeded == 0
            paid.append(diag.feasibility_solves)
        assert paid[0] == paid[1]

    def test_cold_solve_pays_equal_lps_on_vectors(self):
        """Two ``solve_amf`` calls on a vector cluster pay the same AMRF
        LPs (regression: a process-global table inside the engine answered
        the repeats with 0 LPs)."""
        cluster = crossing_cluster()
        paid = []
        for _ in range(2):
            diag = AmfDiagnostics()
            solve_amf(cluster, diagnostics=diag)
            paid.append(diag.amrf_lps)
        assert paid[0] > 0
        assert paid == [paid[0]] * 2


class TestCutBasis:
    def test_lru_bound(self):
        basis = CutBasis(max_cuts=2)
        for name in ("a", "b", "c"):
            basis.record(frozenset({name}))
        assert len(basis) == 2

    def test_record_refreshes_recency(self):
        basis = CutBasis(max_cuts=2)
        basis.record(frozenset({"a"}))
        basis.record(frozenset({"b"}))
        basis.record(frozenset({"a"}))  # touch
        basis.record(frozenset({"c"}))  # evicts b
        sites = [Site(n, 1.0) for n in ("a", "b", "c")]
        cluster = Cluster(sites, [Job("j", {"a": 1.0})])
        instantiated = basis.instantiate(cluster)
        assert frozenset({0}) in instantiated  # site a survived
        assert frozenset({1}) not in instantiated

    def test_vanished_sites_dropped(self):
        basis = CutBasis()
        basis.record(frozenset({"gone", "a"}))
        cluster = Cluster([Site("a", 1.0)], [Job("j", {"a": 1.0})])
        assert basis.instantiate(cluster) == [frozenset({0})]

    def test_fully_vanished_cut_skipped(self):
        basis = CutBasis()
        basis.record(frozenset({"gone"}))
        cluster = Cluster([Site("a", 1.0)], [Job("j", {"a": 1.0})])
        assert basis.instantiate(cluster) == []


class TestShardedSolver:
    """IncrementalAmfSolver: same answers, per-shard caching."""

    def two_block_cluster(self) -> Cluster:
        sites = [Site("a", 1.0), Site("b", 10.0), Site("c", 2.0)]
        jobs = [
            Job("x", {"a": 1.0}),
            Job("y", {"a": 1.0, "b": 1.0}, demand={"b": 0.1}),
            Job("z", {"c": 1.0}),
        ]
        return Cluster(sites, jobs)

    @given(churn_scripts())
    @settings(max_examples=40, deadline=None)
    def test_sharded_matches_cold_oracle(self, script):
        """Against the whole-graph test reference (one fill over every
        component at once): per-component warm == monolithic cold."""
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        solver = IncrementalAmfSolver()
        for event in [None, *events]:
            if event is not None:
                state.apply(event)
            cluster = state.snapshot()
            if cluster.n_jobs == 0:
                continue
            warm = solver(cluster)
            cold = monolithic(cluster)
            np.testing.assert_allclose(
                warm.aggregates, cold.aggregates, atol=ABS_TOL * 10, rtol=1e-9
            )

    def test_repeat_solve_hits_shard_cache(self):
        cluster = self.two_block_cluster()
        solver = IncrementalAmfSolver()
        first = solver(cluster)
        assert solver.stats.last_shards == 2
        assert solver.stats.shard_solves == 2
        assert solver.stats.shard_cache_misses == 2
        second = solver(cluster)
        assert solver.stats.shard_cache_hits == 2
        assert solver.stats.shard_solves == 2  # nothing re-solved
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_delta_resolves_only_touched_shard(self):
        cluster = self.two_block_cluster()
        solver = IncrementalAmfSolver()
        solver(cluster)
        # grow job z's block only: the {a, b} shard must replay from cache
        touched = Cluster(
            cluster.sites,
            (*cluster.jobs, Job("w", {"c": 1.0})),
        )
        solver(touched)
        assert solver.stats.shard_cache_hits == 1  # the untouched {a, b} block
        assert solver.stats.shard_solves == 3  # 2 cold + 1 re-solve of {c}

    def test_failure_clears_shard_state(self, monkeypatch):
        cluster = self.two_block_cluster()
        solver = IncrementalAmfSolver()
        solver(cluster)
        assert solver.shard_cache_entries == 2 and len(solver.bases) == 2

        import repro.service.solver as solver_mod

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(solver_mod, "solve_shards", poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            solver(cluster)
        monkeypatch.undo()
        assert solver.shard_cache_entries == 0 and len(solver.bases) == 0
        assert solver.stats.failures == 1
        solver(cluster)  # recovers cold

    def test_shard_cache_lru_bound(self):
        solver = IncrementalAmfSolver(shard_cache_size=2)
        for cap in (1.0, 2.0, 3.0):
            solver(Cluster([Site("a", cap), Site("b", 1.0)], [Job("x", {"a": 1.0}), Job("z", {"b": 1.0})]))
        assert solver.shard_cache_entries == 2
