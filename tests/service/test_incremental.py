"""Warm-started incremental AMF == cold AMF, on arbitrary event sequences.

This is the service's central correctness claim (docs/service.md): the
persisted cut basis is *purely* an accelerator.  Hypothesis drives random
clusters through random churn (arrivals, departures, capacity changes) and
checks the warm solver's aggregates against a cold :func:`solve_amf` on
every intermediate snapshot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ABS_TOL
from repro.core.amf import AmfDiagnostics, CutBasis, amf_levels, solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
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
        """amf_levels with a pre-populated basis == without, exactly."""
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        basis = CutBasis()
        snapshots = []
        for event in [None, *events]:
            if event is not None:
                state.apply(event)
            if state.n_jobs:
                snapshots.append(state.snapshot())
        for cluster in snapshots:
            amf_levels(cluster, basis=basis)  # populate/rotate the basis
        for cluster in snapshots:
            warm = amf_levels(cluster, basis=basis)
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
        solver(cluster)
        assert solver.stats.cuts_generated == first_cuts  # nothing rediscovered
        assert solver.stats.feasibility_solves - first_feas <= first_feas
        assert solver.stats.warm_cuts_seeded > 0

    def test_failure_clears_basis_and_reraises(self, monkeypatch):
        cluster = self.make_cluster()
        solver = IncrementalAmfSolver()
        solver(cluster)
        assert len(solver.basis) > 0

        import repro.service.solver as solver_mod

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(solver_mod, "solve_amf", poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            solver(cluster)
        monkeypatch.undo()
        assert len(solver.basis) == 0
        assert solver.stats.failures == 1
        solver(cluster)  # recovers cold

    def test_non_persistent_mode_is_cold(self):
        cluster = self.make_cluster()
        solver = IncrementalAmfSolver(persistent=False)
        assert solver.__name__ == "amf-cold"
        diag = AmfDiagnostics()
        amf_levels(cluster, diagnostics=diag)
        cold_feas = diag.feasibility_solves
        solver(cluster)
        solver(cluster)
        # identical probe count both times: no warm carry-over
        assert solver.stats.feasibility_solves == 2 * cold_feas
        assert solver.stats.warm_cuts_seeded == 0

    @pytest.mark.parametrize("sharded", [False, True])
    def test_non_persistent_mode_is_cold_on_vector_clusters(self, sharded):
        """The cold arm pays the AMRF LPs on every solve, and so does a
        second instance in the same process: no solver state outlives a
        solve (regression: a process-global table inside the engine
        answered the repeats with 0 LPs)."""
        cluster = crossing_cluster()
        paid = []
        for _instance in range(2):
            solver = IncrementalAmfSolver(persistent=False, sharded=sharded)
            for _solve in range(2):
                before = solver.stats.amrf_lps
                solver(cluster)
                paid.append(solver.stats.amrf_lps - before)
        assert paid[0] > 0
        assert paid == [paid[0]] * 4


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
    """IncrementalAmfSolver(sharded=True): same answers, per-shard caching."""

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
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        solver = IncrementalAmfSolver(sharded=True)
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

    def test_repeat_solve_hits_shard_cache(self):
        cluster = self.two_block_cluster()
        solver = IncrementalAmfSolver(sharded=True)
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
        solver = IncrementalAmfSolver(sharded=True)
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
        solver = IncrementalAmfSolver(sharded=True)
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
        solver = IncrementalAmfSolver(sharded=True, shard_cache_size=2)
        for cap in (1.0, 2.0, 3.0):
            solver(Cluster([Site("a", cap), Site("b", 1.0)], [Job("x", {"a": 1.0}), Job("z", {"b": 1.0})]))
        assert solver.shard_cache_entries == 2

    def test_non_persistent_sharded_stays_cold(self):
        cluster = self.two_block_cluster()
        solver = IncrementalAmfSolver(persistent=False, sharded=True)
        solver(cluster)
        solver(cluster)
        assert solver.stats.shard_cache_hits == 0
        assert solver.stats.warm_cuts_seeded == 0
