"""Warm-started incremental AMF == cold AMF, on arbitrary event sequences.

This is the service's central correctness claim (docs/service.md): the
per-shard cut pools and the shard-matrix memo are *purely* accelerators.
Hypothesis drives random clusters through random churn (arrivals,
departures, capacity changes) and checks the warm solver's aggregates
against a cold :func:`solve_amf` on every intermediate snapshot.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ABS_TOL
from repro.core.amf import AmfDiagnostics, CutBasis, amf_levels, solve_amf
from repro.core.sharding import ShardBasisPool, decompose
from repro.flownet.parametric import ParametricFeasibility
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from repro.workload.generator import WorkloadSpec, generate_jobs, sites_for
from tests.core.test_sharding import monolithic
from tests.oracle import probe_fill_shares
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


def connected_stream(spec: WorkloadSpec, seed: int, events: int):
    """Snapshots of one Zipf cluster under seeded churn: arrivals,
    departures and capacity changes (from the original capacity, so no site
    drifts to zero)."""
    rng = np.random.default_rng(seed)
    jobs = generate_jobs(spec, rng)
    sites = sites_for(spec, jobs)
    state = ClusterState(sites, jobs)
    yield state.snapshot()
    for step in range(events):
        kind = rng.choice(["arrive", "depart", "capacity"], p=[0.45, 0.45, 0.10])
        if kind == "arrive" or state.n_jobs < 3:
            job = generate_jobs(dataclasses.replace(spec, n_jobs=1), rng)[0]
            state.apply(JobArrived(Job(f"a{step}", job.workload, job.demand, weight=job.weight)))
        elif kind == "depart":
            names = [job.name for job in state.snapshot().jobs]
            state.apply(JobDeparted(names[int(rng.integers(len(names)))]))
        else:
            site = sites[int(rng.integers(len(sites)))]
            state.apply(CapacityChanged(site.name, site.capacity * float(rng.uniform(0.8, 1.25))))
        yield state.snapshot()


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
        """amf_levels with a pre-populated shard pool == without, at 1e-9."""
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

        from repro.core import sharding

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(sharding, "_solve_shard", poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            # a new capacity on "b" misses the memo, so the poisoned body runs
            solver(Cluster([Site("a", 1.0), Site("b", 9.0)], cluster.jobs))
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

        from repro.core import sharding

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(sharding, "_solve_shard", poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            # {a, b} replays from the memo; the new capacity on "c" misses
            solver(Cluster([*cluster.sites[:2], Site("c", 3.0)], cluster.jobs))
        monkeypatch.undo()
        assert solver.shard_cache_entries == 0 and len(solver.bases) == 0
        assert solver.stats.failures == 1
        solver(cluster)  # recovers cold

    def test_shard_cache_lru_bound(self):
        solver = IncrementalAmfSolver(shard_cache_size=2)
        for cap in (1.0, 2.0, 3.0):
            solver(Cluster([Site("a", cap), Site("b", 1.0)], [Job("x", {"a": 1.0}), Job("z", {"b": 1.0})]))
        assert solver.shard_cache_entries == 2


class TestComponentMemo:
    """The component memo is the service's only memory of solved states:
    an LRU of component fingerprint -> solved sub-matrix."""

    @staticmethod
    def one_site(cap: float) -> Cluster:
        return Cluster([Site("a", cap)], [Job("x", {"a": 1.0}), Job("y", {"a": 2.0})])

    def test_miss_then_hit(self):
        solver = IncrementalAmfSolver()
        c = self.one_site(2.0)
        solver(c)
        assert not solver.replayed and solver.stats.solves == 1
        solver(c)
        assert solver.replayed and solver.stats.solves == 1
        assert (solver.stats.shard_cache_misses, solver.stats.shard_cache_hits) == (1, 1)

    def test_equal_clusters_share_entries(self):
        solver = IncrementalAmfSolver()
        solver(self.one_site(2.0))
        solver(self.one_site(2.0))  # a freshly built but identical cluster
        assert solver.replayed

    def test_different_clusters_do_not_collide(self):
        solver = IncrementalAmfSolver()
        solver(self.one_site(2.0))
        solver(self.one_site(2.5))
        assert not solver.replayed and solver.stats.solves == 2

    def test_hit_rebinds_to_callers_cluster(self):
        solver = IncrementalAmfSolver()
        solver(self.one_site(2.0))
        c2 = self.one_site(2.0)
        hit = solver(c2)
        assert solver.replayed and hit.cluster is c2
        np.testing.assert_allclose(hit.aggregates, solve_amf(c2).aggregates)

    def test_returned_matrix_is_a_copy(self):
        solver = IncrementalAmfSolver()
        c = self.one_site(2.0)
        solver(c)
        first, second = solver(c), solver(c)
        (stored,) = (entry.matrix for entry in solver.memo._entries.values())
        # each replay stitches its own matrix: no aliasing between answers
        # or with the memo entry, so a caller can never corrupt the memo
        assert not np.shares_memory(first.matrix, second.matrix)
        assert not np.shares_memory(first.matrix, stored)
        np.testing.assert_array_equal(first.matrix, stored)

    def test_eviction_order_and_counters(self):
        solver = IncrementalAmfSolver(shard_cache_size=2)
        for cap in (2.0, 2.5, 3.5):
            solver(self.one_site(cap))
        assert solver.shard_cache_entries == 2
        assert solver.stats.shard_evictions == 1
        solver(self.one_site(3.5))
        assert solver.replayed  # the newest entry survived
        solver(self.one_site(2.0))
        assert not solver.replayed  # the oldest was evicted
        assert solver.stats.shard_evictions == 2

    def test_hit_refreshes_recency(self):
        solver = IncrementalAmfSolver(shard_cache_size=2)
        for cap in (2.0, 2.5):
            solver(self.one_site(cap))
        solver(self.one_site(2.0))  # touch the older entry
        solver(self.one_site(3.5))  # evicts 2.5, not the touched 2.0
        solver(self.one_site(2.0))
        assert solver.replayed
        solver(self.one_site(2.5))
        assert not solver.replayed

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            IncrementalAmfSolver(shard_cache_size=0)

    def test_call_keeps_every_component_it_used(self):
        # three components against a bound of two: a revisit still solves none
        sites = [Site(s, 1.0 + i) for i, s in enumerate("abc")]
        cluster = Cluster(sites, [Job(f"j{s.name}", {s.name: 1.0}) for s in sites])
        solver = IncrementalAmfSolver(shard_cache_size=2)
        solver(cluster)
        assert solver.shard_cache_entries == 3 and solver.stats.shard_evictions == 0
        solver(cluster)
        assert solver.replayed and solver.stats.shard_solves == 3
        solver(self.one_site(2.0))  # one new component: back down to the bound
        assert solver.shard_cache_entries == 2 and solver.stats.shard_evictions == 2

    def test_clear(self):
        """A failed solve is the memo's only clear: afterwards it holds
        nothing, and the next call for the same cluster misses and solves."""
        solver = IncrementalAmfSolver()
        c = self.one_site(2.0)
        solver(c)
        assert solver.shard_cache_entries == 1
        from repro.core import sharding

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sharding, "_solve_shard", poisoned)
            with pytest.raises(RuntimeError, match="poisoned"):
                solver(self.one_site(2.5))  # a miss, so the poisoned solve runs
        assert solver.shard_cache_entries == 0
        solver(c)
        assert not solver.replayed
        assert (solver.stats.shard_cache_misses, solver.stats.shard_cache_hits) == (3, 0)

    def test_stats_fold_every_diagnostic(self):
        """IncrementalStats is an AmfDiagnostics: every solver counter sums
        over the calls, the memo's answers adding nothing."""
        solver = IncrementalAmfSolver()
        cluster = TestSolverBehaviour().make_cluster()
        diag = AmfDiagnostics()
        solve_amf(cluster, diagnostics=diag)
        solver(cluster)
        solver(cluster)  # replayed from the memo
        assert isinstance(solver.stats, AmfDiagnostics)
        for field in dataclasses.fields(AmfDiagnostics):
            assert getattr(solver.stats, field.name) == getattr(diag, field.name), field.name
        assert diag.rounds > 0 and diag.feasibility_solves > 0
        assert (solver.stats.solves, solver.stats.shard_cache_hits) == (1, 1)


class TestWarmWriteProbeCount:
    """A count gate, not a timing claim: on the paper's setting (one 200 x 20
    Zipf component) a warm write ends every round on its seeded cut pool and
    pays one certifying max-flow, started from the previous split."""

    def test_connected_stream(self, monkeypatch):
        outcomes = []
        real = ParametricFeasibility.probe

        def recorded(self, targets):
            out = real(self, targets)
            outcomes.append(out)
            return out

        monkeypatch.setattr(ParametricFeasibility, "probe", recorded)
        solver = IncrementalAmfSolver()
        spec = WorkloadSpec(n_jobs=200, n_sites=20, site_spread=4, theta=1.0)
        probes, cold_routes = [], []
        for k, cluster in enumerate(connected_stream(spec, seed=0, events=30)):
            assert len(decompose(cluster)) == 1
            before = dataclasses.replace(solver.stats)
            outcomes.clear()
            solver(cluster)
            if k == 0:  # the boot solve: a fresh pool, today's per-round loop
                assert solver.stats.deferred_checks == 0
                continue
            assert solver.stats.deferred_checks - before.deferred_checks == 1
            paid = solver.stats.feasibility_solves - before.feasibility_solves
            if solver.stats.deferred_refuted == before.deferred_refuted:
                assert paid <= 3
            probes.append(paid)
            # the one cold flow solve left is the zero-target floors check
            cold_routes += [out for out in outcomes if out.mode == "flow-cold" and out.demanded > 0.0]
        assert cold_routes == []
        assert solver.stats.deferred_refuted <= 3
        assert np.mean(probes) <= 3.0


class TestLpReferee:
    """The served aggregates on a connected churn stream equal an
    independent sequential LP (``probe_fill_shares``: scipy only, no flow
    code) on every snapshot."""

    def test_connected_stream_matches_the_lp(self):
        solver = IncrementalAmfSolver()
        spec = WorkloadSpec(n_jobs=32, n_sites=8, site_spread=3, theta=1.0)
        for cluster in connected_stream(spec, seed=5, events=20):
            assert len(decompose(cluster)) == 1
            served = solver(cluster).aggregates
            shares, _ = probe_fill_shares(cluster)
            np.testing.assert_allclose(served, shares / cluster.dominant_factor(), rtol=0, atol=1e-9)
        assert solver.stats.deferred_checks >= 15  # the warm path really served the stream
