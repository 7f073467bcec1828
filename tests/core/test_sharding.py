"""Shard decomposition: partition correctness and AMF separability.

The load-bearing claim of :mod:`repro.core.sharding` is that solving each
connected component of the job-site bipartite graph independently yields
the *same* allocation as one solve over the whole graph (the feasible
region is a product of component-local regions, so the leximin
decomposes).  ``solve_amf`` only ever solves per component, so the
whole-graph solve lives on here as a test reference (:func:`monolithic`:
the component body run on the whole cluster).  The hypothesis suite pins
the equivalence — including the degenerate extremes (one big component;
every job its own component) — plus the warm-basis pool mechanics, that
shards are solved in the calling process, and the one federation where the
whole-graph solve was measurably wrong (:class:`TestFederationGap`).
"""

import json
import multiprocessing
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ABS_TOL
from repro.core import sharding
from repro.core.allocation import Allocation
from repro.core.amf import AmfDiagnostics, _fill_levels, _flow_split, amf_levels, solve_amf
from repro.core.sharding import (
    Shard,
    ShardBasisPool,
    decompose,
    solve,
    stitch,
)
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.serialize import cluster_from_dict
from repro.model.site import Site
from tests.core import reference_decompose
from tests.oracle import probe_fill_shares


def monolithic(cluster: Cluster, floors: np.ndarray | None = None) -> Allocation:
    """Test reference: the component body (progressive filling plus the
    flow read) run once over the whole cluster, every component at once."""
    levels, oracle = _fill_levels(cluster, floors, AmfDiagnostics(), None)
    matrix = _flow_split(cluster, levels, oracle, None)
    return Allocation(cluster, matrix, policy="amf" if floors is None else "amf+floors")


def block_cluster(blocks: list[tuple[int, int]], *, idle_sites: int = 0, seed: int = 0) -> Cluster:
    """A block-diagonal cluster: each ``(n_jobs, n_sites)`` block is one
    connected component (every job in a block touches every block site)."""
    rng = np.random.default_rng(seed)
    sites: list[Site] = []
    jobs: list[Job] = []
    for b, (n, m) in enumerate(blocks):
        names = [f"b{b}s{j}" for j in range(m)]
        sites.extend(Site(nm, float(rng.uniform(1.0, 5.0))) for nm in names)
        for i in range(n):
            workload = {nm: float(rng.uniform(0.2, 2.0)) for nm in names}
            jobs.append(Job(f"b{b}j{i}", workload))
    sites.extend(Site(f"idle{k}", 1.0) for k in range(idle_sites))
    return Cluster(tuple(sites), tuple(jobs))


class TestDecompose:
    def test_blocks_become_shards(self):
        cluster = block_cluster([(2, 2), (3, 1), (1, 3)])
        shards = decompose(cluster)
        assert [(len(s.job_indices), len(s.site_indices)) for s in shards] == [(2, 2), (3, 1), (1, 3)]

    def test_partition_is_exact(self):
        cluster = block_cluster([(2, 3), (4, 2)], idle_sites=2)
        shards = decompose(cluster)
        all_sites = sorted(i for s in shards for i in s.site_indices)
        all_jobs = sorted(i for s in shards for i in s.job_indices)
        assert all_sites == list(range(cluster.n_sites))
        assert all_jobs == list(range(cluster.n_jobs))

    def test_idle_sites_form_jobless_shards(self):
        cluster = block_cluster([(2, 2)], idle_sites=3)
        shards = decompose(cluster)
        jobless = [s for s in shards if s.n_jobs == 0]
        assert len(jobless) == 3
        assert all(len(s.site_indices) == 1 for s in jobless)

    def test_bridging_job_merges_blocks(self):
        sites = (Site("a", 1.0), Site("b", 1.0), Site("c", 1.0))
        jobs = (Job("x", {"a": 1.0}), Job("y", {"b": 1.0, "c": 1.0}), Job("z", {"a": 1.0, "b": 1.0}))
        shards = decompose(Cluster(sites, jobs))
        assert len(shards) == 1  # z bridges {a} and {b, c}

    def test_deterministic_order(self):
        cluster = block_cluster([(1, 2), (2, 2), (1, 1)], seed=3)
        keys = [s.key for s in decompose(cluster)]
        assert keys == [s.key for s in decompose(cluster)]
        # ordered by smallest site index -> block order
        assert keys[0] == frozenset({"b0s0", "b0s1"})

    def test_shard_cluster_is_self_contained(self):
        cluster = block_cluster([(2, 2), (1, 1)])
        for shard in decompose(cluster):
            assert {s.name for s in shard.cluster.sites} == shard.key
            for job in shard.cluster.jobs:
                assert set(job.workload) <= shard.key


class TestDecomposeMatchesReference:
    """Same shards, order, indices, keys and sub-cluster fingerprints as the
    dense ``np.nonzero`` walk kept in ``reference_decompose.py``."""

    @staticmethod
    def same(cluster: Cluster) -> int:
        got, want = decompose(cluster), reference_decompose.decompose(cluster)
        assert [(s.key, s.site_indices, s.job_indices) for s in got] == [
            (s.key, s.site_indices, s.job_indices) for s in want
        ]
        assert [s.cluster.fingerprint() for s in got] == [s.cluster.fingerprint() for s in want]
        return len(got)

    def test_random_sparse_clusters(self):
        rng = np.random.default_rng(7)
        sizes = set()
        for _ in range(150):
            m = int(rng.integers(1, 14))
            names = [f"s{j}" for j in range(m)]
            rng.shuffle(names)  # a job's workload order is not the cluster's site order
            jobs = []
            for i in range(int(rng.integers(0, 12))):
                picked = rng.choice(m, size=int(rng.integers(1, min(m, 3) + 1)), replace=False)
                jobs.append(Job(f"j{i}", {names[j]: float(rng.uniform(0.1, 2.0)) for j in picked}))
            sites = [Site(f"s{j}", float(rng.uniform(1.0, 4.0))) for j in range(m)]
            sizes.add(self.same(Cluster(sites, jobs)))
        assert len(sizes) > 4

    def test_extremes(self):
        assert self.same(block_cluster([(2, 2)], idle_sites=3)) == 4  # job-less sites
        assert self.same(Cluster.uniform(6, 5)) == 1  # one component
        assert self.same(block_cluster([(1, 1)] * 7)) == 7  # fully disconnected
        assert self.same(Cluster([Site("only", 1.0)], [])) == 1  # no jobs at all
        from tests.multiresource.test_engine import random_mr_cluster

        self.same(random_mr_cluster(np.random.default_rng(3), n_jobs=6, n_sites=4))


def assert_same_cluster(got: Cluster, want: Cluster) -> None:
    """``got`` (a ``Cluster._subset``) is the validated ``Cluster(sites, jobs)``."""
    assert got.sites == want.sites and got.jobs == want.jobs
    assert [got.site_index(s.name) for s in got.sites] == list(range(got.n_sites))
    assert [got.job_index(j.name) for j in got.jobs] == list(range(got.n_jobs))
    assert got._site_index == want._site_index and got._job_index == want._job_index
    for view in ("capacities", "weights", "workloads", "support", "demand_caps", "aggregate_demand"):
        assert np.array_equal(getattr(got, view), getattr(want, view)), view
    assert got.resource_names == want.resource_names
    assert got.is_multiresource == want.is_multiresource
    assert got.fingerprint() == want.fingerprint()


def validated_build(cluster: Cluster, shard: Shard) -> Cluster:
    """The shard's sub-instance the way ``decompose`` used to build it."""
    return Cluster([cluster.sites[j] for j in shard.site_indices], [cluster.jobs[i] for i in shard.job_indices])


class TestSubset:
    """A shard is a subset of a validated cluster, and one component spanning
    every site is the cluster: nothing is constructed or re-validated."""

    def test_one_component_is_the_cluster(self):
        for cluster in (Cluster.uniform(6, 5), block_cluster([(4, 3)], seed=2), Cluster([Site("only", 1.0)], [])):
            (shard,) = decompose(cluster)
            assert shard.cluster is cluster
            assert shard.site_indices == tuple(range(cluster.n_sites))
            assert shard.job_indices == tuple(range(cluster.n_jobs))

    def test_one_component_solve_builds_the_views_once(self, monkeypatch):
        built = []
        real = Cluster._edge_views
        monkeypatch.setattr(Cluster, "_edge_views", lambda self: built.append(self) or real(self))
        cluster = block_cluster([(5, 3)], seed=4)
        solve_amf(cluster)  # solves on, and validates against, the same views
        assert built == [cluster]

    def test_each_subset_equals_the_validated_build(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            blocks = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(int(rng.integers(2, 5)))]
            cluster = block_cluster(blocks, idle_sites=int(rng.integers(0, 3)), seed=seed)
            shards = decompose(cluster)
            assert len(shards) >= 2
            for shard in shards:
                assert shard.cluster is not cluster
                assert_same_cluster(shard.cluster, validated_build(cluster, shard))

    def test_jobless_site_keeps_its_zero_job_shard(self):
        cluster = block_cluster([(2, 2)], idle_sites=1)
        busy, idle = decompose(cluster)
        assert busy.cluster is not cluster  # two components: neither is the cluster
        assert idle.n_jobs == 0 and idle.key == frozenset({"idle0"})
        assert_same_cluster(idle.cluster, Cluster([cluster.sites[cluster.site_index("idle0")]], []))
        assert idle.cluster.workloads.shape == (0, 1)

    def test_vector_subset_rechecks_its_own_offered_resources(self):
        # mem is offered by region a only; a mem job pinned to region b passes
        # the federation's check and must not pass its shard's
        from repro.model.resources import UnknownResourceError

        sites = [Site("a", {"cpu": 4.0, "mem": 4.0}), Site("b", {"cpu": 4.0})]
        jobs = [Job("x", {"a": 1.0}, resources={"cpu": 1.0, "mem": 1.0}), Job("y", {"b": 1.0}, resources={"mem": 1.0})]
        with pytest.raises(UnknownResourceError):
            decompose(Cluster(sites, jobs))
        ok = Cluster(sites, [jobs[0], Job("y", {"b": 1.0}, resources={"cpu": 2.0})])
        for shard in decompose(ok):
            assert_same_cluster(shard.cluster, validated_build(ok, shard))

    def test_subset_survives_a_pickle_round_trip(self):
        cluster = block_cluster([(3, 2), (2, 3), (2, 2)], seed=9)
        for shard in decompose(cluster):
            back = pickle.loads(pickle.dumps(shard))
            assert back.cluster is not shard.cluster
            assert_same_cluster(back.cluster, shard.cluster)
            np.testing.assert_array_equal(solve_amf(back.cluster).matrix, solve_amf(shard.cluster).matrix)


class TestStitch:
    def test_round_trip_identity(self):
        cluster = block_cluster([(2, 2), (3, 3)], seed=1)
        full = monolithic(cluster)
        pieces = []
        for shard in decompose(cluster):
            sub = full.matrix[np.ix_(shard.job_indices, shard.site_indices)]
            pieces.append((shard, sub))
        stitched = stitch(cluster, pieces)
        np.testing.assert_array_equal(stitched, full.matrix)


# -- separability: solve_amf (per component) == the whole-graph reference --

_block = st.tuples(st.integers(1, 3), st.integers(1, 3))
_blocks = st.lists(_block, min_size=1, max_size=4)


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(blocks=_blocks, idle=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_sharded_matches_monolithic(self, blocks, idle, seed):
        # Aggregates are the leximin-unique quantity AMF defines; the
        # matrix is one of possibly many optimal realizations (ties can
        # break differently when the flow graph gains idle sites), and
        # feasibility of the sharded matrix is already enforced by the
        # Allocation constructor.
        cluster = block_cluster(blocks, idle_sites=idle, seed=seed)
        mono = monolithic(cluster)
        sharded = solve_amf(cluster)
        np.testing.assert_allclose(
            sharded.aggregates, mono.aggregates, atol=ABS_TOL * 10, rtol=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_single_component_extreme(self, n, m, seed):
        # every job touches every site: exactly one shard whose sub-cluster
        # IS the cluster, so the sharded path runs the identical pipeline
        # and even the matrix must agree bit-for-bit
        cluster = block_cluster([(n, m)], seed=seed)
        assert len(decompose(cluster)) == 1
        mono = monolithic(cluster)
        sharded = solve_amf(cluster)
        np.testing.assert_array_equal(sharded.matrix, mono.matrix)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_fully_disconnected_extreme(self, n, seed):
        # one private site per job: n singleton shards
        # one private site per job: the matrix is forced (each aggregate
        # lands on the job's only site), so full equality is well-defined
        cluster = block_cluster([(1, 1)] * n, seed=seed)
        assert len(decompose(cluster)) == n
        mono = monolithic(cluster)
        sharded = solve_amf(cluster)
        np.testing.assert_allclose(sharded.matrix, mono.matrix, atol=ABS_TOL * 10, rtol=1e-9)

    def test_floors_respected_per_shard(self):
        cluster = block_cluster([(2, 2), (2, 2)], seed=7)
        floors = np.full(cluster.n_jobs, 0.1)
        mono = monolithic(cluster, floors)
        sharded = solve_amf(cluster, floors)
        assert sharded.policy == "amf+floors"
        np.testing.assert_allclose(
            sharded.aggregates, mono.aggregates, atol=ABS_TOL * 10, rtol=1e-9
        )
        assert bool((sharded.aggregates >= floors - ABS_TOL * 10).all())

    def test_solve_amf_shards_flag(self):
        # the vestige benchmarks/ledger/rounds.py passes: True is the only path
        cluster = block_cluster([(2, 2), (2, 2)], seed=5)
        via_flag = solve_amf(cluster, shards=True)
        np.testing.assert_array_equal(via_flag.matrix, solve_amf(cluster).matrix)
        with pytest.raises(ValueError, match="per connected component"):
            solve_amf(cluster, shards=False)

    def test_shards_flag_rejects_cut_basis(self):
        # a warm start is a ShardBasisPool (bases=); there is no whole-graph basis
        from repro.core.amf import CutBasis

        cluster = block_cluster([(1, 1)])
        with pytest.raises(TypeError):
            solve_amf(cluster, shards=True, basis=CutBasis())


def test_shard_solves_stay_in_the_calling_process(monkeypatch):
    """A raised process-wide worker default (``REPRO_WORKERS``, which
    experiment sweeps read) must not reach
    the shard-solve path: the service's solver and ``solve_amf`` both solve
    every shard in the calling process.  Where a fork pool could engage
    (>= 2 cores and fork), a fanned-out solve would show other PIDs.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a fork pool needs >= 2 cores to engage")
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("a fork pool needs the fork start method")
    from repro.service.solver import IncrementalAmfSolver

    cluster = block_cluster([(3, 2), (2, 3), (2, 2)], seed=9)
    real = sharding._solve_shard
    with tempfile.TemporaryDirectory() as seen:
        calls = Path(seen, "pids")

        def recorded(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(sharding, "_solve_shard", recorded)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        IncrementalAmfSolver()(cluster)
        solve_amf(cluster)
        pids = calls.read_text().split()
    assert pids == [str(os.getpid())] * 6


class TestFederationGap:
    """The ledger's ``churn_sharded`` state, seed 2 after 8 ops (384 jobs, 96
    sites, 24 regions), where the whole-graph solve froze 8 regions up to
    8.6e-5 off their max-min levels.  Each region is refereed by a
    sequential LP that shares no code with the flow solver."""

    @pytest.fixture(scope="class")
    def federation(self) -> Cluster:
        return cluster_from_dict(json.loads((Path(__file__).parent / "data" / "federation_gap.json").read_text()))

    @pytest.fixture(scope="class")
    def refereed(self, federation):
        out = []
        for shard in decompose(federation):
            if shard.n_jobs:
                shares, _ = probe_fill_shares(shard.cluster)
                out.append((shard, shares / shard.cluster.dominant_factor()))
        assert len(out) == 24
        return out

    @staticmethod
    def worst(levels, refereed) -> float:
        return max(float(np.abs(levels[list(sh.job_indices)] - lp).max()) for sh, lp in refereed)

    def test_every_region_matches_the_lp_referee(self, federation, refereed):
        assert self.worst(solve_amf(federation).aggregates, refereed) <= 1e-8
        assert self.worst(amf_levels(federation), refereed) <= 1e-8

    def test_r1_tied_jobs_agree(self, federation, refereed):
        ((shard, lp),) = [(sh, lp) for sh, lp in refereed if "r1s0" in sh.key]
        tied = np.abs(lp - 1.5712537) < 1e-6
        assert int(tied.sum()) == 14
        got = solve_amf(federation).aggregates[list(shard.job_indices)]
        assert np.abs(got[tied] - lp[tied]).max() <= 1e-9

    def test_the_whole_graph_reference_misses(self, federation, refereed):
        # not vacuous: one fill over all 24 regions is off by far more
        assert self.worst(monolithic(federation).aggregates, refereed) > 1e-5

    def test_the_probe_tolerance_scale_is_the_cause(self, federation, refereed, monkeypatch):
        # The oracle accepts a probe at feq(delivered, demanded, scale=n + m)
        # of the probed cluster: 480 here, about 20 for one region.  Capping
        # the whole-graph scale near one region's closes the gap.
        from repro.flownet.parametric import ParametricFeasibility

        real = ParametricFeasibility.__init__

        def capped(self, *args, **kwargs):
            real(self, *args, **kwargs)
            assert self._scale == 480.0
            self._scale = 100.0

        monkeypatch.setattr(ParametricFeasibility, "__init__", capped)
        assert self.worst(monolithic(federation).aggregates, refereed) <= 1e-8


class TestShardBasisPool:
    def test_lru_eviction(self):
        pool = ShardBasisPool(max_shards=2)
        a = pool.basis_for(frozenset({"a"}))
        b = pool.basis_for(frozenset({"b"}))
        assert pool.basis_for(frozenset({"a"})) is a  # refreshed, not evicted
        pool.basis_for(frozenset({"c"}))  # evicts "b" (least recent)
        assert len(pool) == 2
        assert pool.basis_for(frozenset({"b"})) is not b  # a miss builds a new basis

    def test_merge_warming_seeds_from_subset_keys(self):
        pool = ShardBasisPool()
        small = pool.basis_for(frozenset({"a", "b"}))
        small.record(frozenset({"a"}))
        merged = pool.basis_for(frozenset({"a", "b", "c"}))
        assert frozenset({"a"}) in merged.sets()

    def test_solve_reuses_pool(self):
        cluster = block_cluster([(3, 2), (3, 2)], seed=11)
        pool = ShardBasisPool()
        cold = AmfDiagnostics()
        first = solve(cluster, bases=pool, diagnostics=cold)
        assert cold.warm_cuts_seeded == 0  # cold pool: nothing to seed
        second = solve(cluster, bases=pool)
        assert len(second.entries) == 2
        np.testing.assert_array_equal(first.result, second.result)

    def test_clear(self):
        pool = ShardBasisPool()
        pool.basis_for(frozenset({"a"}))
        pool.clear()
        assert len(pool) == 0


class TestShardValue:
    def test_shard_is_frozen(self):
        cluster = block_cluster([(1, 1)])
        shard = decompose(cluster)[0]
        assert isinstance(shard, Shard)
        with pytest.raises(AttributeError):
            shard.key = frozenset()
