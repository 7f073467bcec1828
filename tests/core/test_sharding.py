"""Shard decomposition: partition correctness and AMF separability.

The load-bearing claim of :mod:`repro.core.sharding` is that solving each
connected component of the job-site bipartite graph independently yields
the *same* allocation as the monolithic solve (the feasible region is a
product of component-local regions, so the leximin decomposes).  The
hypothesis suite here pins that equivalence — including the degenerate
extremes (one big component; every job its own component) — plus exact
serial-vs-parallel agreement and the warm-basis pool mechanics.
"""

import multiprocessing
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ABS_TOL
from repro.core import sharding
from repro.core.amf import solve_amf
from repro.core.sharding import (
    Shard,
    ShardBasisPool,
    decompose,
    solve_amf_sharded,
    solve_shards,
    stitch,
)
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from tests.core import reference_decompose


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
        solve_amf_sharded(cluster)  # solves on, and validates against, the same views
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
        assert_same_cluster(idle.cluster, Cluster([cluster.site("idle0")], []))
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

    def test_subset_survives_the_fork_pool_round_trip(self):
        cluster = block_cluster([(3, 2), (2, 3), (2, 2)], seed=9)
        shards = decompose(cluster)
        serial = solve_shards(shards, workers=None)
        with proven_fan_out():
            fanned = solve_shards(shards, workers=2)
        for shard, near, far in zip(shards, serial, fanned):
            assert far.shard.cluster is not shard.cluster  # it really was pickled back
            assert_same_cluster(far.shard.cluster, shard.cluster)
            np.testing.assert_array_equal(far.matrix, near.matrix)


class TestStitch:
    def test_round_trip_identity(self):
        cluster = block_cluster([(2, 2), (3, 3)], seed=1)
        full = solve_amf(cluster)
        pieces = []
        for shard in decompose(cluster):
            sub = full.matrix[np.ix_(shard.job_indices, shard.site_indices)]
            pieces.append((shard, sub))
        stitched = stitch(cluster, pieces)
        np.testing.assert_array_equal(stitched, full.matrix)


# -- separability: sharded == monolithic --------------------------------

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
        mono = solve_amf(cluster)
        sharded = solve_amf_sharded(cluster)
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
        mono = solve_amf(cluster)
        sharded = solve_amf_sharded(cluster)
        np.testing.assert_array_equal(sharded.matrix, mono.matrix)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_fully_disconnected_extreme(self, n, seed):
        # one private site per job: n singleton shards
        # one private site per job: the matrix is forced (each aggregate
        # lands on the job's only site), so full equality is well-defined
        cluster = block_cluster([(1, 1)] * n, seed=seed)
        assert len(decompose(cluster)) == n
        mono = solve_amf(cluster)
        sharded = solve_amf_sharded(cluster)
        np.testing.assert_allclose(sharded.matrix, mono.matrix, atol=ABS_TOL * 10, rtol=1e-9)

    def test_floors_respected_per_shard(self):
        cluster = block_cluster([(2, 2), (2, 2)], seed=7)
        floors = np.full(cluster.n_jobs, 0.1)
        mono = solve_amf(cluster, floors)
        sharded = solve_amf_sharded(cluster, floors)
        assert sharded.policy == "amf+floors"
        np.testing.assert_allclose(
            sharded.aggregates, mono.aggregates, atol=ABS_TOL * 10, rtol=1e-9
        )
        assert bool((sharded.aggregates >= floors - ABS_TOL * 10).all())

    def test_solve_amf_shards_flag(self):
        cluster = block_cluster([(2, 2), (2, 2)], seed=5)
        via_flag = solve_amf(cluster, shards=True)
        mono = solve_amf(cluster)
        np.testing.assert_allclose(
            via_flag.aggregates, mono.aggregates, atol=ABS_TOL * 10, rtol=1e-9
        )

    def test_shards_flag_rejects_cut_basis(self):
        from repro.core.amf import CutBasis

        cluster = block_cluster([(1, 1)])
        with pytest.raises(ValueError):
            solve_amf(cluster, shards=True, basis=CutBasis())


@contextmanager
def proven_fan_out():
    """Fail unless >= 2 worker processes ran ``_solve_shard`` inside the block.

    A test about parallelism must not pass serially: a forked worker holds
    its first shard until a second worker has checked in, so a pool that
    engaged always shows >= 2 worker PIDs, and one that silently degraded
    to the serial path shows only the parent's.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("fan-out needs >= 2 cores (parallel_map caps workers at os.cpu_count())")
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fan-out needs the fork start method")
    parent = os.getpid()
    real = sharding._solve_shard
    with tempfile.TemporaryDirectory() as seen:

        def recorded(*args, **kwargs):
            Path(seen, str(os.getpid())).touch()
            deadline = time.monotonic() + 10.0
            while os.getpid() != parent and len(os.listdir(seen)) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            return real(*args, **kwargs)

        sharding._solve_shard = recorded
        try:
            yield
        finally:
            sharding._solve_shard = real
        workers = {int(name) for name in os.listdir(seen)} - {parent}
    assert len(workers) >= 2, f"shards were solved by worker PIDs {workers}: the pool never engaged"


class TestParallelAgreement:
    @settings(max_examples=10, deadline=None)
    @given(blocks=_blocks.filter(lambda b: len(b) >= 2), seed=st.integers(0, 2**16))
    def test_serial_equals_parallel_bitwise(self, blocks, seed):
        cluster = block_cluster(blocks, seed=seed)
        serial = solve_amf_sharded(cluster, workers=None)
        with proven_fan_out():
            fanned = solve_amf_sharded(cluster, workers=4)
        np.testing.assert_array_equal(serial.matrix, fanned.matrix)

    def test_discovered_cuts_fold_back_identically(self):
        # a tight cluster that generates cuts; the basis pool must end up
        # with the same cut sets whether shards ran serial or fanned
        cluster = block_cluster([(3, 2), (3, 2)], seed=11)
        serial, fanned = ShardBasisPool(), ShardBasisPool()
        solve_amf_sharded(cluster, bases=serial, workers=None)
        with proven_fan_out():
            solve_amf_sharded(cluster, bases=fanned, workers=4)
        assert {k: b.sets() for k, b in serial.items()} == {k: b.sets() for k, b in fanned.items()}

    def test_vector_shards_fan_out_through_solve_amf(self):
        # Two irreducible (crossing-dominance) cpu/mem components, so the
        # AMRF engine runs per shard: ``solve_amf(shards=True, workers=)``
        # must reach the same fork pool as the scalar path.
        sites, jobs = [], []
        for b, cpu in enumerate((8.0, 2.0)):
            sites += [
                Site(f"b{b}a", {"cpu": cpu, "mem": 2 * cpu}),
                Site(f"b{b}b", {"cpu": cpu / 2, "mem": 4 * cpu}),
            ]
            both = {f"b{b}a": 100.0, f"b{b}b": 100.0}
            jobs += [
                Job(f"b{b}j0", both, resources={"cpu": 1.0, "mem": 4.0}),
                Job(f"b{b}j1", both, resources={"cpu": 4.0, "mem": 1.0}),
            ]
        vec = Cluster(sites, jobs)
        serial = solve_amf_sharded(vec)
        with proven_fan_out():
            fanned = solve_amf(vec, shards=True, workers=4)
        np.testing.assert_array_equal(serial.matrix, fanned.matrix)
        assert fanned.policy == "amrf"


class TestShardBasisPool:
    def test_lru_eviction(self):
        pool = ShardBasisPool(max_shards=2)
        a = pool.basis_for(frozenset({"a"}))
        pool.basis_for(frozenset({"b"}))
        assert pool.basis_for(frozenset({"a"})) is a  # refreshed, not evicted
        pool.basis_for(frozenset({"c"}))  # evicts "b" (least recent)
        assert len(pool) == 2
        assert frozenset({"b"}) not in pool

    def test_merge_warming_seeds_from_subset_keys(self):
        pool = ShardBasisPool()
        small = pool.basis_for(frozenset({"a", "b"}))
        small.record(frozenset({"a"}))
        merged = pool.basis_for(frozenset({"a", "b", "c"}))
        assert frozenset({"a"}) in merged.sets()

    def test_solve_shards_reuses_pool(self):
        cluster = block_cluster([(3, 2), (3, 2)], seed=11)
        shards = decompose(cluster)
        pool = ShardBasisPool()
        first = solve_shards(shards, bases=pool, workers=None)
        warm_total = sum(r.diagnostics.warm_cuts_seeded for r in first)
        assert warm_total == 0  # cold pool: nothing to seed
        second = solve_shards(shards, bases=pool, workers=None)
        for cold, warm in zip(first, second):
            np.testing.assert_array_equal(cold.matrix, warm.matrix)

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
