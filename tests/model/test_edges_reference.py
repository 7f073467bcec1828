"""A ``Cluster``'s views are one scatter of its support edges: against the walks they replaced.

Every instance reads one edge list (``Cluster._edges``): a store's
component record, or the jobs walked once.  The dense views scatter from
it, ``support_edges`` hands it out, ``decompose`` reads the partition off
it and slices it for each sub-instance, and the scalar reduction's twin is
the same list with its caps rescaled.  This module keeps, as references,
the per-job walk the views were built by before (``walked_views``) and the
scalar reduction that rebuilt every job and a validating ``Cluster``
(``rebuilt_reduction``), and asserts bit-equality — ``tobytes`` of the same
dtype and shape, so ``-0.0`` against ``0.0`` would fail too — of the views,
``support_edges()`` and every ``decompose`` sub-instance's views on:

* 150 seeded ``generate_cluster`` draws, and a two-resource spelling of each;
* the benchmark ledger's four initial clusters;
* the multi-component snapshots of a ``churn_sharded`` stream;
* the R=1 and dominant-resource twins of those draws, with their own
  sub-instances and with federation resource totals.

A twin shares the vector cluster's jobs as labels only: their workloads and
demands are not the twin's.  So a twin, or a sub-instance of one, that
walked its jobs would read the vector caps where the twin has ``k_i``
times the effective ones, and the twin checks here fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.ledger import workloads
from repro.core.sharding import connected_components, decompose
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.resources import UnknownResourceError
from repro.model.site import Site
from repro.multiresource.engine import scalar_reduction
from repro.service.state import ClusterState
from repro.workload.generator import WorkloadSpec, generate_cluster

DRAWS = 150


# ----------------------------------------------------------------------
# References: the walks the edge list replaced
# ----------------------------------------------------------------------
def _dense(cluster: Cluster, rows, cols, values) -> np.ndarray:
    mat = np.zeros((cluster.n_jobs, cluster.n_sites), dtype=float)
    mat[rows, cols] = values
    return mat


def walked_views(cluster: Cluster) -> tuple[np.ndarray, np.ndarray]:
    """``(workloads, demand_caps)`` walked job by job from ``cluster.jobs``."""
    index, inf = {site.name: k for k, site in enumerate(cluster.sites)}, float("inf")
    rows, cols, work, declared = [], [], [], []
    for i, job in enumerate(cluster.jobs):
        demand = job.demand
        for site, amount in job.workload.items():
            rows.append(i)
            cols.append(index[site])
            work.append(amount)
            declared.append(demand.get(site, inf))  # uncapped: the site alone bounds it
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    if not cluster.is_multiresource:
        alone = cluster.capacities[cols]
    else:
        # the rate the site sustains if the job ran alone: min over the
        # resources the job consumes (its strictly positive amounts)
        need = cluster.job_resource_matrix[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            alone = np.where(need > 0.0, cluster.site_resource_matrix[cols] / need, inf).min(axis=1)
    return _dense(cluster, rows, cols, work), _dense(cluster, rows, cols, np.minimum(declared, alone))


def rebuilt_reduction(cluster: Cluster, resource_totals=None) -> tuple[Cluster, np.ndarray] | None:
    """The scalar reduction as a rebuild: n validated ``Job`` s whose caps
    are ``k_i`` times the walked effective caps, in a validating
    ``Cluster``."""
    names = cluster.resource_names
    if not names:
        return None
    J, C = cluster.job_resource_matrix, cluster.site_resource_matrix
    T = None
    if resource_totals is not None:
        own = cluster.resource_totals
        T = np.array([float(resource_totals.get(res, own[res])) for res in names])
    star = None
    for r in range(len(names)):
        if not (C[:, r] > 0.0).all():
            continue
        if cluster.n_jobs and not (J[:, r] > 0.0).all():
            continue
        if not (J[:, None, :] * C[None, :, r : r + 1] <= J[:, None, r : r + 1] * C[None, :, :]).all():
            continue
        if T is not None and cluster.n_jobs and not (J * T[r] <= J[:, r : r + 1] * T).all():
            continue
        star = r
        break
    if star is None:
        return None
    k = J[:, star] if cluster.n_jobs else np.zeros(0)
    caps = walked_views(cluster)[1]
    sites = [Site(site.name, float(C[j, star]), site.tags) for j, site in enumerate(cluster.sites)]
    jobs = [
        Job(
            name=job.name,
            workload=dict(job.workload),
            demand={site: float(k[i] * caps[i, cluster.site_index(site)]) for site in job.workload},
            weight=job.weight,
            arrival=job.arrival,
        )
        for i, job in enumerate(cluster.jobs)
    ]
    return Cluster(sites, jobs), k


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_views(cluster: Cluster, work: np.ndarray, caps: np.ndarray) -> None:
    """``cluster``'s views and edge list are the scatter of ``work``, ``caps``."""
    assert same_bits(cluster.workloads, work)
    assert same_bits(cluster.demand_caps, caps)
    assert same_bits(cluster.support, work > 0.0)
    rows, cols = np.nonzero(work > 0.0)
    got_rows, got_cols, got_caps = cluster.support_edges()
    assert same_bits(got_rows, rows) and same_bits(got_cols, cols)
    assert same_bits(got_caps, caps[rows, cols])


def assert_decomposes_like(cluster: Cluster, reference: Cluster) -> int:
    """``cluster`` against ``reference``, the instance whose jobs really
    are ``cluster``'s (itself, or the rebuilt twin): views, edges and every
    shard's sub-instance; returns the shard count."""
    work, caps = walked_views(reference)
    assert_views(cluster, work, caps)
    shards = decompose(cluster)
    for shard in shards:
        sub, rows, cols = shard.cluster, list(shard.job_indices), list(shard.site_indices)
        assert [site.name for site in sub.sites] == [reference.sites[j].name for j in cols]
        assert same_bits(sub.capacities, reference.capacities[cols])
        assert [job.name for job in sub.jobs] == [reference.jobs[i].name for i in rows]
        assert_views(sub, work[np.ix_(rows, cols)], caps[np.ix_(rows, cols)])
        if reference is cluster:  # a sub-instance holds its jobs: its own walk agrees
            assert_views(sub, *walked_views(sub))
    return len(shards)


def assert_twin_matches(cluster: Cluster, resource_totals=None) -> bool:
    """The twin against the rebuild, itself and its sub-instances; whether
    ``cluster`` reduced."""
    got, want = scalar_reduction(cluster, resource_totals), rebuilt_reduction(cluster, resource_totals)
    assert (got is None) == (want is None)
    if got is None:
        return False
    (twin, k), (rebuilt, want_k) = got, want
    assert same_bits(k, want_k)
    assert [site.name for site in twin.sites] == [site.name for site in rebuilt.sites]
    assert not twin.is_multiresource
    assert [job.name for job in twin.jobs] == [job.name for job in rebuilt.jobs]
    assert same_bits(twin.weights, rebuilt.weights) and same_bits(twin.capacities, rebuilt.capacities)
    assert_decomposes_like(twin, rebuilt)
    return True


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
def draw(seed: int) -> Cluster:
    """A ``generate_cluster`` draw; few sites a job, so many split."""
    rng = np.random.default_rng([2026, seed])
    spec = WorkloadSpec(
        n_jobs=int(rng.integers(1, 40)),
        n_sites=int(rng.integers(1, 14)),
        theta=float(rng.uniform(0.0, 1.5)),
        site_spread=int(rng.integers(1, 4)),
        demand_scale=None if rng.random() < 0.3 else float(rng.uniform(0.01, 0.5)),
        weight_spread=float(rng.choice([0.0, 2.0])),
    )
    return generate_cluster(spec, rng)


def respelled(cluster: Cluster, seed: int, kind: str) -> Cluster:
    """``cluster`` with resource vectors: ``"pair"`` draws cpu/mem amounts
    that cross (and sites that lack mem), ``"r1"`` one resource with a
    per-job amount, ``"dominant"`` cpu dominating mem everywhere."""
    rng = np.random.default_rng([2027, seed])
    sites = []
    for j, site in enumerate(cluster.sites):
        c = site.capacity
        if kind == "r1":
            sites.append(Site(site.name, {"cpu": c}))
        elif kind == "dominant":
            sites.append(Site(site.name, {"cpu": c, "mem": 10.0 * c}))
        elif j == 0 or rng.random() < 0.8:
            sites.append(Site(site.name, {"cpu": c, "mem": float(rng.uniform(0.5, 3.0)) * c}))
        else:  # a component of cpu-only sites refuses a job that needs mem
            sites.append(Site(site.name, {"cpu": c}))
    jobs = []
    for job in cluster.jobs:
        a = float(rng.choice([1.0, rng.uniform(0.25, 4.0)]))
        if kind == "r1":
            resources = {"cpu": a}
        elif kind == "dominant":
            resources = {"cpu": a, "mem": float(rng.uniform(0.1, 5.0)) * a}
        else:
            resources = {"cpu": a, "mem": float(rng.uniform(0.25, 4.0))} if rng.random() < 0.7 else {"cpu": a}
        jobs.append(Job(job.name, dict(job.workload), dict(job.demand), weight=job.weight, resources=resources))
    return Cluster(sites, jobs)


def validated_refusal(cluster: Cluster) -> str | None:
    """What the validating build of the first refused component raises."""
    supports = [sorted(cluster.site_index(site) for site in job.workload) for job in cluster.jobs]
    for site_idx, job_idx in connected_components(cluster.n_sites, supports):
        try:
            Cluster([cluster.sites[j] for j in site_idx], [cluster.jobs[i] for i in job_idx])
        except UnknownResourceError as exc:
            return str(exc)
    return None


class TestDraws:
    def test_scalar_draws(self):
        split = 0
        for seed in range(DRAWS):
            split += assert_decomposes_like(draw(seed), draw(seed)) > 1
        assert split >= DRAWS // 3  # the sub-instance checks ran

    def test_two_resource_draws(self):
        refused = 0
        for seed in range(DRAWS):
            cluster = respelled(draw(seed), seed, "pair")
            assert cluster.is_multiresource
            want = validated_refusal(cluster)
            if want is None:
                assert_decomposes_like(cluster, cluster)
                continue
            # a component demanding what its sites do not offer: the same refusal
            assert_views(cluster, *walked_views(cluster))
            with pytest.raises(UnknownResourceError) as refusal:
                decompose(cluster)
            assert str(refusal.value) == want
            refused += 1
        assert 0 < refused < DRAWS // 2

    @pytest.mark.parametrize("kind", ["r1", "dominant"])
    def test_twins_and_their_sub_instances(self, kind):
        twins = split = 0
        for seed in range(DRAWS):
            cluster = respelled(draw(seed), seed, kind)
            assert_decomposes_like(cluster, cluster)
            assert assert_twin_matches(cluster)
            twins += 1
            split += len(decompose(scalar_reduction(cluster)[0])) > 1
            # a shard under the federation's totals, as the pipeline reduces it
            for shard in decompose(cluster):
                if shard.n_jobs:
                    assert_twin_matches(shard.cluster, cluster.resource_totals)
        assert twins == DRAWS and split >= DRAWS // 3

    def test_twin_sub_instances_do_not_read_the_jobs(self):
        # two regions, capped edges and k != 1: the vector jobs' own caps
        # are not the twin's, in the twin or in its sub-instances
        sites = [Site(f"s{j}", {"cpu": 2.0 + j}) for j in range(4)]
        jobs = [
            Job("a", {"s0": 1.0, "s1": 2.0}, demand={"s0": 0.5}, resources={"cpu": 3.0}),
            Job("b", {"s1": 1.0}, resources={"cpu": 0.5}),
            Job("c", {"s2": 1.0, "s3": 1.0}, demand={"s3": 4.0}, resources={"cpu": 2.0}),
        ]
        cluster = Cluster(sites, jobs)
        twin, k = scalar_reduction(cluster)
        assert k.tolist() == [3.0, 0.5, 2.0]
        # k_i times the effective vector cap, then clipped by the cpu capacity
        assert twin.demand_caps.tolist() == [[1.5, 3.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0], [0.0, 0.0, 4.0, 5.0]]
        assert [sh.cluster.demand_caps.tolist() for sh in decompose(twin)] == [
            [[1.5, 3.0], [0.0, 3.0]],
            [[4.0, 5.0]],
        ]
        assert_twin_matches(cluster)


class TestLedger:
    @pytest.mark.parametrize("workload", ["churn_sharded", "churn_connected", "churn_vector", "read_mix"])
    def test_initial_clusters(self, workload):
        cluster = workloads.build_inputs(workload, seed=7, n_ops=1).cluster
        assert_decomposes_like(cluster, cluster)
        assert_twin_matches(cluster)  # churn_vector is irreducible: None on both sides

    def test_multi_component_snapshots_of_a_sharded_stream(self):
        inputs = workloads.build_inputs("churn_sharded", seed=7, n_ops=60)
        state = ClusterState(inputs.cluster.sites, inputs.cluster.jobs)
        seen = 0
        for op in inputs.streams[0]:
            if op.event is None:
                continue
            state.apply(op.event)
            snap = state.snapshot()
            shards = decompose(snap)  # the carried partition: components from the store's records
            assert len(shards) > 1
            work, caps = walked_views(snap)
            for shard in shards:
                rows, cols = list(shard.job_indices), list(shard.site_indices)
                assert_views(shard.cluster, work[np.ix_(rows, cols)], caps[np.ix_(rows, cols)])
            assert_views(snap, work, caps)  # the snapshot's own list, walked once from its jobs
            # and a cold build of the same sites and jobs decomposes alike
            cold = Cluster(snap.sites, snap.jobs)
            assert [(sh.site_indices, sh.job_indices) for sh in decompose(cold)] == [
                (sh.site_indices, sh.job_indices) for sh in shards
            ]
            assert_decomposes_like(cold, cold)
            seen += 1
        assert seen >= 50
