"""Unit tests for repro.model.cluster."""

import numpy as np
import pytest

from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from tests.conftest import random_cluster
from tests.model import reference_views


def small() -> Cluster:
    sites = [Site("A", 2.0), Site("B", 3.0)]
    jobs = [
        Job("x", {"A": 1.0}),
        Job("y", {"A": 1.0, "B": 4.0}, demand={"B": 0.5}),
    ]
    return Cluster(sites, jobs)


class TestConstruction:
    def test_requires_sites(self):
        with pytest.raises(ValueError, match="at least one site"):
            Cluster([], [])

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Cluster([Site("A", 1.0), Site("A", 2.0)], [])

    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Cluster([Site("A", 1.0)], [Job("x", {"A": 1.0}), Job("x", {"A": 2.0})])

    def test_unknown_site_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown sites"):
            Cluster([Site("A", 1.0)], [Job("x", {"B": 1.0})])

    def test_empty_jobs_allowed(self):
        c = Cluster([Site("A", 1.0)], [])
        assert c.n_jobs == 0


class TestViews:
    def test_capacities(self):
        assert small().capacities.tolist() == [2.0, 3.0]

    def test_workload_matrix(self):
        W = small().workloads
        assert W.tolist() == [[1.0, 0.0], [1.0, 4.0]]

    def test_support_mask(self):
        S = small().support
        assert S.tolist() == [[True, False], [True, True]]

    def test_demand_caps_clip_to_capacity(self):
        D = small().demand_caps
        # x uncapped at A -> site capacity 2; y capped 0.5 at B
        assert D[0, 0] == 2.0
        assert D[1, 1] == 0.5
        assert D[0, 1] == 0.0  # outside support

    def test_aggregate_demand(self):
        c = small()
        assert np.allclose(c.aggregate_demand, [2.0, 2.0 + 0.5])

    def test_views_are_readonly(self):
        c = small()
        with pytest.raises(ValueError):
            c.capacities[0] = 99.0
        with pytest.raises(ValueError):
            c.workloads[0, 0] = 99.0

    def test_total_capacity(self):
        assert small().total_capacity == 5.0

    def test_indexing(self):
        c = small()
        assert c.job_index("y") == 1
        assert c.site_index("B") == 1
        assert c.jobs[c.job_index("y")].name == "y"
        assert c.sites[c.site_index("B")].capacity == 3.0


class TestDerivedInstances:
    def test_without_job(self):
        c = small().without_job("x")
        assert c.n_jobs == 1
        assert c.jobs[0].name == "y"

    def test_without_unknown_job(self):
        with pytest.raises(ValueError, match="unknown job"):
            small().without_job("nope")

    def test_with_job(self):
        c = small().with_job(Job("z", {"B": 1.0}))
        assert c.n_jobs == 3

    def test_replace_job(self):
        c = small().replace_job(Job("x", {"B": 9.0}))
        assert c.jobs[c.job_index("x")].support == {"B"}
        assert c.n_jobs == 2

    def test_replace_preserves_order(self):
        c = small().replace_job(Job("x", {"B": 9.0}))
        assert [j.name for j in c.jobs] == ["x", "y"]

    def test_restricted_to_jobs(self):
        c = small().restricted_to_jobs(["y"])
        assert [j.name for j in c.jobs] == ["y"]

    def test_originals_untouched(self):
        c = small()
        c.without_job("x")
        assert c.n_jobs == 2


class TestFromMatrices:
    def test_roundtrip(self):
        c = Cluster.from_matrices([2.0, 3.0], [[1.0, 0.0], [1.0, 4.0]], [[np.inf, np.inf], [np.inf, 0.5]])
        assert c.n_jobs == 2
        assert c.demand_caps[1, 1] == 0.5

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Cluster.from_matrices([1.0], [[1.0, 2.0]])

    def test_rejects_nan_caps(self):
        with pytest.raises(ValueError, match="NaN"):
            Cluster.from_matrices([1.0], [[1.0]], [[np.nan]])

    def test_names(self):
        c = Cluster.from_matrices([1.0], [[1.0]], site_names=["east"], job_names=["spark"])
        assert c.sites[0].name == "east"
        assert c.jobs[0].name == "spark"

    def test_weights(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]], weights=[1.0, 2.0])
        assert c.weights.tolist() == [1.0, 2.0]

    def test_uniform_factory(self):
        c = Cluster.uniform(3, 2, capacity=5.0, work=1.5)
        assert c.n_jobs == 3 and c.n_sites == 2
        assert (c.workloads == 1.5).all()
        assert (c.capacities == 5.0).all()


class TestEntitlements:
    def test_uniform_case(self):
        c = Cluster.uniform(4, 2, capacity=8.0)
        # each of 4 jobs entitled to 8/4 = 2 per site over full support
        assert np.allclose(c.equal_partition_entitlements(), [4.0] * 4)

    def test_caps_bound_entitlement(self, two_site_cluster):
        e = two_site_cluster.equal_partition_entitlements()
        assert np.allclose(e, [1 / 3, 1 / 3, 1 / 3 + 0.2])

    def test_weighted_entitlements(self):
        c = Cluster.from_matrices([3.0], [[1.0], [1.0]], weights=[1.0, 2.0])
        e = c.equal_partition_entitlements()
        assert np.allclose(e, [1.0, 2.0])


def random_two_resource(rng: np.random.Generator) -> Cluster:
    """Sparse cpu/mem cluster: some sites offer cpu only, some jobs consume one
    resource only, edges are capped, capped at 0.0, or uncapped."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(0, 9))
    sites = []
    for j in range(m):
        vec = {"cpu": float(rng.uniform(1.0, 8.0))}
        if j == 0 or rng.random() < 0.6:  # site 0 offers both, so mem is always known
            vec["mem"] = float(rng.uniform(1.0, 8.0))
        sites.append(Site(f"s{j}", vec))
    order = [f"s{j}" for j in range(m)]
    jobs = []
    for i in range(n):
        rng.shuffle(order)  # a job's workload order is not the cluster's site order
        picked = order[: int(rng.integers(1, m + 1))]
        demand = {s: float(rng.choice([0.0, rng.uniform(0.1, 3.0)])) for s in picked if rng.random() < 0.5}
        resources = {res: float(rng.uniform(0.2, 3.0)) for res in ("cpu", "mem") if rng.random() < 0.7}
        jobs.append(
            Job(f"j{i}", {s: float(rng.uniform(0.1, 2.0)) for s in picked}, demand, resources=resources or {"cpu": 1.0})
        )
    return Cluster(sites, jobs)


class TestViewsMatchReference:
    """``Cluster._edge_views`` fills both dense views from one pass; the
    cell-by-cell loops it replaced (``reference_views.py``) must agree to the
    bit — the probe network and every solved matrix are built on these."""

    @staticmethod
    def same(cluster: Cluster) -> Cluster:
        assert np.array_equal(cluster.workloads, reference_views.workloads(cluster))
        assert np.array_equal(cluster.demand_caps, reference_views.demand_caps(cluster))
        assert cluster.workloads.dtype == cluster.demand_caps.dtype == np.float64
        assert cluster.workloads.shape == cluster.demand_caps.shape == (cluster.n_jobs, cluster.n_sites)
        for view in (cluster.workloads, cluster.demand_caps, cluster.support):
            with pytest.raises(ValueError):
                view[...] = 1.0
        return cluster

    def test_seeded_scalar_clusters(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            self.same(random_cluster(rng, cap_prob=float(rng.choice([0.0, 0.5, 1.0]))))

    def test_seeded_two_resource_clusters(self):
        rng = np.random.default_rng(2025)
        seen_zero = seen_unoffered = False
        for _ in range(120):
            c = self.same(random_two_resource(rng))
            assert c.is_multiresource
            seen_zero |= any(0.0 in j.demand.values() for j in c.jobs)
            seen_unoffered |= any(
                "mem" in j.resources and "mem" not in c.sites[c.site_index(s)].resource_vector for j in c.jobs for s in j.workload
            )
        assert seen_zero and seen_unoffered  # the draws reach both deciding cases

    def test_explicit_zero_cap_keeps_its_edge(self):
        c = self.same(Cluster([Site("A", 2.0), Site("B", 3.0)], [Job("x", {"A": 1.0, "B": 1.0}, demand={"B": 0.0})]))
        assert c.support.tolist() == [[True, True]]
        assert c.demand_caps.tolist() == [[2.0, 0.0]]

    def test_uncapped_edge_clips_to_site_or_alone_rate(self):
        scalar = self.same(Cluster([Site("A", 2.5)], [Job("x", {"A": 1.0})]))
        assert scalar.demand_caps.tolist() == [[2.5]]
        vector = self.same(
            Cluster([Site("A", {"cpu": 6.0, "mem": 2.0})], [Job("x", {"A": 1.0}, resources={"cpu": 2.0, "mem": 4.0})])
        )
        assert vector.demand_caps.tolist() == [[min(6.0 / 2.0, 2.0 / 4.0)]]

    def test_resource_a_site_does_not_offer_caps_the_edge_at_zero(self):
        sites = [Site("A", {"cpu": 4.0, "mem": 4.0}), Site("B", {"cpu": 4.0})]
        c = self.same(Cluster(sites, [Job("x", {"A": 1.0, "B": 1.0}, resources={"cpu": 1.0, "mem": 1.0})]))
        assert c.demand_caps.tolist() == [[4.0, 0.0]]
        assert c.support.tolist() == [[True, True]]
        # a cpu-only job is not bound by the mem the site lacks
        d = self.same(Cluster(sites, [Job("y", {"B": 1.0}, resources={"cpu": 2.0})]))
        assert d.demand_caps.tolist() == [[0.0, 2.0]]

    def test_degenerate_shapes(self):
        self.same(Cluster([Site("A", 1.0), Site("idle", 1.0)], [Job("x", {"A": 1.0})]))  # a site with no jobs
        self.same(Cluster([Site("A", 1.0), Site("B", 2.0)], [Job("x", {"A": 1.0}), Job("y", {"B": 1.0})]))
        for sites in ([Site("A", 1.0)], [Site("A", {"cpu": 1.0, "mem": 2.0})]):
            empty = self.same(Cluster(sites, []))  # n_jobs == 0
            assert empty.aggregate_demand.shape == (0,)

    def test_one_pass_fills_both_views(self, monkeypatch):
        calls = []
        real = Cluster._edge_views
        monkeypatch.setattr(Cluster, "_edge_views", lambda self: calls.append(1) or real(self))
        c = small()
        c.demand_caps, c.workloads, c.support, c.aggregate_demand
        assert len(calls) == 1
