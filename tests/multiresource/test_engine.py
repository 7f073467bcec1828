"""Production AMRF engine: routing, oracle equivalence, properties.

Three layers of guarantees:

* **routing** — R=1 and dominant-resource clusters take the scalar flow
  fast path (zero LPs); genuinely multi-resource clusters run the
  progressive-filling LP engine;
* **equivalence** — the engine's leximin shares match the LP oracle
  (:func:`tests.oracle.probe_fill_shares`) on random instances, sharded
  or not;
* **fairness properties** — Pareto efficiency, envy-freeness and sharing
  incentive on cap-free instances (the DRF hypotheses).
"""

import numpy as np
import pytest

from repro.core.allocation import check_matrix
from repro.core.amf import AmfDiagnostics, solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import amrf_allocate, scalar_reduction, solve_multiresource
from tests.oracle import check_rates, probe_fill_shares

RESOURCES = ("cpu", "mem")


def crossing_cluster() -> Cluster:
    """Non-reducible: j0 is mem-heavy, j1 cpu-heavy — no resource dominates."""
    return Cluster(
        [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})],
        [
            Job("j0", {"a": 100.0, "b": 100.0}, resources={"cpu": 1.0, "mem": 4.0}),
            Job("j1", {"a": 100.0, "b": 100.0}, resources={"cpu": 4.0, "mem": 1.0}),
        ],
    )


def random_mr_cluster(rng, n_jobs=None, n_sites=None, *, weights=False) -> Cluster:
    """A random (cpu, mem) vector cluster with sparse support and mixed task caps."""
    n = n_jobs if n_jobs is not None else int(rng.integers(2, 6))
    m = n_sites if n_sites is not None else int(rng.integers(1, 4))
    site_caps = rng.uniform(1.0, 10.0, (m, len(RESOURCES)))
    demands = rng.uniform(0.1, 4.0, (n, len(RESOURCES)))
    support = rng.random((n, m)) < 0.7
    for i in range(n):
        if not support[i].any():
            support[i, rng.integers(m)] = True
    caps = np.where(rng.random((n, m)) < 0.5, rng.uniform(0.2, 3.0, (n, m)), 50.0)
    w = rng.uniform(0.5, 2.0, n) if weights else np.ones(n)
    sites = [
        Site(f"s{j}", {res: float(site_caps[j, r]) for r, res in enumerate(RESOURCES)})
        for j in range(m)
    ]
    jobs = [
        Job(
            f"j{i}",
            {f"s{j}": 1.0 for j in range(m) if support[i, j]},
            demand={f"s{j}": float(caps[i, j]) for j in range(m) if support[i, j]},
            resources={res: float(demands[i, r]) for r, res in enumerate(RESOURCES)},
            weight=float(w[i]),
        )
        for i in range(n)
    ]
    return Cluster(sites, jobs)


class TestRouting:
    def test_r1_routes_to_flow_path(self):
        c = Cluster(
            [Site("a", {"cpu": 4.0}), Site("b", {"cpu": 2.0})],
            [
                Job("x", {"a": 10.0}, resources={"cpu": 1.0}),
                Job("y", {"a": 10.0, "b": 10.0}, resources={"cpu": 2.0}),
            ],
        )
        diag = AmfDiagnostics()
        alloc = solve_amf(c, diagnostics=diag)
        assert diag.amrf_lps == 0  # no LP ever ran
        check_rates(c, alloc.matrix)

    def test_dominant_resource_routes_to_flow_path(self):
        # cpu dominates: every job's cpu/total ratio exceeds its mem ratio
        c = Cluster(
            [Site("a", {"cpu": 4.0, "mem": 100.0}), Site("b", {"cpu": 2.0, "mem": 100.0})],
            [
                Job("x", {"a": 10.0}, resources={"cpu": 2.0, "mem": 1.0}),
                Job("y", {"a": 10.0, "b": 10.0}, resources={"cpu": 1.0, "mem": 0.5}),
            ],
        )
        assert scalar_reduction(c) is not None
        diag = AmfDiagnostics()
        solve_amf(c, diagnostics=diag)
        assert diag.amrf_lps == 0

    def test_crossing_dominance_runs_engine(self):
        c = crossing_cluster()
        assert scalar_reduction(c) is None
        diag = AmfDiagnostics()
        alloc = solve_amf(c, diagnostics=diag)
        assert diag.amrf_lps > 0
        assert diag.amrf_rounds > 0
        check_rates(c, alloc.matrix)

    def test_policy_label_follows_the_route(self):
        """A component the scalar reduction cannot take makes the allocation
        AMRF, even when no job has a usable edge and no LP runs."""
        sites = [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})]

        def jobs(cap):
            return [
                Job("j0", {"a": 1.0, "b": 1.0}, demand={"a": cap, "b": cap}, resources={"cpu": 1.0, "mem": 4.0}),
                Job("j1", {"a": 1.0}, demand={"a": cap}, resources={"cpu": 4.0, "mem": 1.0}),
            ]

        for cap, lps in ((0.0, 0), (2.0, 1)):
            c = Cluster(sites, jobs(cap))
            assert scalar_reduction(c) is None
            diag = AmfDiagnostics()
            alloc = solve_amf(c, diagnostics=diag)
            assert (alloc.policy, min(diag.amrf_lps, 1)) == ("amrf", lps)
            assert solve_amf(c, floors=np.zeros(2)).policy == "amrf+floors"
        # cpu dominates at every site for every job: the scalar route
        reducible = Cluster(
            [Site("a", {"cpu": 4.0, "mem": 100.0}), Site("b", {"cpu": 2.0, "mem": 100.0})],
            [
                Job("x", {"a": 10.0}, resources={"cpu": 2.0, "mem": 1.0}),
                Job("y", {"a": 10.0, "b": 10.0}, resources={"cpu": 1.0, "mem": 0.5}),
            ],
        )
        assert scalar_reduction(reducible) is not None
        assert solve_amf(reducible).policy == "amf"

    def test_reduction_is_exact_change_of_variables(self):
        c = Cluster(
            [Site("a", {"cpu": 4.0})],
            [Job("x", {"a": 10.0}, demand={"a": 3.0}, resources={"cpu": 2.0})],
        )
        red = scalar_reduction(c)
        assert red is not None
        scalar, k = red
        assert scalar.sites[0].capacity == 4.0
        assert k.tolist() == [2.0]
        # demand cap scales by k: 2 * min(3, 4/2) = 4
        assert scalar.demand_caps[0, 0] == pytest.approx(4.0)

    def test_r1_matches_scalar_solve_exactly(self, rng):
        for _ in range(5):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            caps = rng.uniform(1.0, 8.0, m)
            support = rng.random((n, m)) < 0.7
            for i in range(n):
                if not support[i].any():
                    support[i, rng.integers(m)] = True
            scalar = Cluster(
                [Site(f"s{j}", float(caps[j])) for j in range(m)],
                [
                    Job(f"j{i}", {f"s{j}": 1.0 for j in range(m) if support[i, j]})
                    for i in range(n)
                ],
            )
            vector = Cluster(
                [Site(f"s{j}", {"cpu": float(caps[j])}) for j in range(m)],
                [
                    Job(
                        f"j{i}",
                        {f"s{j}": 1.0 for j in range(m) if support[i, j]},
                        resources={"cpu": 1.0},
                    )
                    for i in range(n)
                ],
            )
            a = solve_amf(scalar).matrix
            b = solve_amf(vector).matrix
            assert np.array_equal(a, b)  # bit-identical routing


class TestEngineVsOracle:
    def test_matches_probe_fill_oracle_on_random_instances(self, rng):
        for _ in range(8):
            cluster = random_mr_cluster(rng)
            matrix = check_matrix(cluster, solve_multiresource(cluster))
            check_rates(cluster, matrix)
            got = cluster.dominant_factor() * matrix.sum(axis=1)
            want, _ = probe_fill_shares(cluster)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_weighted_instances(self, rng):
        for _ in range(4):
            cluster = random_mr_cluster(rng, weights=True)
            matrix = check_matrix(cluster, solve_multiresource(cluster))
            got = cluster.dominant_factor() * matrix.sum(axis=1)
            want, _ = probe_fill_shares(cluster)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_sharded_equals_monolithic(self, rng):
        # Two disconnected components: disjoint sites and job supports.
        for _ in range(4):
            c1 = random_mr_cluster(rng, n_sites=2)
            c2 = random_mr_cluster(rng, n_sites=2)
            sites = list(c1.sites) + [
                Site("t" + s.name, s.resource_vector) for s in c2.sites
            ]
            jobs = list(c1.jobs) + [
                Job(
                    "t" + j.name,
                    {"t" + s: w for s, w in j.workload.items()},
                    demand={"t" + s: d for s, d in j.demand.items()},
                    resources=dict(j.resources),
                    weight=j.weight,
                )
                for j in c2.jobs
            ]
            merged = Cluster(sites, jobs)
            mono = check_matrix(merged, solve_multiresource(merged))  # the engine over both components at once
            shard = solve_amf(merged)
            dom = merged.dominant_factor()
            assert np.allclose(
                dom * mono.sum(axis=1),
                dom * shard.matrix.sum(axis=1),
                atol=1e-5,
            )

    def test_floors_respected(self):
        c = crossing_cluster()
        floors = np.array([3.0, 0.0])
        matrix = check_matrix(c, solve_multiresource(c, floors=floors))
        assert matrix.sum(axis=1)[0] >= 3.0 - 1e-6
        assert solve_amf(c, floors=floors).policy == "amrf+floors"

    def test_infeasible_floors_raise(self):
        # Each floor is individually feasible (below the job's run-alone
        # maximum, so it survives the share-cap clip) but jointly they
        # need 7.9 + 4*2.9 = 19.5 cpu against 12 available.
        c = crossing_cluster()
        with pytest.raises(ValueError, match="infeasible"):
            amrf_allocate(c, floors=np.array([7.9, 2.9]))


class TestFairnessProperties:
    """DRF-style properties on cap-free instances (the classical hypotheses)."""

    def capfree(self, rng, n=3, m=2):
        demands = rng.uniform(0.2, 4.0, (n, len(RESOURCES)))
        site_caps = rng.uniform(2.0, 10.0, (m, len(RESOURCES)))
        sites = [
            Site(f"s{j}", {res: float(site_caps[j, r]) for r, res in enumerate(RESOURCES)})
            for j in range(m)
        ]
        jobs = [
            Job(
                f"j{i}",
                {f"s{j}": 1.0 for j in range(m)},
                resources={res: float(demands[i, r]) for r, res in enumerate(RESOURCES)},
            )
            for i in range(n)
        ]
        return Cluster(sites, jobs)

    def test_pareto_efficiency(self, rng):
        """No job's share can rise without another's falling below its share."""
        from scipy.optimize import linprog

        for _ in range(4):
            c = self.capfree(rng)
            matrix = check_matrix(c, solve_multiresource(c))
            dom = c.dominant_factor()
            shares = dom * matrix.sum(axis=1)
            caps = c.demand_caps
            edges = [(i, j) for i in range(c.n_jobs) for j in range(c.n_sites) if caps[i, j] > 0]
            J, C = c.job_resource_matrix, c.site_resource_matrix
            for target in range(c.n_jobs):
                rows, rhs = [], []
                for j in range(c.n_sites):
                    for r in range(J.shape[1]):
                        row = [J[i, r] if je == j else 0.0 for (i, je) in edges]
                        rows.append(row)
                        rhs.append(C[j, r])
                for i in range(c.n_jobs):
                    if i == target:
                        continue
                    rows.append([-dom[i] if ie == i else 0.0 for (ie, _j) in edges])
                    rhs.append(-shares[i] * (1 - 1e-7))
                obj = [-dom[target] if ie == target else 0.0 for (ie, _j) in edges]
                res = linprog(
                    obj,
                    A_ub=np.array(rows),
                    b_ub=np.array(rhs),
                    bounds=[(0, caps[i, j]) for (i, j) in edges],
                    method="highs",
                )
                assert res.success
                assert -res.fun <= shares[target] + 1e-5

    def test_envy_freeness(self, rng):
        """No job could run more tasks with another job's resource bundle."""
        for _ in range(6):
            c = self.capfree(rng)
            matrix = check_matrix(c, solve_multiresource(c))
            J = c.job_resource_matrix
            agg = matrix.sum(axis=1)
            for i in range(c.n_jobs):
                for k in range(c.n_jobs):
                    bundle = agg[k] * J[k]  # job k's aggregate usage vector
                    could_run = float(np.min(bundle / J[i]))
                    assert could_run <= agg[i] + 1e-5

    def test_sharing_incentive_single_site(self, rng):
        """Classical DRF guarantee: at one site, each job's dominant share
        is at least 1/n (what an equal split of every resource yields)."""
        for _ in range(6):
            c = self.capfree(rng, n=int(rng.integers(2, 5)), m=1)
            matrix = check_matrix(c, solve_multiresource(c))
            shares = c.dominant_factor() * matrix.sum(axis=1)
            assert float(shares.min()) >= 1.0 / c.n_jobs - 1e-5

    def test_sharing_incentive_multi_site(self, rng):
        """Multi-site form: leximin's worst-off job does at least as well
        as the worst-off job under splitting every site n ways (packing
        losses mean per-job 1/n is not achievable across sites)."""
        for _ in range(6):
            c = self.capfree(rng, n=int(rng.integers(2, 5)))
            matrix = check_matrix(c, solve_multiresource(c))
            dom = c.dominant_factor()
            shares = dom * matrix.sum(axis=1)
            J, C = c.job_resource_matrix, c.site_resource_matrix
            # job i alone on 1/n of every site runs sum_j min_r c_jr/(n r_ir)
            eq_tasks = (C[None, :, :] / (c.n_jobs * J[:, None, :])).min(axis=2).sum(axis=1)
            assert float(shares.min()) >= float((dom * eq_tasks).min()) - 1e-5
