"""Per-site DRF and AMRF on the vector-bearing ``Cluster``.

``TestAmrf`` runs the LP oracle (:mod:`tests.oracle`) on the textbook
instances, so the referee the engine is compared against in
``test_engine.py`` is itself pinned to known answers; the served rates
(``solve_amf``) are checked against caps and capacities.
"""

import numpy as np
import pytest

from repro.core.amf import amf_levels, solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import solve_persite_drf
from tests.oracle import check_rates, probe_fill_shares


def task_job(name, resources, tasks, weight=1.0) -> Job:
    """A job running at most ``tasks[site]`` simultaneous tasks per site."""
    return Job(name, tasks, demand=tasks, weight=weight, resources=resources)


def dominant_shares(cluster: Cluster, rates: np.ndarray) -> np.ndarray:
    return cluster.dominant_factor() * rates.sum(axis=1)


def ghodsi() -> Cluster:
    """The canonical DRF example (Ghodsi et al., NSDI'11)."""
    return Cluster(
        [Site("s", {"cpu": 9.0, "mem": 18.0})],
        [
            task_job("A", {"cpu": 1.0, "mem": 4.0}, {"s": 100.0}),
            task_job("B", {"cpu": 3.0, "mem": 1.0}, {"s": 100.0}),
        ],
    )


class TestPerSiteDrf:
    def test_canonical_example(self):
        rates = solve_persite_drf(ghodsi()).matrix
        assert np.allclose(rates.ravel(), [3.0, 2.0], atol=1e-7)

    def test_single_resource_reduces_to_waterfill(self):
        c = Cluster(
            [Site("s", {"cpu": 6.0})],
            [
                task_job("x", {"cpu": 1.0}, {"s": 1.0}),
                task_job("y", {"cpu": 1.0}, {"s": 100.0}),
                task_job("z", {"cpu": 1.0}, {"s": 100.0}),
            ],
        )
        assert np.allclose(solve_persite_drf(c).matrix.ravel(), [1.0, 2.5, 2.5], atol=1e-7)

    def test_sites_independent(self):
        c = Cluster(
            [Site("A", {"cpu": 4.0}), Site("B", {"cpu": 2.0})],
            [task_job("x", {"cpu": 1.0}, {"A": 100.0}), task_job("y", {"cpu": 1.0}, {"B": 100.0})],
        )
        rates = solve_persite_drf(c).matrix
        assert rates[0, 0] == pytest.approx(4.0)
        assert rates[1, 1] == pytest.approx(2.0)

    def test_task_caps_respected(self):
        c = Cluster(
            [Site("s", {"cpu": 10.0})],
            [task_job("x", {"cpu": 1.0}, {"s": 2.0}), task_job("y", {"cpu": 1.0}, {"s": 100.0})],
        )
        rates = solve_persite_drf(c).matrix
        assert rates[0, 0] == pytest.approx(2.0)
        assert rates[1, 0] == pytest.approx(8.0)

    def test_disjoint_resources_fill_independently(self):
        # x uses only cpu, y only mem: neither blocks the other
        c = Cluster(
            [Site("s", {"cpu": 4.0, "mem": 8.0})],
            [task_job("x", {"cpu": 1.0}, {"s": 100.0}), task_job("y", {"mem": 1.0}, {"s": 100.0})],
        )
        rates = solve_persite_drf(c).matrix
        assert rates[0, 0] == pytest.approx(4.0, abs=1e-6)
        assert rates[1, 0] == pytest.approx(8.0, abs=1e-6)


    def test_site_offering_a_resource_subset(self):
        # B offers no mem: y cannot run there at all, and B's local dominant
        # factors must come from the resources B does offer (no 0/0).
        c = Cluster(
            [Site("A", {"cpu": 4.0, "mem": 8.0}), Site("B", {"cpu": 4.0})],
            [
                task_job("x", {"cpu": 1.0}, {"A": 100.0, "B": 100.0}),
                task_job("y", {"cpu": 1.0, "mem": 2.0}, {"A": 100.0, "B": 100.0}),
            ],
        )
        with np.errstate(all="raise"):
            rates = solve_persite_drf(c).matrix
        assert np.allclose(rates, [[2.0, 4.0], [2.0, 0.0]], atol=1e-7)


class TestAmrf:
    def test_single_site_matches_drf(self):
        c = ghodsi()
        drf_shares = dominant_shares(c, solve_persite_drf(c).matrix)
        shares, _ = probe_fill_shares(c)
        assert np.allclose(shares, drf_shares, atol=1e-9)

    def test_single_resource_matches_amf(self):
        mr = Cluster(
            [Site("A", {"cpu": 1.0}), Site("B", {"cpu": 1.0})],
            [
                task_job("a", {"cpu": 1.0}, {"A": 10.0}),
                task_job("b", {"cpu": 1.0}, {"A": 10.0}),
                task_job("s", {"cpu": 1.0}, {"A": 10.0, "B": 10.0}),
            ],
        )
        shares, _ = probe_fill_shares(mr)
        aggregates = shares / mr.dominant_factor()
        flow = Cluster.from_matrices(
            [1.0, 1.0],
            [[10.0, 0.0], [10.0, 0.0], [10.0, 10.0]],
            [[10.0, np.inf], [10.0, np.inf], [10.0, 10.0]],
        )
        assert np.allclose(aggregates, amf_levels(flow), atol=1e-9)

    def test_cross_site_compensation(self):
        """The AMF signature, in vector form: the spread job yields the hot site."""
        mr = Cluster(
            [Site("hot", {"cpu": 4.0, "mem": 8.0}), Site("idle", {"cpu": 4.0, "mem": 8.0})],
            [
                task_job("pinned", {"cpu": 1.0, "mem": 1.0}, {"hot": 100.0}),
                task_job("spread", {"cpu": 1.0, "mem": 1.0}, {"hot": 100.0, "idle": 100.0}),
            ],
        )
        rates = solve_amf(mr).matrix
        check_rates(mr, rates)
        # pinned gets the whole hot site's cpu
        assert rates[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_shares_weighted(self):
        mr = Cluster(
            [Site("s", {"cpu": 3.0})],
            [
                task_job("x", {"cpu": 1.0}, {"s": 100.0}, weight=1.0),
                task_job("y", {"cpu": 1.0}, {"s": 100.0}, weight=2.0),
            ],
        )
        shares, _ = probe_fill_shares(mr)
        assert shares[1] / shares[0] == pytest.approx(2.0, rel=1e-9)

    def test_rates_feasible_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m, n = 3, 6
            sites = [Site(f"s{j}", {"cpu": float(rng.uniform(4, 10)), "mem": float(rng.uniform(8, 30))}) for j in range(m)]
            jobs = []
            for i in range(n):
                spread = int(rng.integers(1, m + 1))
                chosen = rng.choice(m, size=spread, replace=False)
                jobs.append(
                    task_job(
                        f"j{i}",
                        {"cpu": float(rng.uniform(0.5, 2.0)), "mem": float(rng.uniform(0.5, 6.0))},
                        {f"s{j}": float(rng.uniform(2, 20)) for j in chosen},
                    )
                )
            mr = Cluster(sites, jobs)
            check_rates(mr, solve_amf(mr).matrix)
            solve_persite_drf(mr)  # Allocation validates

    def test_amrf_at_least_as_balanced_as_drf(self):
        """On the dominant-share Jain index, AMRF never loses (randomized)."""
        from repro.metrics.fairness import jain_index

        rng = np.random.default_rng(1)
        for _ in range(5):
            m, n = 3, 8
            sites = [Site(f"s{j}", {"cpu": 10.0, "mem": 40.0}) for j in range(m)]
            jobs = []
            for i in range(n):
                spread = int(rng.integers(1, 3))
                chosen = rng.choice(m, size=spread, replace=False)
                jobs.append(
                    task_job(
                        f"j{i}",
                        {"cpu": float(rng.uniform(0.5, 2.0)), "mem": float(rng.uniform(1.0, 8.0))},
                        {f"s{j}": float(rng.uniform(5, 30)) for j in chosen},
                    )
                )
            mr = Cluster(sites, jobs)
            drf = jain_index(dominant_shares(mr, solve_persite_drf(mr).matrix))
            amrf = jain_index(probe_fill_shares(mr)[0])
            assert amrf >= drf - 1e-6
