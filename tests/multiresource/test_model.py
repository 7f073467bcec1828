"""The multi-resource model is the vector-bearing ``Cluster``.

These pin the views the AMRF engine, the bisection oracle and per-site DRF
read (per-site task bounds, demand and capacity matrices, dominant
factors) and the per-resource invariants ``Allocation`` enforces on a
vector cluster.
"""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site


def cluster() -> Cluster:
    return Cluster(
        [Site("A", {"cpu": 8.0, "mem": 16.0}), Site("B", {"cpu": 4.0, "mem": 32.0})],
        [
            Job("x", {"A": 10.0}, demand={"A": 10.0}, resources={"cpu": 1.0, "mem": 4.0}),
            Job("y", {"A": 5.0, "B": 5.0}, demand={"A": 3.0, "B": 5.0}, resources={"cpu": 2.0, "mem": 1.0}),
        ],
    )


class TestConstruction:
    def test_basic(self):
        c = cluster()
        assert c.n_jobs == 2 and c.n_sites == 2
        assert c.is_multiresource
        assert c.resource_names == ("cpu", "mem")

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown sites"):
            Cluster([Site("A", {"cpu": 1.0})], [Job("x", {"Z": 1.0}, resources={"cpu": 1.0})])

    def test_rejects_zero_demand_vector(self):
        with pytest.raises(ValueError, match="strictly positive"):
            Job("x", {"A": 1.0}, resources={"cpu": 0.0})

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            Site("A", {"cpu": 0.0})


class TestMatrices:
    def test_capacity_matrix(self):
        c = cluster()
        assert c.site_resource_matrix.tolist() == [[8.0, 16.0], [4.0, 32.0]]
        assert c.resource_totals == {"cpu": 12.0, "mem": 48.0}

    def test_demand_matrix(self):
        assert cluster().job_resource_matrix.tolist() == [[1.0, 4.0], [2.0, 1.0]]

    def test_task_caps(self):
        # The declared bound, clipped to what the job could run alone there:
        # x at A: min(10, 8/1, 16/4) = 4;  y at A: min(3, 8/2, 16/1) = 3;
        # y at B: min(5, 4/2, 32/1) = 2.
        assert cluster().demand_caps.tolist() == [[4.0, 0.0], [3.0, 2.0]]

    def test_global_dominant_factor(self):
        c = cluster()
        # x: max(1/12, 4/48) = 1/12 ; y: max(2/12, 1/48) = 1/6
        assert np.allclose(c.dominant_factor(), [1 / 12, 1 / 6])

    def test_aggregate_dominant_shares(self):
        c = cluster()
        rates = np.array([[3.0, 0.0], [1.0, 1.0]])
        assert np.allclose(c.dominant_factor() * Allocation(c, rates).aggregates, [0.25, 1 / 3])


class TestValidateRates:
    def test_valid(self):
        Allocation(cluster(), np.array([[2.0, 0.0], [1.0, 1.0]]))

    def test_rejects_cap_violation(self):
        with pytest.raises(ValueError, match="demand cap"):
            Allocation(cluster(), np.array([[11.0, 0.0], [0.0, 0.0]]))

    def test_rejects_resource_violation(self):
        with pytest.raises(ValueError, match="over-allocated on 'cpu'"):
            # within every task cap, but 4*1 + 3*2 = 10 > 8 cpu at A
            Allocation(cluster(), np.array([[4.0, 0.0], [3.0, 0.0]]))
