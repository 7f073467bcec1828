"""Unit tests for the Allocation invariant holder."""

import numpy as np
import pytest

from repro._util import ABS_TOL, REL_TOL
from repro.core.allocation import Allocation
from repro.model.cluster import Cluster


def cluster() -> Cluster:
    return Cluster.from_matrices(
        capacities=[2.0, 3.0],
        workloads=[[1.0, 1.0], [0.0, 2.0]],
        demand_caps=[[np.inf, np.inf], [np.inf, 1.5]],
    )


class TestInvariants:
    def test_valid_allocation(self):
        a = Allocation(cluster(), [[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(a.aggregates, [2.0, 1.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Allocation(cluster(), [[1.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Allocation(cluster(), [[-0.5, 0.0], [0.0, 0.0]])

    def test_rejects_off_support(self):
        with pytest.raises(ValueError, match="support"):
            Allocation(cluster(), [[0.0, 0.0], [0.5, 0.0]])

    def test_rejects_demand_cap_violation(self):
        with pytest.raises(ValueError, match="demand cap"):
            Allocation(cluster(), [[0.0, 0.0], [0.0, 1.9]])

    def test_rejects_site_overflow(self):
        # each entry within its own demand cap, but the column sum exceeds c_B = 3
        with pytest.raises(ValueError, match="over-allocated"):
            Allocation(cluster(), [[0.0, 2.5], [0.0, 1.0]])

    def test_site_overflow_message_names_the_first_offending_site(self):
        c = Cluster.from_matrices(capacities=[1.0, 2.0, 3.0], workloads=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError) as err:
            Allocation(c, [[0.5, 1.25, 2.0], [0.5, 1.0, 1.5]])
        assert str(err.value) == "site 's1' over-allocated: 2.25 > 2"

    def test_resource_overflow_message_names_site_and_resource(self):
        from repro.model.job import Job
        from repro.model.site import Site

        c = Cluster(
            [Site("a", {"cpu": 4.0, "mem": 8.0}), Site("b", {"cpu": 4.0, "mem": 4.0})],
            [Job(name, {"a": 1.0, "b": 1.0}, resources={"cpu": 1.0, "mem": 2.0}) for name in "xy"],
        )
        Allocation(c, [[2.0, 1.0], [2.0, 1.0]])  # a: cpu 4/4, mem 8/8; b: cpu 2/4, mem 4/4
        with pytest.raises(ValueError) as err:
            Allocation(c, [[2.0, 1.5], [2.0, 1.0]])  # b: mem 5 > 4 (cpu 2.5 is fine)
        assert str(err.value) == "site 'b' over-allocated on 'mem': 5 > 4"

    def test_column_exactly_at_capacity_plus_tolerance_is_accepted(self):
        # fle's bound for n = 2 jobs: c + 2 * max(1e-9, 1e-9 * c); the column
        # sum is built to land on it exactly, and one ulp above is refused
        c = Cluster.from_matrices(capacities=[2.0, 3.0], workloads=[[1.0, 1.0], [1.0, 1.0]])
        bound = 3.0 + 2.0 * max(ABS_TOL, REL_TOL * max(3.0 + 6e-9, 3.0))
        half = bound / 2.0
        assert half + half == bound
        assert Allocation(c, [[0.0, half], [0.0, half]]).site_usage[1] == bound
        with pytest.raises(ValueError, match="site 's1' over-allocated"):
            Allocation(c, [[0.0, half], [0.0, np.nextafter(half, np.inf)]])

    def test_tolerates_float_noise(self):
        a = Allocation(cluster(), [[2.0 + 1e-12, 0.0], [0.0, 0.0]])
        assert a.aggregates[0] <= 2.0 + 1e-9

    def test_matrix_frozen(self):
        a = Allocation(cluster(), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0

    def test_input_not_aliased(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        a = Allocation(cluster(), m)
        m[0, 0] = 99.0
        assert a.matrix[0, 0] == 1.0


class TestDerived:
    def test_site_usage_and_utilization(self):
        a = Allocation(cluster(), [[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(a.site_usage, [1.0, 2.0])
        assert a.utilization == pytest.approx(3.0 / 5.0)

    def test_aggregate_of_by_name(self):
        a = Allocation(cluster(), [[1.0, 1.0], [0.0, 1.0]])
        assert a.aggregate_of("j0") == pytest.approx(2.0)

    def test_completion_times(self):
        a = Allocation(cluster(), [[1.0, 0.5], [0.0, 1.0]])
        # job 0: max(1/1, 1/0.5) = 2 ; job 1: 2/1 = 2
        assert np.allclose(a.completion_times(), [2.0, 2.0])

    def test_completion_time_starved_edge_is_inf(self):
        a = Allocation(cluster(), [[1.0, 0.0], [0.0, 1.0]])
        t = a.completion_times()
        assert np.isinf(t[0])

    def test_normalized_aggregates_use_weights(self):
        c = Cluster.from_matrices([4.0], [[1.0], [1.0]], weights=[1.0, 2.0])
        a = Allocation(c, [[1.0], [2.0]])
        assert np.allclose(a.normalized_aggregates(), [1.0, 1.0])

    def test_with_matrix_keeps_policy(self):
        a = Allocation(cluster(), [[1.0, 0.0], [0.0, 0.0]], policy="amf")
        b = a.with_matrix([[0.5, 0.0], [0.0, 0.0]])
        assert b.policy == "amf"
        assert b.aggregates[0] == pytest.approx(0.5)

    def test_pretty_renders(self):
        text = Allocation(cluster(), [[1.0, 0.0], [0.0, 0.0]], policy="demo").pretty()
        assert "policy=demo" in text
        assert "j0" in text
