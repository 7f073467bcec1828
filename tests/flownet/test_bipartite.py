"""Hand-checked job-site feasibility cases, run on the shipped oracle.

:class:`ParametricFeasibility` is the one feasibility path: ``probe`` for
verdicts (an infeasible one carries its minimal min cut) and
``allocation_matrix`` for the split.  A fresh oracle per call is the cold
path; one oracle across calls is the warm one.
"""

import numpy as np
import pytest

from repro.flownet.parametric import ParametricFeasibility
from repro.model.cluster import Cluster


def cluster2x2() -> Cluster:
    return Cluster.from_matrices(
        capacities=[1.0, 2.0],
        workloads=[[1.0, 1.0], [0.0, 1.0]],
        demand_caps=[[np.inf, np.inf], [np.inf, 0.5]],
    )


def feasible(cluster: Cluster, targets) -> bool:
    return ParametricFeasibility(cluster).probe(np.asarray(targets, dtype=float)).feasible


class TestFeasibility:
    def test_zero_targets_always_feasible(self):
        assert feasible(cluster2x2(), np.zeros(2))

    def test_targets_within_capacity(self):
        assert feasible(cluster2x2(), [1.0, 0.5])

    def test_capacity_violation_detected(self):
        # job 0 can take at most 1 + 2 = 3
        assert not feasible(cluster2x2(), [3.5, 0.0])

    def test_demand_cap_violation_detected(self):
        # job 1 only reaches site 1, cap 0.5
        assert not feasible(cluster2x2(), [0.0, 0.6])

    def test_support_restriction(self):
        # job 1 cannot use site 0 at all
        c = Cluster.from_matrices([5.0, 0.1], [[1.0, 1.0], [0.0, 1.0]])
        assert not feasible(c, [0.0, 0.2])

    def test_shared_bottleneck(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]])
        assert feasible(c, [0.5, 0.5])
        assert not feasible(c, [0.6, 0.5])


class TestOutcome:
    def test_cut_identifies_bottleneck_jobs_and_sites(self):
        # jobs 0,1 share a unit site; target 0.6 each is infeasible
        c = Cluster.from_matrices([1.0, 10.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = ParametricFeasibility(c).probe(np.array([0.6, 0.6, 1.0]))
        assert not out.feasible
        assert out.cut_jobs == {0, 1}
        assert out.cut_sites == {0}

    def test_feasible_outcome_flow_matches_demand(self):
        out = ParametricFeasibility(cluster2x2()).probe(np.array([1.0, 0.5]))
        assert out.feasible
        assert out.flow_value == pytest.approx(1.5)


class TestAllocationExtraction:
    def test_matrix_respects_everything(self):
        c = cluster2x2()
        oracle = ParametricFeasibility(c)
        assert oracle.allocation_matrix(np.array([3.5, 0.5])) is None  # over capacity
        mat = oracle.allocation_matrix(np.array([2.0, 0.5]))
        assert mat.shape == (2, 2)
        assert (mat >= -1e-12).all()
        assert mat[1, 0] == 0.0  # outside support
        assert mat[1, 1] <= 0.5 + 1e-9  # demand cap
        assert mat.sum(axis=0)[0] <= 1.0 + 1e-9
        assert mat.sum(axis=0)[1] <= 2.0 + 1e-9

    def test_aggregates_match_feasible_targets(self):
        c = cluster2x2()
        targets = np.array([1.5, 0.5])
        mat = ParametricFeasibility(c).allocation_matrix(targets)
        assert np.allclose(mat.sum(axis=1), targets, atol=1e-9)


class TestIncrementalTargets:
    """One oracle across probes: rising targets continue the flow, falling
    ones cancel the excess, and every verdict is the cold one."""

    def test_raising_targets_keeps_flow(self):
        oracle = ParametricFeasibility(cluster2x2())
        assert oracle.probe(np.array([0.5, 0.1])).feasible
        out = oracle.probe(np.array([1.0, 0.5]))
        assert out.feasible and out.mode == "flow-warm"
        assert out.demanded == pytest.approx(1.5)

    def test_lowering_targets_resets(self):
        oracle = ParametricFeasibility(cluster2x2())
        assert not oracle.probe(np.array([3.0, 0.5])).feasible  # saturates the sites
        out = oracle.probe(np.array([0.2, 0.2]))
        assert out.feasible
        assert out.flow_value == pytest.approx(0.4)
        assert oracle.stats.probe_rollbacks == 1

    def test_interleaved_raises_and_drops(self):
        oracle = ParametricFeasibility(cluster2x2())
        for targets in ([0.3, 0.1], [0.9, 0.4], [0.1, 0.0], [1.0, 0.5]):
            targets = np.array(targets)
            out = oracle.probe(targets)
            assert out.feasible
            np.testing.assert_allclose(oracle.allocation_matrix(targets).sum(axis=1), targets, atol=1e-8)
