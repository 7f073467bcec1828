"""Tests for enhanced AMF (sharing-incentive floors)."""

import numpy as np
import pytest

from repro.core import properties
from repro.core.amf import amf_levels
from repro.core.enhanced import sharing_incentive_floors, solve_amf_enhanced
from repro.core.amf import solve_amf

from tests.conftest import random_cluster


class TestFloors:
    def test_floors_are_entitlements(self, two_site_cluster):
        f = sharing_incentive_floors(two_site_cluster)
        assert np.allclose(f, [1 / 3, 1 / 3, 1 / 3 + 0.2])

    def test_floors_clipped_to_demand(self):
        from repro.model.cluster import Cluster

        c = Cluster.from_matrices([9.0], [[1.0], [1.0], [1.0]], [[1.0], [np.inf], [np.inf]])
        f = sharing_incentive_floors(c)
        assert f[0] == pytest.approx(1.0)  # demand 1 < entitlement 3
        assert f[1] == pytest.approx(3.0)

    def test_floors_always_feasible(self, rng):
        """The equal partition is a feasibility witness for the floors."""
        for _ in range(25):
            c = random_cluster(rng)
            amf_levels(c, floors=sharing_incentive_floors(c))  # would raise ValueError if floors infeasible


class TestPaperMotivatingViolation:
    def test_paper_motivating_violation(self, two_site_cluster):
        """AMF violates sharing incentive here; AMF-E repairs it (abstract claim)."""
        amf = solve_amf(two_site_cluster)
        violations = properties.sharing_incentive_violations(amf)
        assert violations, "AMF should violate SI on the motivating instance"
        assert violations[0][0] == "c"
        assert violations[0][1] == pytest.approx(1 / 3 + 0.2 - 0.4, abs=1e-6)

        enhanced = solve_amf_enhanced(two_site_cluster)
        assert properties.satisfies_sharing_incentive(enhanced)
        assert np.allclose(enhanced.aggregates, [1 / 3, 1 / 3, 1 / 3 + 0.2], atol=1e-8)


class TestEnhancedProperties:
    def test_always_satisfies_sharing_incentive(self, rng):
        for _ in range(20):
            c = random_cluster(rng, cap_prob=0.8)
            e = solve_amf_enhanced(c)
            assert properties.satisfies_sharing_incentive(e)

    def test_still_pareto_efficient(self, rng):
        for _ in range(10):
            c = random_cluster(rng)
            e = solve_amf_enhanced(c)
            assert properties.is_pareto_efficient(e)

    def test_matches_amf_when_no_violation(self):
        """With identical symmetric jobs, floors never bind: AMF-E == AMF."""
        from repro.model.cluster import Cluster

        c = Cluster.uniform(4, 3, capacity=2.0)
        assert np.allclose(amf_levels(c), amf_levels(c, floors=sharing_incentive_floors(c)), atol=1e-8)

    def test_policy_label(self, two_site_cluster):
        assert solve_amf_enhanced(two_site_cluster).policy == "amf-e"

    def test_enhanced_dominates_floor_for_everyone(self, rng):
        for _ in range(15):
            c = random_cluster(rng, cap_prob=0.8)
            f = sharing_incentive_floors(c)
            lv = amf_levels(c, floors=sharing_incentive_floors(c))
            assert (lv >= f - 1e-7).all()

    def test_min_level_at_least_min_entitlement(self, rng):
        """The floors lower-bound every job, so the global min does not fall below the min floor."""
        for _ in range(10):
            c = random_cluster(rng, cap_prob=0.8)
            lv = amf_levels(c, floors=sharing_incentive_floors(c))
            f = sharing_incentive_floors(c)
            assert lv.min() >= f.min() - 1e-7
