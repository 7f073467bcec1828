"""Tests for the policy registry."""

import numpy as np
import pytest

from repro.core.policies import POLICIES, get_policy
from repro.workload.generator import WorkloadSpec, generate_cluster

from tests.conftest import random_cluster


EXPECTED = {
    "psmf",
    "amf",
    "amf-e",
    "amf-ct",
    "amf-ct-quick",
    "amf-ct-makespan",
    "amf-ct-lex",
    "amf-e-ct",
    "amf-prop",
    "amf-resilient",
}


class TestRegistry:
    def test_expected_policies_registered(self):
        assert set(POLICIES) == EXPECTED

    def test_get_policy_unknown(self):
        with pytest.raises(KeyError, match="choices"):
            get_policy("nope")

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_policy_returns_valid_allocation(self, name, rng):
        c = random_cluster(np.random.default_rng(3), n_jobs=4, n_sites=3, cap_prob=0.0)
        alloc = get_policy(name)(c)  # Allocation constructor enforces feasibility
        assert alloc.matrix.shape == (4, 3)

    def test_amf_variants_share_aggregates(self, rng):
        """All amf+CT variants re-split the same AMF aggregate vector."""
        from repro.core.amf import amf_levels

        c = random_cluster(np.random.default_rng(5), n_jobs=5, n_sites=3, cap_prob=0.0)
        lv = amf_levels(c)
        for name in ("amf", "amf-ct", "amf-ct-quick", "amf-ct-makespan", "amf-ct-lex"):
            agg = get_policy(name)(c).aggregates
            assert np.allclose(agg, lv, atol=1e-5), name

    def test_enhanced_ct_keeps_floors(self, two_site_cluster):
        from repro.core.enhanced import sharing_incentive_floors

        alloc = get_policy("amf-e-ct")(two_site_cluster)
        floors = sharing_incentive_floors(two_site_cluster)
        assert (alloc.aggregates >= floors - 1e-6).all()

    def test_psmf_and_amf_on_a_zipf_cluster(self):
        from repro.core.amf import amf_levels

        c = generate_cluster(WorkloadSpec(n_jobs=100, n_sites=20, theta=1.2), np.random.default_rng(0))
        assert get_policy("psmf")(c).utilization > 0
        assert amf_levels(c).min() >= 0
