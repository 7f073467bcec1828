"""Shape tests for the paper's claims (abstract, reconstructed evaluation).

Each test pins one qualitative claim from the abstract:

1. AMF is Pareto-efficient, envy-free and (probed) strategy-proof.
2. AMF does *not* always satisfy sharing incentive; enhanced AMF does.
3. Compared with the per-site baseline, AMF balances allocations
   significantly better, *particularly under high skew*.
4. The completion-time add-on improves batch JCT over a naive split.

These run at moderate scale so the margins are meaningful, not noise.
Every experiment's own shape gate is ``CLAIMS`` in
``tests/analysis/test_experiments.py``.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (
    run_f1_balance_vs_skew,
    run_f3_jct_vs_skew,
    run_t2_sharing_incentive,
)
from repro.core import properties
from repro.core.policies import get_policy
from repro.workload.generator import WorkloadSpec, generate_cluster
from tests.analysis.sweeps import metric_at


class TestPropertyClaims:
    def test_amf_properties_hold_on_battery(self):
        failures = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cluster = generate_cluster(WorkloadSpec(n_jobs=12, n_sites=4, theta=1.4), rng)
            alloc = get_policy("amf")(cluster)
            if not properties.is_pareto_efficient(alloc):
                failures.append((seed, "pareto"))
            if not properties.is_max_min_fair(alloc):
                failures.append((seed, "max_min"))
            if not properties.is_envy_free(alloc):
                failures.append((seed, "envy"))
        assert not failures

    @pytest.fixture(scope="class")
    def t2(self):
        return run_t2_sharing_incentive(scale=0.6, seeds=tuple(range(8))).data["stats"]

    def test_amf_sharing_incentive_fails_somewhere(self, t2):
        """The abstract: AMF 'does not necessarily satisfy the sharing incentive'."""
        assert t2["amf"]["violated"] > 0

    def test_enhanced_amf_always_satisfies_si(self, t2):
        assert t2["amf-e"]["violated"] == 0


class TestBalanceClaims:
    @pytest.fixture(scope="class")
    def f1(self):
        return run_f1_balance_vs_skew(scale=0.5, seeds=(0, 1, 2), thetas=(0.0, 1.0, 2.0)).data["sweep"]

    def test_amf_never_less_balanced(self, f1):
        for theta in (0.0, 1.0, 2.0):
            assert metric_at(f1, "amf/jain", theta) >= metric_at(f1, "psmf/jain", theta) - 1e-9

    def test_gap_grows_with_skew(self, f1):
        gap_low = metric_at(f1, "amf/jain", 0.0) - metric_at(f1, "psmf/jain", 0.0)
        gap_high = metric_at(f1, "amf/jain", 2.0) - metric_at(f1, "psmf/jain", 2.0)
        assert gap_high > gap_low

    def test_amf_significantly_better_at_high_skew(self, f1):
        assert metric_at(f1, "amf/jain", 2.0) > metric_at(f1, "psmf/jain", 2.0) * 1.05
        assert metric_at(f1, "amf/cov", 2.0) < metric_at(f1, "psmf/cov", 2.0) * 0.8


class TestJctClaims:
    @pytest.fixture(scope="class")
    def f3(self):
        # Each theta point simulates on its own, so sweeping only the point
        # the tests read gives the same numbers, bit for bit.
        return run_f3_jct_vs_skew(
            scale=0.35, seeds=(0, 1), thetas=(1.5,), policies=("psmf", "amf", "amf-ct-quick")
        ).data["sweep"]

    def test_amf_jct_competitive_at_high_skew(self, f3):
        """AMF (with dynamics) does not lose to PSMF on mean JCT under skew."""
        assert metric_at(f3, "amf/mean_jct", 1.5) <= metric_at(f3, "psmf/mean_jct", 1.5) * 1.10

    def test_ct_addon_helps_over_plain_amf(self, f3):
        assert (
            metric_at(f3, "amf-ct-quick/mean_jct", 1.5)
            <= metric_at(f3, "amf/mean_jct", 1.5) * 1.02
        )
