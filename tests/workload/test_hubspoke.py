"""Tests for the hub-and-spoke instance family and its closed-form analysis."""

import numpy as np
import pytest

from repro.core import properties
from repro.core.policies import get_policy
from repro.model.cluster import Cluster
from repro.workload.hubspoke import HubSpokeSpec, hub_and_spoke_cluster


def predicted_violators(spec: HubSpokeSpec, cluster: Cluster) -> list[str]:
    """Closed-form prediction of which jobs AMF leaves below entitlement.

    Satellites are private, so Pareto efficiency forces every job to its
    full satellite cap; the hub then water-fills *on top of the caps*:
    every job ends at ``A_i = max(lam, d_i)`` where ``lam`` solves
    ``sum_i max(lam - d_i, 0) = c_hub``.  Job ``i``'s entitlement is
    ``c_hub / n + min(d_i, c_sat / n)``; the predicted violators are the
    jobs whose entitlement exceeds their ``A_i``: the oracle the flow
    solver's violators are checked against.
    """
    caps = np.array(
        [job.demand_at(f"sat{k}", 0.0) if f"sat{k}" in job.workload else 0.0 for k, job in enumerate(cluster.jobs)]
    )
    n = cluster.n_jobs
    # solve sum_i max(lam - d_i, 0) = c_hub  (piecewise linear in lam)
    order = np.sort(caps)
    lam = None
    for k in range(n):
        # suppose exactly jobs with d < order[k] .. try lam in segment
        below = order[: k + 1]
        candidate = (spec.hub_capacity + below.sum()) / (k + 1)
        upper = order[k + 1] if k + 1 < n else np.inf
        if order[k] <= candidate <= upper:
            lam = candidate
            break
    if lam is None:  # pragma: no cover - the segments cover all cases
        lam = (spec.hub_capacity + caps.sum()) / n
    aggregates = np.maximum(lam, caps)
    sat_share = spec.effective_satellite_capacity / n
    entitlements = spec.hub_capacity / n + np.minimum(caps, sat_share)
    return [cluster.jobs[i].name for i in range(n) if entitlements[i] > aggregates[i] + 1e-9]


class TestSpec:
    def test_defaults(self):
        spec = HubSpokeSpec()
        assert spec.effective_satellite_capacity == pytest.approx(2 * 12 * 0.15)

    def test_explicit_satellite_capacity(self):
        assert HubSpokeSpec(satellite_capacity=5.0).effective_satellite_capacity == 5.0

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            HubSpokeSpec(n_jobs=1)

    def test_rejects_bad_spread(self):
        with pytest.raises(ValueError):
            HubSpokeSpec(cap_spread=1.5)


class TestGeneration:
    def test_structure(self):
        spec = HubSpokeSpec(n_jobs=5)
        c = hub_and_spoke_cluster(spec, np.random.default_rng(0))
        assert c.n_sites == 6  # hub + 5 satellites
        assert c.n_jobs == 5
        for i, job in enumerate(c.jobs):
            assert "hub" in job.workload
            assert f"sat{i}" in job.workload

    def test_satellites_private(self):
        c = hub_and_spoke_cluster(HubSpokeSpec(n_jobs=4), np.random.default_rng(1))
        # each satellite has exactly one job with support there
        for j, site in enumerate(c.sites):
            if site.name == "hub":
                continue
            assert int(c.support[:, j].sum()) == 1

    def test_zero_spread_homogeneous(self):
        spec = HubSpokeSpec(n_jobs=4, cap_spread=0.0)
        c = hub_and_spoke_cluster(spec, np.random.default_rng(2))
        caps = [job.demand_at(f"sat{k}") for k, job in enumerate(c.jobs)]
        assert np.allclose(caps, spec.mean_cap)


class TestClosedFormAnalysis:
    @pytest.mark.parametrize("n_jobs", [3, 8, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prediction_matches_solver(self, n_jobs, seed):
        """The paper-math prediction of SI violators equals the flow solver's."""
        spec = HubSpokeSpec(n_jobs=n_jobs, cap_spread=1.0)
        c = hub_and_spoke_cluster(spec, np.random.default_rng(seed))
        amf = get_policy("amf")(c)
        actual = sorted(name for name, _ in properties.sharing_incentive_violations(amf))
        assert actual == sorted(predicted_violators(spec, c))

    def test_homogeneous_caps_never_violate(self):
        spec = HubSpokeSpec(n_jobs=6, cap_spread=0.0)
        c = hub_and_spoke_cluster(spec, np.random.default_rng(0))
        amf = get_policy("amf")(c)
        assert properties.satisfies_sharing_incentive(amf)
        assert predicted_violators(spec, c) == []

    def test_heterogeneous_caps_do_violate(self):
        spec = HubSpokeSpec(n_jobs=10, cap_spread=1.0)
        c = hub_and_spoke_cluster(spec, np.random.default_rng(3))
        amf = get_policy("amf")(c)
        assert not properties.satisfies_sharing_incentive(amf)

    def test_enhanced_always_repairs(self):
        for seed in range(5):
            spec = HubSpokeSpec(n_jobs=8, cap_spread=1.0)
            c = hub_and_spoke_cluster(spec, np.random.default_rng(seed))
            e = get_policy("amf-e")(c)
            assert properties.satisfies_sharing_incentive(e)
