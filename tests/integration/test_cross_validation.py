"""Final cross-validation battery: all solver features combined.

Weights, demand caps and entitlement floors together, checked against the
LP oracle (:mod:`tests.oracle`) and the exact property deciders — the strongest
single piece of evidence that the production solver is right.
"""

import numpy as np
import pytest

from repro.core import properties
from repro.core.amf import amf_levels, solve_amf
from repro.core.enhanced import sharing_incentive_floors

from tests.conftest import random_cluster
from tests.oracle import probe_fill_shares


class TestEverythingAtOnce:
    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_capped_floored_matches_oracle(self, seed):
        rng = np.random.default_rng(9000 + seed)
        cluster = random_cluster(rng, cap_prob=0.6, weight_spread=2.0)
        floors = sharing_incentive_floors(cluster)
        ours = amf_levels(cluster, floors=floors)
        shares, _ = probe_fill_shares(cluster, floors)
        assert np.abs(ours - shares / cluster.dominant_factor()).max() < 1e-9 * max(1.0, ours.max())

    @pytest.mark.parametrize("seed", range(6))
    def test_floored_solution_properties(self, seed):
        rng = np.random.default_rng(9100 + seed)
        cluster = random_cluster(rng, cap_prob=0.6, weight_spread=2.0)
        floors = sharing_incentive_floors(cluster)
        alloc = solve_amf(cluster, floors=floors)
        # floors respected, Pareto-efficient, and SI holds by construction
        assert (alloc.aggregates >= floors - 1e-6).all()
        assert properties.is_pareto_efficient(alloc)
        assert properties.satisfies_sharing_incentive(alloc)

    def test_extreme_mixture_instance(self):
        """One adversarial instance mixing every feature at once."""
        from repro.model.cluster import Cluster

        cluster = Cluster.from_matrices(
            capacities=[0.01, 100.0, 3.0],
            workloads=[
                [1.0, 0.0, 0.0],  # pinned at the tiny site
                [1.0, 1.0, 0.0],  # tiny + huge
                [0.0, 1.0, 1.0],  # huge + medium, capped
                [0.0, 0.0, 1.0],  # pinned at medium
                [1.0, 1.0, 1.0],  # everywhere, heavy weight
            ],
            demand_caps=[
                [np.inf, np.inf, np.inf],
                [np.inf, 0.5, np.inf],
                [np.inf, np.inf, 0.2],
                [np.inf, np.inf, np.inf],
                [0.005, 10.0, 1.0],
            ],
            weights=[1.0, 1.0, 2.0, 1.0, 5.0],
        )
        ours = amf_levels(cluster)
        shares, _ = probe_fill_shares(cluster)
        assert np.abs(ours - shares / cluster.dominant_factor()).max() < 1e-9 * max(1.0, ours.max())
        alloc = solve_amf(cluster)
        assert properties.is_max_min_fair(alloc)
        assert properties.is_pareto_efficient(alloc)
        assert properties.is_envy_free(alloc)
