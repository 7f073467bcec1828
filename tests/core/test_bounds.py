"""Tests for the locality-oblivious reference bound and the price of locality."""

import numpy as np
import pytest

from repro.core.amf import amf_levels, solve_amf
from repro.core.bounds import locality_oblivious_levels, price_of_locality
from repro.model.cluster import Cluster

from tests.conftest import random_cluster


class TestLocalityOblivious:
    def test_pooled_waterfill(self):
        # full support so each job's aggregate demand cap is the whole pool
        c = Cluster.from_matrices([2.0, 4.0], [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(locality_oblivious_levels(c), [3.0, 3.0])

    def test_effective_caps_respected(self):
        # pinned jobs keep their (site-clipped) aggregate demand caps, so
        # the pooled relaxation still cannot give job 0 more than c_0 = 2
        c = Cluster.from_matrices([2.0, 4.0], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(locality_oblivious_levels(c), [2.0, 4.0])

    def test_caps_still_bind(self):
        c = Cluster.from_matrices([10.0], [[1.0], [1.0]], [[1.0], [np.inf]])
        assert np.allclose(locality_oblivious_levels(c), [1.0, 9.0])

    def test_min_level_upper_bounds_amf(self, rng):
        for _ in range(15):
            c = random_cluster(rng)
            amf_min = float((amf_levels(c) / c.weights).min())
            obl_min = float((locality_oblivious_levels(c) / c.weights).min())
            assert amf_min <= obl_min + 1e-9

    def test_matches_amf_on_fully_connected_uncapped(self):
        c = Cluster.from_matrices([2.0, 3.0], np.ones((4, 2)))
        assert np.allclose(locality_oblivious_levels(c), amf_levels(c), atol=1e-8)


class TestPriceOfLocality:
    def test_free_when_unconstrained(self):
        c = Cluster.from_matrices([4.0], [[1.0], [1.0]])
        alloc = solve_amf(c)
        assert price_of_locality(c, alloc.aggregates) == pytest.approx(1.0)

    def test_positive_under_skew(self):
        # one job locked in a crowded site: its level is far below the pool ideal
        c = Cluster.from_matrices([1.0, 10.0], [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        from repro.core.persite import solve_psmf

        psmf = solve_psmf(c)
        assert price_of_locality(c, psmf.aggregates) > 2.0

    def test_starved_job_gives_inf(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]])
        assert np.isinf(price_of_locality(c, np.array([0.0, 1.0])))

    def test_never_below_one(self, rng):
        for _ in range(10):
            c = random_cluster(rng)
            alloc = solve_amf(c)
            assert price_of_locality(c, alloc.aggregates) >= 1.0
