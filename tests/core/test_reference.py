"""Tests for the LP oracle (:mod:`tests.oracle`): it must be trustworthy itself.

Hand cases pin its answers; the regression draws are the demand-capped
clusters on which the bisection-plus-freeze-probe oracles it replaced
read a failed HiGHS probe as "frozen" and under-filled by 0.10-0.72
(scalar) and 0.199 (vector); the failure tests pin that a failed LP
raises instead of answering.
"""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import tests.oracle
from repro.core.amf import amf_levels
from repro.model.cluster import Cluster
from tests.conftest import random_cluster
from tests.oracle import OracleError, lp_feasible, probe_fill_shares


class TestReferenceFeasible:
    def test_trivial(self):
        c = Cluster.from_matrices([1.0], [[1.0]])
        assert lp_feasible(c, np.array([0.5]))
        assert not lp_feasible(c, np.array([1.5]))

    def test_respects_support(self):
        c = Cluster.from_matrices([1.0, 1.0], [[1.0, 0.0]])
        assert not lp_feasible(c, np.array([1.5]))

    def test_respects_demand_caps(self):
        c = Cluster.from_matrices([1.0], [[1.0]], [[0.3]])
        assert not lp_feasible(c, np.array([0.4]))


class TestReferenceLevels:
    def test_single_site_waterfill(self):
        c = Cluster.from_matrices([6.0], [[1.0], [1.0], [1.0]], [[1.0], [np.inf], [np.inf]])
        shares, _ = probe_fill_shares(c)
        assert np.allclose(shares / c.dominant_factor(), [1.0, 2.5, 2.5], atol=1e-9)

    def test_cross_site_compensation(self):
        c = Cluster.from_matrices([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]])
        shares, _ = probe_fill_shares(c)
        assert np.allclose(shares / c.dominant_factor(), [1.0, 1.0], atol=1e-9)

    def test_motivating_instance(self, two_site_cluster):
        shares, _ = probe_fill_shares(two_site_cluster)
        assert np.allclose(shares / two_site_cluster.dominant_factor(), [0.4, 0.4, 0.4], atol=1e-9)

    def test_floors(self):
        c = Cluster.from_matrices([3.0], [[1.0], [1.0], [1.0]])
        shares, _ = probe_fill_shares(c, floors=np.array([2.0, 0.0, 0.0]))
        assert np.allclose(shares / c.dominant_factor(), [2.0, 0.5, 0.5], atol=1e-9)

    def test_infeasible_floors_rejected(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="floors are infeasible"):
            probe_fill_shares(c, floors=np.array([0.8, 0.8]))

    def test_empty(self):
        c = Cluster.from_matrices([1.0], np.zeros((0, 1)))
        assert probe_fill_shares(c) == (pytest.approx(np.zeros(0)), 0)

    def test_weighted(self):
        c = Cluster.from_matrices([3.0], [[1.0], [1.0]], weights=[1.0, 2.0])
        shares, _ = probe_fill_shares(c)
        assert np.allclose(shares / c.dominant_factor(), [1.0, 2.0], atol=1e-9)


class TestRegressionDraws:
    @pytest.mark.parametrize("seed", [50, 106, 109, 235, 274])
    def test_demand_capped_scalar_draw(self, seed):
        c = random_cluster(np.random.default_rng(seed), cap_prob=0.6)
        levels = amf_levels(c)
        shares, _ = probe_fill_shares(c)
        assert np.abs(shares / c.dominant_factor() - levels).max() <= 1e-9 * max(1.0, np.abs(levels).max())


class TestFailsLoudly:
    """A failed LP raises; it is never read as an answer."""

    @staticmethod
    def fail_call(monkeypatch, call: int, status: int):
        """Make the ``call``-th LP the oracle solves (1-based) report ``status``."""
        calls = []
        solve = tests.oracle.linprog

        def linprog(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                return OptimizeResult(success=False, status=status, message="patched failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(tests.oracle, "linprog", linprog)

    def cluster(self):
        # one site, two uncapped jobs: round one is one max-level LP then
        # one probe per job, and both jobs freeze at 0.5
        return Cluster.from_matrices([1.0], [[1.0], [1.0]])

    def test_failed_probe_raises_naming_round_job_and_status(self, monkeypatch):
        self.fail_call(monkeypatch, call=2, status=4)
        with pytest.raises(OracleError, match=r"round 1: probe LP for job 0 failed \(HiGHS status 4"):
            probe_fill_shares(self.cluster())

    def test_first_round_numeric_failure_is_not_blamed_on_floors(self, monkeypatch):
        self.fail_call(monkeypatch, call=1, status=4)
        with pytest.raises(OracleError, match=r"round 1: max-level LP failed \(HiGHS status 4"):
            probe_fill_shares(self.cluster())

    def test_later_round_infeasible_is_not_blamed_on_floors(self, monkeypatch):
        # single-site water fill: j0 freezes at its cap in round one, so
        # round two opens with the fourth LP
        c = Cluster.from_matrices([6.0], [[1.0], [1.0], [1.0]], [[1.0], [np.inf], [np.inf]])
        self.fail_call(monkeypatch, call=4, status=2)
        with pytest.raises(OracleError, match=r"round 2: max-level LP failed \(HiGHS status 2"):
            probe_fill_shares(c)
