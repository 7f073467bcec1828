"""Tests for the AMF solver — hand-checked cases, oracles and invariants.

Layers of evidence:

1. hand-computable instances (including the paper-style motivating ones),
2. agreement with the LP reference solver (independent code path),
3. agreement with the bisection variant,
4. exact flow-based max-min / Pareto verification,
5. hypothesis-driven random instances for the structural invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import properties
from repro.core.amf import (
    AmfDiagnostics,
    PiecewiseFill,
    SiteCutFill,
    amf_levels,
    amf_levels_bisect,
    solve_amf,
)
from repro.core.reference import reference_feasible, reference_levels
from repro.model.cluster import Cluster

from tests.conftest import random_cluster


class TestPiecewiseFill:
    def test_value_simple(self):
        pf = PiecewiseFill(np.zeros(2), np.array([2.0, 4.0]), np.ones(2))
        assert pf.value(0.0) == pytest.approx(0.0)
        assert pf.value(1.0) == pytest.approx(2.0)
        assert pf.value(3.0) == pytest.approx(5.0)  # 2 + 3
        assert pf.value(10.0) == pytest.approx(6.0)

    def test_value_with_floors(self):
        pf = PiecewiseFill(np.array([1.0, 0.0]), np.array([3.0, 3.0]), np.ones(2))
        assert pf.value(0.0) == pytest.approx(1.0)  # floor only
        assert pf.value(0.5) == pytest.approx(1.5)  # floor + rising second
        assert pf.value(2.0) == pytest.approx(4.0)

    def test_value_weighted(self):
        pf = PiecewiseFill(np.zeros(1), np.array([4.0]), np.array([2.0]))
        assert pf.value(1.0) == pytest.approx(2.0)
        assert pf.value(3.0) == pytest.approx(4.0)  # capped at 4

    def test_max_level_interior(self):
        pf = PiecewiseFill(np.zeros(2), np.array([2.0, 4.0]), np.ones(2))
        assert pf.max_level(3.0) == pytest.approx(1.5)
        assert pf.max_level(5.0) == pytest.approx(3.0)

    def test_max_level_unbounded(self):
        pf = PiecewiseFill(np.zeros(1), np.array([2.0]), np.ones(1))
        assert np.isinf(pf.max_level(5.0))

    def test_max_level_at_total(self):
        pf = PiecewiseFill(np.zeros(2), np.array([1.0, 1.0]), np.ones(2))
        assert np.isinf(pf.max_level(2.0))

    def test_frozen_constant_jobs(self):
        # f == c models a frozen job: pure constant
        pf = PiecewiseFill(np.array([1.5, 0.0]), np.array([1.5, 5.0]), np.ones(2))
        assert pf.value(0.0) == pytest.approx(1.5)
        assert pf.max_level(3.5) == pytest.approx(2.0)

    def test_roundtrip_value_maxlevel(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            caps = rng.uniform(0.5, 5.0, n)
            floors = caps * rng.uniform(0.0, 0.9, n)
            w = rng.uniform(0.2, 3.0, n)
            pf = PiecewiseFill(floors, caps, w)
            for frac in (0.1, 0.5, 0.9):
                rhs = floors.sum() + frac * (caps.sum() - floors.sum())
                lam = pf.max_level(rhs)
                if np.isfinite(lam):
                    assert pf.value(lam) == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSiteCutFill:
    """H(lam) = sum_i max(0, clip(lam*w_i, f_i, c_i) - x_i) — the site-cut LHS."""

    @staticmethod
    def direct(lam, f, c, w, x):
        t = np.clip(lam * w, np.minimum(f, c), c)
        return float(np.maximum(0.0, t - x).sum())

    def test_zero_cross_degenerates_to_piecewise_fill(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            caps = rng.uniform(0.5, 5.0, n)
            floors = caps * rng.uniform(0.0, 0.9, n)
            w = rng.uniform(0.2, 3.0, n)
            pf = PiecewiseFill(floors, caps, w)
            sf = SiteCutFill(floors, caps, w, np.zeros(n))
            for lam in rng.uniform(0.0, 8.0, 10):
                assert sf.value(float(lam)) == pytest.approx(pf.value(float(lam)), abs=1e-9)
            for rhs in rng.uniform(0.0, caps.sum() * 1.1, 5):
                a, b = sf.max_level(float(rhs)), pf.max_level(float(rhs))
                assert a == b or a == pytest.approx(b, rel=1e-9)

    def test_value_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            w = rng.uniform(0.2, 3.0, n)
            c = rng.uniform(0.5, 5.0, n)
            f = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n) * c)
            x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 6.0, n))
            sf = SiteCutFill(f, c, w, x)
            for lam in np.append(rng.uniform(0.0, 8.0, 15), 0.0):
                assert sf.value(float(lam)) == pytest.approx(
                    self.direct(lam, f, c, w, x), abs=1e-9
                )

    def test_max_level_is_the_crossing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            w = rng.uniform(0.2, 3.0, n)
            c = rng.uniform(0.5, 5.0, n)
            f = np.zeros(n)
            x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 6.0, n))
            sf = SiteCutFill(f, c, w, x)
            for rhs in rng.uniform(0.0, sf.total_cap, 8):
                rhs = float(rhs)
                lam = sf.max_level(rhs)
                if np.isinf(lam):
                    assert sf.total_cap <= rhs + 1e-6
                else:
                    assert self.direct(lam, f, c, w, x) <= rhs + 1e-6
                    assert self.direct(lam + 1e-5, f, c, w, x) >= rhs - 1e-6

    def test_plateau_resolves_to_next_breakpoint(self):
        # one job saturated exactly at its crossing capacity: H sits at rhs
        # until a second job starts exceeding its own crossing.
        sf = SiteCutFill(
            np.array([1.0, 0.0]),  # job 0 frozen at 1.0
            np.array([1.0, 4.0]),
            np.ones(2),
            np.array([0.0, 2.0]),
        )
        # H = 1.0 for lam <= 2, then 1.0 + (lam - 2)
        assert sf.value(1.5) == pytest.approx(1.0)
        assert sf.max_level(1.0) == pytest.approx(2.0)

    def test_fully_crossing_job_contributes_nothing(self):
        # x >= c: the job can always route around the cut
        sf = SiteCutFill(np.zeros(1), np.array([2.0]), np.ones(1), np.array([5.0]))
        assert sf.value(10.0) == 0.0
        assert np.isinf(sf.max_level(0.0))


class TestHandCases:
    def test_single_site_matches_waterfill(self):
        c = Cluster.from_matrices([6.0], [[1.0], [1.0], [1.0]], [[1.0], [np.inf], [np.inf]])
        assert np.allclose(amf_levels(c), [1.0, 2.5, 2.5])

    def test_disjoint_sites(self):
        c = Cluster.from_matrices([2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(amf_levels(c), [2.0, 3.0])

    def test_aggregate_compensation(self):
        """AMF's signature move: the multi-site job yields the hot site and
        recoups at the idle one, leaving everyone at the same aggregate."""
        c = Cluster.from_matrices(
            capacities=[1.0, 1.0],
            workloads=[[1.0, 0.0], [1.0, 1.0]],
        )
        lv = amf_levels(c)
        assert np.allclose(lv, [1.0, 1.0])
        a = solve_amf(c)
        # the hot site goes (almost) fully to the pinned job
        assert a.matrix[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_motivating_si_violation(self, two_site_cluster):
        lv = amf_levels(two_site_cluster)
        assert np.allclose(lv, [0.4, 0.4, 0.4], atol=1e-9)

    def test_three_jobs_two_sites_progressive(self):
        # jobs 0,1 pinned at site A (cap 1); job 2 spans A and B (cap 1)
        c = Cluster.from_matrices([1.0, 1.0], [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        lv = amf_levels(c)
        assert np.allclose(lv, [0.5, 0.5, 1.0])

    def test_empty_cluster(self):
        c = Cluster.from_matrices([1.0], np.zeros((0, 1)))
        assert amf_levels(c).size == 0

    def test_zero_demand_job(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]], [[0.0], [np.inf]])
        lv = amf_levels(c)
        assert np.allclose(lv, [0.0, 1.0])

    def test_uncontended_instance_saturates_demands(self):
        c = Cluster.from_matrices([10.0], [[1.0], [1.0]], [[2.0], [3.0]])
        assert np.allclose(amf_levels(c), [2.0, 3.0])


class TestWeighted:
    def test_weighted_single_site(self):
        c = Cluster.from_matrices([3.0], [[1.0], [1.0]], weights=[1.0, 2.0])
        assert np.allclose(amf_levels(c), [1.0, 2.0])

    def test_weighted_with_cap(self):
        c = Cluster.from_matrices([3.0], [[1.0], [1.0]], [[np.inf], [1.0]], weights=[1.0, 2.0])
        assert np.allclose(amf_levels(c), [2.0, 1.0])

    def test_weighted_cross_site(self):
        c = Cluster.from_matrices(
            [2.0, 2.0],
            [[1.0, 1.0], [1.0, 1.0]],
            weights=[3.0, 1.0],
        )
        lv = amf_levels(c)
        assert np.allclose(lv, [3.0, 1.0])

    def test_weighted_matches_reference(self, rng):
        for _ in range(10):
            c = random_cluster(rng, weight_spread=2.0)
            assert np.abs(amf_levels(c) - reference_levels(c)).max() < 1e-5


class TestFloors:
    def test_floors_respected(self, two_site_cluster):
        floors = np.array([0.0, 0.0, 0.5])
        lv = amf_levels(two_site_cluster, floors=floors)
        assert lv[2] >= 0.5 - 1e-9

    def test_floors_above_demand_clipped(self):
        c = Cluster.from_matrices([10.0], [[1.0]], [[1.0]])
        lv = amf_levels(c, floors=np.array([5.0]))
        assert lv[0] == pytest.approx(1.0)

    def test_infeasible_floors_rejected(self):
        c = Cluster.from_matrices([1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="infeasible"):
            amf_levels(c, floors=np.array([0.8, 0.8]))

    def test_negative_floors_rejected(self):
        c = Cluster.from_matrices([1.0], [[1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            amf_levels(c, floors=np.array([-0.5]))

    def test_zero_floors_match_plain(self, rng):
        for _ in range(5):
            c = random_cluster(rng)
            assert np.allclose(amf_levels(c), amf_levels(c, floors=np.zeros(c.n_jobs)), atol=1e-9)

    def test_fill_above_floors_is_maxmin(self):
        # one privileged job floored high; others equalize below
        c = Cluster.from_matrices([3.0], [[1.0], [1.0], [1.0]])
        lv = amf_levels(c, floors=np.array([2.0, 0.0, 0.0]))
        assert np.allclose(lv, [2.0, 0.5, 0.5])


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_lp_reference(self, seed):
        rng = np.random.default_rng(seed)
        c = random_cluster(rng)
        lv = amf_levels(c)
        ref = reference_levels(c)
        assert np.abs(lv - ref).max() < 1e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bisection(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = random_cluster(rng)
        assert np.abs(amf_levels(c) - amf_levels_bisect(c)).max() < 1e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_levels_feasible_by_lp(self, seed):
        rng = np.random.default_rng(200 + seed)
        c = random_cluster(rng)
        lv = amf_levels(c)
        assert reference_feasible(c, lv - 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_allocation_is_maxmin_and_pareto(self, seed):
        rng = np.random.default_rng(300 + seed)
        c = random_cluster(rng)
        a = solve_amf(c)
        assert properties.is_max_min_fair(a)
        assert properties.is_pareto_efficient(a)


class TestDiagnostics:
    def test_diagnostics_populated(self, two_site_cluster):
        d = AmfDiagnostics()
        amf_levels(two_site_cluster, diagnostics=d)
        assert d.rounds >= 1
        assert d.feasibility_solves >= d.rounds

    def test_probe_counters_folded_when_fill_raises(self, two_site_cluster, monkeypatch):
        """The finally arm must fold oracle stats even on a mid-fill fault;
        without it an aborted solve silently leaks every probes_* counter."""
        from repro.flownet.parametric import ParametricFeasibility

        real = ParametricFeasibility.probe
        calls = {"n": 0}

        def exploding(self, targets, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("mid-fill fault")
            return real(self, targets, **kwargs)

        monkeypatch.setattr(ParametricFeasibility, "probe", exploding)
        d = AmfDiagnostics()
        with pytest.raises(RuntimeError, match="mid-fill fault"):
            amf_levels(two_site_cluster, diagnostics=d)
        folded = d.probes_early_accept + d.probes_warm + d.probes_cold
        assert folded >= 1

    def test_solve_amf_policy_label(self, two_site_cluster):
        assert solve_amf(two_site_cluster).policy == "amf"
        floors = np.zeros(3)
        assert solve_amf(two_site_cluster, floors=floors).policy == "amf+floors"


class TestFinalizeMatrix:
    def test_row_rescale_matches_the_per_job_feq_loop(self, rng):
        """The vectorised rescale is the per-row ``feq`` loop, bit for bit:
        rows a hair off their level (inside and outside tolerance), zero
        rows and exact rows."""
        from repro._util import feq
        from repro.core.allocation import scrub_matrix
        from repro.core.amf import _finalize_matrix

        c = random_cluster(rng, n_jobs=40, n_sites=5)
        levels = amf_levels(c)
        base = solve_amf(c).matrix
        noise = rng.choice([0.0, 1e-13, 5e-10, 3e-9, 1e-6, -1e-6], size=c.n_jobs)
        noisy = base * (1.0 + noise)[:, None]
        noisy[:3] = 0.0
        expected = noisy.copy()
        sums = expected.sum(axis=1)
        for i in range(c.n_jobs):
            if sums[i] > 0.0 and not feq(sums[i], levels[i]):
                expected[i] *= levels[i] / sums[i]
        expected = scrub_matrix(c, expected)
        assert np.array_equal(_finalize_matrix(c, levels, noisy.copy()), expected)


class TestColdRealization:
    """``_realize``: the cold-oracle split ``solve_amf`` falls back to."""

    def test_fallback_realizes_the_warm_aggregates(self, rng, monkeypatch):
        from repro.core import amf

        clusters = [random_cluster(rng, cap_prob=p) for p in (0.0, 0.6) for _ in range(10)]
        warm = [solve_amf(c) for c in clusters]
        monkeypatch.setattr(amf._FeasibilityAdapter, "realize", lambda self, levels: None)
        calls, real = [], amf._realize
        monkeypatch.setattr(amf, "_realize", lambda c, levels: calls.append(c) or real(c, levels))
        for c, w in zip(clusters, warm):
            cold = solve_amf(c)
            assert cold.policy == "amf"
            np.testing.assert_allclose(cold.aggregates, w.aggregates, rtol=0, atol=1e-9)
        assert calls == clusters  # every solve took the fallback

    def test_jobless_cluster(self):
        c = Cluster.from_matrices([1.0, 2.0], np.zeros((0, 2)))
        alloc = solve_amf(c)
        assert alloc.matrix.shape == (0, 2)
        assert alloc.policy == "amf"


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    caps = [draw(st.floats(0.2, 4.0)) for _ in range(m)]
    rows = []
    demands = []
    for _ in range(n):
        support = [draw(st.booleans()) for _ in range(m)]
        if not any(support):
            support[draw(st.integers(0, m - 1))] = True
        rows.append([draw(st.floats(0.1, 3.0)) if s else 0.0 for s in support])
        demands.append(
            [draw(st.one_of(st.floats(0.05, 2.0), st.just(float("inf")))) if s else float("inf") for s in support]
        )
    return caps, rows, demands


class TestHypothesisInvariants:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, inst):
        caps, rows, demands = inst
        c = Cluster.from_matrices(caps, rows, demands)
        lv = amf_levels(c)
        a = solve_amf(c)
        # aggregates realize the levels
        assert np.allclose(a.aggregates, lv, atol=1e-6)
        # never exceed aggregate demand
        assert (lv <= c.aggregate_demand + 1e-8).all()
        # total never exceeds capacity
        assert lv.sum() <= c.total_capacity + 1e-6
        # levels are non-negative
        assert (lv >= -1e-12).all()

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_exact_maxmin_and_pareto(self, inst):
        """The flow-based decision procedures confirm max-min fairness exactly."""
        caps, rows, demands = inst
        c = Cluster.from_matrices(caps, rows, demands)
        a = solve_amf(c)
        assert properties.is_max_min_fair(a)
        assert properties.is_pareto_efficient(a)
