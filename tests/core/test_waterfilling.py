"""Unit + property tests for single-resource water-filling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waterfilling import fill_level, solve_capped_level, water_fill


class TestWaterFill:
    def test_equal_uncapped(self):
        a = water_fill(9.0, np.array([np.inf, np.inf, np.inf]))
        assert np.allclose(a, 3.0)

    def test_small_demand_saturates(self):
        a = water_fill(9.0, np.array([1.0, np.inf, np.inf]))
        assert np.allclose(a, [1.0, 4.0, 4.0])

    def test_all_saturate_below_capacity(self):
        a = water_fill(100.0, np.array([1.0, 2.0]))
        assert np.allclose(a, [1.0, 2.0])

    def test_zero_capacity(self):
        a = water_fill(0.0, np.array([1.0, 2.0]))
        assert np.allclose(a, 0.0)

    def test_zero_demand_agent(self):
        a = water_fill(4.0, np.array([0.0, np.inf]))
        assert np.allclose(a, [0.0, 4.0])

    def test_empty(self):
        assert water_fill(5.0, np.array([])).size == 0

    def test_weighted_split(self):
        a = water_fill(9.0, np.array([np.inf, np.inf]), weights=np.array([1.0, 2.0]))
        assert np.allclose(a, [3.0, 6.0])

    def test_weighted_with_caps(self):
        # weight-2 agent capped at 1: leftover goes to the other
        a = water_fill(4.0, np.array([np.inf, 1.0]), weights=np.array([1.0, 2.0]))
        assert np.allclose(a, [3.0, 1.0])

    def test_classic_water_level_example(self):
        # demands 1, 2, 4, 6 over capacity 10 -> levels 1, 2, 3.5, 3.5
        a = water_fill(10.0, np.array([1.0, 2.0, 4.0, 6.0]))
        assert np.allclose(a, [1.0, 2.0, 3.5, 3.5])

    def test_thousand_weighted_agents_fill_the_capacity(self):
        rng = np.random.default_rng(1)
        caps = rng.uniform(0.1, 5.0, 1000)
        weights = rng.uniform(0.5, 2.0, 1000)
        assert water_fill(300.0, caps, weights).sum() == pytest.approx(300.0, rel=1e-6)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            water_fill(-1.0, np.array([1.0]))

    def test_rejects_nan_caps(self):
        with pytest.raises(ValueError):
            water_fill(1.0, np.array([np.nan]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            water_fill(1.0, np.array([1.0]), weights=np.array([-1.0]))


class TestFillLevel:
    def test_level_matches_allocation(self):
        caps = np.array([1.0, 2.0, 4.0, 6.0])
        w = np.ones(4)
        level = fill_level(10.0, caps, w)
        assert level == pytest.approx(3.5)

    def test_oversupplied_level_is_max_breakpoint(self):
        caps = np.array([1.0, 2.0])
        level = fill_level(100.0, caps, np.ones(2))
        assert level == pytest.approx(2.0)


class TestSolveCappedLevel:
    def test_interior_solution(self):
        # sum min(l, [2, 4]) = 3 -> l = 1.5
        assert solve_capped_level(3.0, np.array([2.0, 4.0]), np.ones(2)) == pytest.approx(1.5)

    def test_after_first_breakpoint(self):
        # sum min(l, [1, 10]) = 5 -> 1 + l = 5 -> l = 4
        assert solve_capped_level(5.0, np.array([1.0, 10.0]), np.ones(2)) == pytest.approx(4.0)

    def test_weighted(self):
        # min(2l, 10) + min(l, 10) = 6 -> 3l = 6 -> l = 2
        assert solve_capped_level(6.0, np.array([10.0, 10.0]), np.array([2.0, 1.0])) == pytest.approx(2.0)

    def test_target_zero(self):
        assert solve_capped_level(0.0, np.array([1.0, 2.0]), np.ones(2)) == pytest.approx(0.0)

    def test_target_at_total(self):
        assert solve_capped_level(3.0, np.array([1.0, 2.0]), np.ones(2)) == pytest.approx(2.0)


@st.composite
def waterfill_cases(draw):
    n = draw(st.integers(1, 8))
    caps = [draw(st.one_of(st.floats(0.0, 10.0), st.just(float("inf")))) for _ in range(n)]
    weights = [draw(st.floats(0.1, 5.0)) for _ in range(n)]
    capacity = draw(st.floats(0.0, 30.0))
    return capacity, np.array(caps), np.array(weights)


class TestHypothesisInvariants:
    @given(waterfill_cases())
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, case):
        capacity, caps, weights = case
        a = water_fill(capacity, caps, weights)
        # feasibility
        assert (a >= -1e-12).all()
        assert (a <= caps + 1e-9).all()
        assert a.sum() <= capacity + 1e-6
        # work conservation: either capacity exhausted or everyone saturated
        assert a.sum() == pytest.approx(min(capacity, float(np.where(np.isinf(caps), 1e18, caps).sum())), rel=1e-6, abs=1e-6)
        # max-min: all unsaturated agents share one weighted level
        levels = a / weights
        unsat = a < caps - 1e-9
        if unsat.any():
            lv = levels[unsat]
            assert lv.max() - lv.min() <= 1e-6 * max(1.0, lv.max())
            # saturated agents sit below the common level
            if (~unsat).any():
                assert levels[~unsat].max() <= lv.max() + 1e-6 * max(1.0, lv.max())
