"""Unit tests for repro._util."""

import numpy as np
import pytest

from repro._util import (
    ABS_TOL,
    as_float_array,
    as_float_matrix,
    feq,
    fle,
    flt,
    nonneg,
    require,
)


class TestComparisons:
    def test_feq_exact(self):
        assert feq(1.0, 1.0)

    def test_feq_within_tolerance(self):
        assert feq(1.0, 1.0 + ABS_TOL / 2)

    def test_feq_beyond_tolerance(self):
        assert not feq(1.0, 1.0 + 1e-6)

    def test_feq_relative_for_large_values(self):
        assert feq(1e12, 1e12 * (1 + 1e-10))
        assert not feq(1e12, 1e12 * (1 + 1e-6))

    def test_feq_scale_widens(self):
        assert not feq(1.0, 1.0 + 5e-9)
        assert feq(1.0, 1.0 + 5e-9, scale=10.0)

    def test_fle_strictly_less(self):
        assert fle(0.5, 1.0)

    def test_fle_equal_within_noise(self):
        assert fle(1.0 + ABS_TOL / 2, 1.0)

    def test_fle_greater(self):
        assert not fle(1.1, 1.0)

    def test_flt_is_strict(self):
        assert flt(0.5, 1.0)
        assert not flt(1.0, 1.0 + ABS_TOL / 2)

    def test_zero_vs_zero(self):
        assert feq(0.0, 0.0)
        assert fle(0.0, 0.0)
        assert not flt(0.0, 0.0)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestArrayHelpers:
    def test_as_float_array_from_list(self):
        arr = as_float_array([1, 2, 3], "x")
        assert arr.dtype == float
        assert arr.tolist() == [1.0, 2.0, 3.0]

    def test_as_float_array_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_float_array([1.0, np.nan], "x")

    def test_as_float_array_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_float_array(np.ones((2, 2)), "x")

    def test_as_float_matrix_shape(self):
        m = as_float_matrix([[1, 2], [3, 4]], "m")
        assert m.shape == (2, 2)

    def test_as_float_matrix_rejects_1d(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            as_float_matrix([1, 2], "m")

    def test_nonneg_clamps_noise(self):
        arr = nonneg(np.array([0.0, -ABS_TOL / 2, 1.0]), "x")
        assert (arr >= 0).all()

    def test_nonneg_rejects_real_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            nonneg(np.array([-0.1]), "x")
