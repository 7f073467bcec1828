"""Tests for the sweep runner."""

import numpy as np
import pytest

from repro.analysis.sweep import finite_mean, sweep1d
from tests.analysis.sweeps import metric_at


class TestFiniteMean:
    def test_drops_non_finite_samples(self):
        assert finite_mean([1.0, np.inf, 3.0, np.nan]) == pytest.approx(2.0)

    def test_nothing_finite_gives_nan(self):
        assert np.isnan(finite_mean([np.inf, -np.inf]))


class TestSweep1d:
    def test_shapes(self):
        sw = sweep1d("x", [1, 2, 3], lambda x, rng: {"y": float(x) * 2}, seeds=[0, 1])
        assert sw.x_values == [1, 2, 3]
        assert sw.mean["y"] == [2.0, 4.0, 6.0]
        assert sw.std["y"] == [0.0, 0.0, 0.0]

    def test_metric_at(self):
        sw = sweep1d("x", [1, 2], lambda x, rng: {"y": float(x)}, seeds=[0])
        assert metric_at(sw, "y", 2) == 2.0

    def test_series_selection(self):
        sw = sweep1d("x", [1], lambda x, rng: {"a": 1.0, "b": 2.0}, seeds=[0])
        assert set(sw.series(["a"])) == {"a"}
        assert set(sw.series()) == {"a", "b"}

    def test_nonfinite_samples_dropped(self):
        calls = {"k": 0}

        def fn(x, rng):
            calls["k"] += 1
            return {"y": np.inf if calls["k"] % 2 == 0 else 1.0}

        sw = sweep1d("x", [0], fn, seeds=[0, 1, 2, 3])
        assert sw.mean["y"][0] == pytest.approx(1.0)

    def test_all_nonfinite_gives_nan(self):
        sw = sweep1d("x", [0], lambda x, rng: {"y": np.inf}, seeds=[0, 1])
        assert np.isnan(sw.mean["y"][0])
