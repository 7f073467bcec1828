"""Tests for the process-pool sweep fan-out (repro.analysis.parallel).

The contract: parallelism is an implementation detail — results must be
byte-identical to the serial path, in the same order, with the same
deterministic per-task seeding.
"""

import os

import numpy as np
import pytest

from repro.analysis import parallel
from repro.analysis.parallel import default_workers, grid_map, parallel_map
from repro.analysis.sweep import sweep1d


def _square(x):
    return x * x


def test_serial_matches_parallel():
    tasks = list(range(20))
    serial = parallel_map(_square, tasks, workers=1)
    assert serial == [x * x for x in tasks]
    if parallel._fork_available():
        fanned = parallel_map(_square, tasks, workers=3)
        assert fanned == serial


def test_parallel_map_preserves_order():
    tasks = list(range(37))
    out = parallel_map(lambda t: -t, tasks, workers=2)
    assert out == [-t for t in tasks]


def test_parallel_map_empty():
    assert parallel_map(_square, [], workers=4) == []


def test_grid_map_shape_and_determinism():
    points = [0.5, 1.0, 2.0]
    seeds = [7, 8]

    def fn(x, rng):
        return x + rng.uniform()

    serial = grid_map(fn, points, seeds, workers=1)
    assert len(serial) == len(points)
    assert all(len(row) == len(seeds) for row in serial)
    # per-task seeding: same (point, seed) -> same draw, any worker count
    again = grid_map(fn, points, seeds, workers=1)
    assert serial == again
    if parallel._fork_available():
        fanned = grid_map(fn, points, seeds, workers=2)
        assert fanned == serial


def test_grid_map_seeds_are_independent():
    draws = grid_map(lambda x, rng: rng.uniform(), [0.0], [1, 2, 3], workers=1)[0]
    assert len(set(draws)) == 3


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert default_workers() == 5
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert default_workers() == 1


def test_worker_guard_prevents_nesting(monkeypatch):
    monkeypatch.setattr(parallel, "_IN_WORKER", True)
    # inside a worker the pool must not fork again; serial fallback instead
    assert parallel_map(_square, [1, 2, 3], workers=8) == [1, 4, 9]


def test_sweep1d_parallel_matches_serial():
    def fn(x, rng):
        return {"val": float(x) + rng.uniform()}

    serial = sweep1d("n", [5, 10], fn, seeds=[0, 1], workers=1)
    assert serial.x_values == [5, 10]
    if parallel._fork_available():
        fanned = sweep1d("n", [5, 10], fn, seeds=[0, 1], workers=2)
        assert fanned.series()["val"] == serial.series()["val"]


def test_closures_cross_the_fork_boundary():
    if not parallel._fork_available():
        pytest.skip("fork start method unavailable")
    captured = np.arange(4.0)  # inherited via fork memory, never pickled
    out = parallel_map(lambda i: float(captured[i]), [0, 1, 2, 3], workers=2)
    assert out == [0.0, 1.0, 2.0, 3.0]


def test_repro_workers_env_used_when_unset(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    assert os.environ["REPRO_WORKERS"] == "1"
    assert parallel_map(_square, [2], workers=None) == [4]


class TestForkFallbackTelemetry:
    """parallel_map degrading to serial must be visible: one warning per
    process plus a repro_parallel_fallback_total bump per degradation."""

    def test_warns_once_and_counts_every_fallback(self, monkeypatch):
        import warnings

        from repro.analysis import parallel as pmod
        from repro.obs.instruments import PARALLEL_FALLBACK
        from repro.obs.registry import REGISTRY

        monkeypatch.setattr(pmod, "_fork_available", lambda: False)
        monkeypatch.setattr(pmod, "_WARNED_NO_FORK", False)
        # _resolve clamps to os.cpu_count(); pin it so a 1-CPU CI machine
        # still exercises the wanted-parallelism-got-serial path
        monkeypatch.setattr(pmod, "_resolve", lambda w: 4)
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert parallel_map(_square, [1, 2, 3], workers=4) == [1, 4, 9]
                assert parallel_map(_square, [4, 5], workers=4) == [16, 25]
            fallback_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert len(fallback_warnings) == 1
            assert "fork" in str(fallback_warnings[0].message)
            assert PARALLEL_FALLBACK.value == 2.0
        finally:
            REGISTRY.reset()
            REGISTRY.disable()

    def test_serial_request_never_warns(self, monkeypatch):
        import warnings

        from repro.analysis import parallel as pmod

        monkeypatch.setattr(pmod, "_fork_available", lambda: False)
        monkeypatch.setattr(pmod, "_WARNED_NO_FORK", False)
        monkeypatch.setattr(pmod, "_resolve", lambda w: 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parallel_map(_square, [1, 2], workers=1) == [1, 4]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
