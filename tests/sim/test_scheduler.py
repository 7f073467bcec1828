"""Tests for the TimedPolicy instrumentation wrapper."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.persite import solve_psmf
from repro.model.job import Job
from repro.model.site import Site
from repro.sim.engine import simulate
from repro.sim.scheduler import SolveStats, TimedPolicy


class TestSolveStats:
    def test_empty_stats(self):
        s = SolveStats()
        assert np.isnan(s.mean_ms)
        assert np.isnan(s.mean_active_jobs)
        assert np.isnan(s.percentile_ms(50))

    def test_aggregation(self):
        s = SolveStats()
        s.solves = 2
        s.total_seconds = 0.004
        s.max_seconds = 0.003
        s.total_jobs_seen = 10
        s.samples = [0.001, 0.003]
        assert s.mean_ms == pytest.approx(2.0)
        assert s.max_ms == pytest.approx(3.0)
        assert s.mean_active_jobs == pytest.approx(5.0)
        assert s.percentile_ms(100) == pytest.approx(3.0)


class TestSortedWindow:
    """The percentiles are read off a sorted copy kept beside the window,
    and equal ``np.percentile`` of the window bit for bit."""

    @given(
        window=st.sampled_from([1, 2, 1024, None]),
        n=st.integers(1, 2600),
        ties=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(window=1024, n=2600, ties=0, seed=7)  # a full window, evicting
    @example(window=1024, n=1800, ties=2, seed=11)  # ... over four distinct values
    @example(window=2, n=40, ties=1, seed=3)
    def test_percentiles_equal_numpy(self, window, n, ties, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(-7.0, 1.5, n)
        if ties:  # draw repeats from a small pool: many equal samples
            values = rng.choice(values[: ties * 2], n)
        stats = SolveStats(samples=deque(maxlen=window) if window else [])
        checks = set(np.linspace(0, n - 1, 12).astype(int).tolist())
        for k, value in enumerate(values.tolist()):
            stats.record(value, 1)
            if k in checks:
                assert stats._sorted == sorted(stats.samples)
                for q in (0, 50, 99, 100):
                    assert stats.percentile_ms(q) == 1e3 * float(np.percentile(stats.samples, q))
        assert len(stats.samples) == (n if window is None else min(n, window))

    def test_samples_given_at_construction_are_ranked(self):
        s = SolveStats(samples=deque([0.003, 0.001, 0.002], maxlen=3))
        s.record(0.0005, 1)  # evicts 0.003
        assert s._sorted == [0.0005, 0.001, 0.002]
        assert s.percentile_ms(100) == 2.0

    def test_assigned_samples_are_ranked_afresh(self):
        s = SolveStats(samples=[0.009, 0.005])
        assert s.percentile_ms(0) == 5.0
        s.samples = deque([0.003, 0.001], maxlen=2)
        assert s._sorted == [0.001, 0.003]
        assert (s.percentile_ms(0), s.percentile_ms(100)) == (1.0, 3.0)
        s.record(0.002, 1)  # evicts 0.003
        assert s._sorted == sorted(s.samples) == [0.001, 0.002]

    def test_out_of_range_percentile_is_refused(self):
        with pytest.raises(ValueError, match="percentile"):
            SolveStats(samples=[0.001]).percentile_ms(101)


class TestTimedPolicy:
    def test_by_name(self):
        timed = TimedPolicy("psmf")
        assert timed.__name__ == "psmf"

    def test_by_callable(self):
        timed = TimedPolicy(solve_psmf)
        assert timed.__name__ == "solve_psmf"

    def test_counts_solves_in_simulation(self):
        timed = TimedPolicy("amf")
        jobs = [Job("x", {"A": 1.0}), Job("y", {"A": 2.0})]
        res = simulate([Site("A", 1.0)], jobs, timed)
        assert timed.stats.solves == res.n_policy_solves
        assert timed.stats.total_seconds > 0.0
        assert timed.stats.mean_active_jobs >= 1.0

    def test_allocation_passthrough(self):
        from repro.model.cluster import Cluster

        c = Cluster.from_matrices([2.0], [[1.0], [1.0]])
        timed = TimedPolicy("amf")
        alloc = timed(c)
        assert np.allclose(alloc.aggregates, [1.0, 1.0])
        assert timed.stats.solves == 1

    def test_samples_optional(self):
        from repro.model.cluster import Cluster

        c = Cluster.from_matrices([2.0], [[1.0]])
        timed = TimedPolicy("psmf", keep_samples=False)
        timed(c)
        assert timed.stats.samples == []
        assert timed.stats.solves == 1
