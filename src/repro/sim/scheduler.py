"""Scheduler instrumentation: measure what a policy costs at runtime.

The paper's algorithms run inside a cluster scheduler, so their *overhead
per scheduling event* matters as much as their fairness.  The
:class:`TimedPolicy` wrapper turns any policy callable into one that
records per-solve wall time and instance size, feeding experiment X2
(scheduling overhead in dynamic runs).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from collections.abc import MutableSequence
from dataclasses import dataclass, field

import numpy as np

from repro._util import require
from repro.core.allocation import Allocation
from repro.core.policies import PolicyFn, get_policy
from repro.model.cluster import Cluster


@dataclass(slots=True)
class SolveStats:
    """Aggregated statistics over all solves of one wrapped policy.

    ``samples`` keeps every solve's wall time by default; a bounded
    ``deque`` keeps the most recent ones only (the service daemon's window),
    and :meth:`percentile_ms` is then over that window.  A sorted copy of
    the samples is kept beside them, so a percentile is read in O(1):
    assigning ``samples`` ranks them afresh, and :meth:`record` keeps the
    copy in step (one ``insort``, and one ``bisect`` removal of the sample
    a full window evicts).  Add samples through :meth:`record`.
    """

    solves: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    total_jobs_seen: int = 0
    samples: MutableSequence[float] = field(default_factory=list)
    _sorted: list[float] = field(init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "samples":
            object.__setattr__(self, "_sorted", sorted(value))

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_seconds / self.solves if self.solves else np.nan

    @property
    def max_ms(self) -> float:
        return 1e3 * self.max_seconds

    @property
    def mean_active_jobs(self) -> float:
        return self.total_jobs_seen / self.solves if self.solves else np.nan

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile of the samples, in ms: ``np.percentile``'s
        default ``linear`` rule on the sorted copy, bit for bit (the same
        virtual index ``(n - 1) * (q / 100)`` and the same two-sided lerp)."""
        require(0.0 <= q <= 100.0, f"percentile must be in [0, 100], got {q}")
        ranked = self._sorted
        if not ranked:
            return np.nan
        at = (len(ranked) - 1) * (q / 100)
        if at >= len(ranked) - 1:
            return 1e3 * ranked[-1]
        lo = math.floor(at)
        a, b = ranked[lo], ranked[lo + 1]
        g = at - lo
        return 1e3 * (b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)

    def record(self, seconds: float, n_jobs: int, *, keep_sample: bool = True) -> None:
        """Fold one solve of ``seconds`` wall time over ``n_jobs`` jobs in."""
        self.solves += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        self.total_jobs_seen += n_jobs
        if keep_sample:
            if len(self.samples) == getattr(self.samples, "maxlen", None):
                # the append below evicts the window's oldest sample
                del self._sorted[bisect_left(self._sorted, self.samples[0])]
            self.samples.append(seconds)
            insort(self._sorted, seconds)


class TimedPolicy:
    """Wrap a policy so every solve is timed.

    Keeps the plain ``Cluster -> Allocation`` signature, so it drops into
    :class:`~repro.sim.engine.FluidSimulator` unchanged::

        timed = TimedPolicy("amf")
        simulate(sites, jobs, timed)
        print(timed.stats.mean_ms)
    """

    def __init__(self, policy: str | PolicyFn, *, keep_samples: bool = True):
        if isinstance(policy, str):
            self._fn = get_policy(policy)
            self.__name__ = policy
        else:
            self._fn = policy
            self.__name__ = getattr(policy, "__name__", "custom")
        self.stats = SolveStats()
        self._keep_samples = keep_samples

    def __call__(self, cluster: Cluster) -> Allocation:
        t0 = time.perf_counter()
        alloc = self._fn(cluster)
        dt = time.perf_counter() - t0
        self.stats.record(dt, cluster.n_jobs, keep_sample=self._keep_samples)
        return alloc
