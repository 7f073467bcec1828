"""Scheduler instrumentation: measure what a policy costs at runtime.

The paper's algorithms run inside a cluster scheduler, so their *overhead
per scheduling event* matters as much as their fairness.  The
:class:`TimedPolicy` wrapper turns any policy callable into one that
records per-solve wall time and instance size, feeding experiment X2
(scheduling overhead in dynamic runs).
"""

from __future__ import annotations

import time
from collections.abc import MutableSequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.policies import PolicyFn, get_policy
from repro.model.cluster import Cluster


@dataclass(slots=True)
class SolveStats:
    """Aggregated statistics over all solves of one wrapped policy.

    ``samples`` keeps every solve's wall time by default; a bounded
    ``deque`` keeps the most recent ones only (the service daemon's window),
    and :meth:`percentile_ms` is then over that window.
    """

    solves: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    total_jobs_seen: int = 0
    samples: MutableSequence[float] = field(default_factory=list)

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
        if not self.samples:
            return np.nan
        return 1e3 * float(np.percentile(self.samples, q))

    def record(self, seconds: float, n_jobs: int, *, keep_sample: bool = True) -> None:
        """Fold one solve of ``seconds`` wall time over ``n_jobs`` jobs in."""
        self.solves += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        self.total_jobs_seen += n_jobs
        if keep_sample:
            self.samples.append(seconds)


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
