"""Simulation outputs: per-job records and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class JobRecord:
    """Lifecycle record of one simulated job."""

    name: str
    arrival: float
    completion: float  # inf when the job never finished (stall)
    total_work: float
    isolated_time: float  # completion time if it had every site to itself
    work_lost: float = 0.0  # work abandoned after exhausting failure retries

    @property
    def jct(self) -> float:
        """Job completion time (response time)."""
        return self.completion - self.arrival

    @property
    def slowdown(self) -> float:
        """JCT normalized by the isolated (contention-free) completion time."""
        if self.isolated_time <= 0.0:
            return np.inf
        return self.jct / self.isolated_time

    @property
    def finished(self) -> bool:
        return np.isfinite(self.completion)

    @property
    def degraded(self) -> bool:
        """True when the job finished only by abandoning part of its work."""
        return self.work_lost > 0.0


@dataclass(slots=True)
class SimulationResult:
    """All records from one run plus derived statistics.

    ``utilization_integral`` is the time integral of total allocated rate;
    dividing by (capacity * horizon) gives average utilization.

    The ``work_*`` fields implement the fault-tolerance work ledger: every
    unit of original work ends up exactly once in ``work_completed``
    (credited execution), ``work_lost`` (abandoned after exhausting
    retries) or ``work_remaining`` (unfinished at a stall), so
    ``work_completed + work_lost + work_remaining == total_work`` for every
    failure/recovery trace.  ``work_reexecuted`` counts execution that a
    failure invalidated (it is wasted machine time, not original work, so
    it lives outside the conservation identity:
    ``utilization_integral == work_completed + work_reexecuted``).
    """

    policy: str
    records: list[JobRecord] = field(default_factory=list)
    horizon: float = 0.0
    total_capacity: float = 0.0
    utilization_integral: float = 0.0
    n_events: int = 0
    n_policy_solves: int = 0
    stalled: bool = False
    total_work: float = 0.0
    work_completed: float = 0.0
    work_lost: float = 0.0
    work_reexecuted: float = 0.0
    work_remaining: float = 0.0
    n_failures: int = 0
    n_recoveries: int = 0
    n_capacity_changes: int = 0
    n_requeues: int = 0
    n_migrations: int = 0

    # ------------------------------------------------------------------
    def jcts(self, finished_only: bool = True) -> np.ndarray:
        vals = [r.jct for r in self.records if r.finished or not finished_only]
        return np.asarray(vals, dtype=float)

    def slowdowns(self, finished_only: bool = True) -> np.ndarray:
        vals = [r.slowdown for r in self.records if r.finished or not finished_only]
        return np.asarray(vals, dtype=float)

    @property
    def n_finished(self) -> int:
        return sum(1 for r in self.records if r.finished)

    @property
    def mean_jct(self) -> float:
        j = self.jcts()
        return float(j.mean()) if j.size else np.nan

    @property
    def median_jct(self) -> float:
        j = self.jcts()
        return float(np.median(j)) if j.size else np.nan

    def jct_percentile(self, q: float) -> float:
        j = self.jcts()
        return float(np.percentile(j, q)) if j.size else np.nan

    @property
    def makespan(self) -> float:
        done = [r.completion for r in self.records if r.finished]
        return float(max(done)) if done else np.nan

    @property
    def mean_slowdown(self) -> float:
        s = self.slowdowns()
        return float(s.mean()) if s.size else np.nan

    @property
    def avg_utilization(self) -> float:
        if self.horizon <= 0.0 or self.total_capacity <= 0.0:
            return 0.0
        return self.utilization_integral / (self.total_capacity * self.horizon)

    @property
    def n_degraded(self) -> int:
        """Jobs that finished only by abandoning part of their work."""
        return sum(1 for r in self.records if r.degraded)

    def summary(self) -> dict[str, float]:
        """Flat dict of headline statistics (what the experiments print)."""
        return {
            "n_jobs": float(len(self.records)),
            "n_finished": float(self.n_finished),
            "mean_jct": self.mean_jct,
            "median_jct": self.median_jct,
            "p95_jct": self.jct_percentile(95),
            "makespan": self.makespan,
            "mean_slowdown": self.mean_slowdown,
            "avg_utilization": self.avg_utilization,
            "events": float(self.n_events),
            "work_lost": self.work_lost,
            "work_reexecuted": self.work_reexecuted,
        }

    def __str__(self) -> str:
        s = self.summary()
        return (
            f"{self.policy}: {int(s['n_finished'])}/{int(s['n_jobs'])} jobs, "
            f"mean JCT {s['mean_jct']:.3f}, p95 {s['p95_jct']:.3f}, "
            f"makespan {s['makespan']:.3f}, slowdown {s['mean_slowdown']:.2f}, "
            f"util {s['avg_utilization']:.3f}"
        )
