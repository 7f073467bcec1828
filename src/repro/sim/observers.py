"""Simulation observers: time-weighted metrics over the run.

Static balance metrics (F1/F2) score one allocation snapshot; a dynamic
system is fair only if it stays balanced *while jobs come and go*.  An
observer receives every (interval, allocation) pair the simulator realizes
and integrates metrics over time:

* :class:`BalanceObserver` — time-averaged Jain index / CoV over the
  comparable levels of each interval's allocation (extension experiment
  X1, DESIGN.md §6).
* :class:`UtilizationObserver` — per-site utilization timelines.
* :class:`AvailabilityObserver` — effective-capacity availability, work
  lost / re-executed, and solver-fallback activations under site churn
  (extension experiment X8, docs/robustness.md).

Observers plug into :class:`~repro.sim.engine.FluidSimulator` via the
``observer`` argument; any callable with the same ``observe`` signature
works.  The fault-tolerance hooks (``observe_capacity``, ``record_fault``,
``record_work``) are optional: the engine only calls the ones an observer
actually defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.metrics.fairness import coefficient_of_variation, jain_index
from repro.model.cluster import Cluster
from repro.sim.trace import CapacityChange, FaultEvent, SiteFailure, SiteRecovery


class Observer:
    """Interface: ``observe(t, dt, snapshot, alloc)`` is called once per
    simulated interval, before time advances.

    Subclasses define ``observe``; the fault-tolerance hooks below
    default to no-ops so fault-oblivious observers stay one-method classes.
    """

    def observe_capacity(self, t: float, dt: float, effective: float, nominal: float) -> None:
        """Called every interval with total effective vs nominal capacity."""

    def record_fault(self, t: float, event: FaultEvent) -> None:
        """Called when the engine applies a fault event."""

    def record_work(self, t: float, kind: str, job: str, site: str, amount: float) -> None:
        """Called when a failure displaces work; ``kind`` is ``requeued`` /
        ``migrated`` / ``lost``."""


@dataclass(slots=True)
class BalanceObserver(Observer):
    """Integrates allocation-balance metrics over simulated time.

    The instantaneous metric is computed over the *weighted levels* of the
    jobs active in the interval; intervals with fewer than 2 active jobs
    are skipped (fairness is vacuous there).
    """

    time_observed: float = 0.0
    jain_integral: float = 0.0
    cov_integral: float = 0.0
    min_samples: int = 2

    def observe(self, t: float, dt: float, snapshot: Cluster, alloc: Allocation) -> None:
        if dt <= 0.0 or snapshot.n_jobs < self.min_samples:
            return
        levels = alloc.normalized_aggregates()
        self.time_observed += dt
        self.jain_integral += jain_index(levels) * dt
        self.cov_integral += coefficient_of_variation(levels) * dt

    @property
    def time_avg_jain(self) -> float:
        return self.jain_integral / self.time_observed if self.time_observed > 0 else np.nan

    @property
    def time_avg_cov(self) -> float:
        return self.cov_integral / self.time_observed if self.time_observed > 0 else np.nan


@dataclass(slots=True)
class UtilizationObserver(Observer):
    """Per-site utilization integrals (time-averaged by :meth:`averages`)."""

    site_names: list[str] = field(default_factory=list)
    usage_integrals: dict[str, float] = field(default_factory=dict)
    capacity: dict[str, float] = field(default_factory=dict)
    time_observed: float = 0.0

    def observe(self, t: float, dt: float, snapshot: Cluster, alloc: Allocation) -> None:
        if dt <= 0.0:
            return
        self.time_observed += dt
        usage = alloc.site_usage
        for j, site in enumerate(snapshot.sites):
            if site.name not in self.usage_integrals:
                self.site_names.append(site.name)
                self.usage_integrals[site.name] = 0.0
                self.capacity[site.name] = site.capacity
            self.usage_integrals[site.name] += float(usage[j]) * dt

    def averages(self) -> dict[str, float]:
        """Time-averaged utilization per site (fraction of capacity)."""
        if self.time_observed <= 0.0:
            return {}
        return {
            name: self.usage_integrals[name] / (self.capacity[name] * self.time_observed)
            for name in self.site_names
        }


@dataclass(slots=True)
class ChurnObserver(Observer):
    """Measures allocation *churn*: how much the assignment moves per event.

    Real schedulers pay for reallocation (preemptions, container resizes),
    so a policy that reshuffles `a_ij` wildly at every event is costlier to
    operate than its fluid metrics suggest.  Churn at an event is the L1
    distance between a job's new and previous site vector, summed over the
    jobs present at both events, normalized by total capacity
    ("fraction of the cluster reassigned").

    Extension experiment X5 compares policies on mean churn per event.
    """

    total_churn: float = 0.0
    events: int = 0
    _previous: dict[str, dict[str, float]] = field(default_factory=dict)

    def observe(self, t: float, dt: float, snapshot: Cluster, alloc: Allocation) -> None:
        current: dict[str, dict[str, float]] = {}
        for i, job in enumerate(snapshot.jobs):
            current[job.name] = {
                snapshot.sites[j].name: float(alloc.matrix[i, j])
                for j in np.flatnonzero(alloc.matrix[i] > 0.0)
            }
        carried = set(self._previous) & set(current)
        if carried:
            moved = 0.0
            for name in carried:
                old, new = self._previous[name], current[name]
                for site in set(old) | set(new):
                    moved += abs(new.get(site, 0.0) - old.get(site, 0.0))
            self.total_churn += moved / snapshot.total_capacity
            self.events += 1
        self._previous = current

    @property
    def mean_churn(self) -> float:
        """Mean fraction of cluster capacity reassigned per event."""
        return self.total_churn / self.events if self.events else np.nan


@dataclass(slots=True)
class AvailabilityObserver(Observer):
    """Fault-tolerance bookkeeping under site churn (experiment X8).

    Integrates the *effective* (post-failure) capacity against the nominal
    one, and accumulates the work displaced by failures as reported by the
    engine.  When constructed with a
    :class:`~repro.core.policies.ResilientPolicy`, it also surfaces that
    policy's fallback-activation count, so one object summarizes the whole
    degraded-mode story of a run.
    """

    policy: object | None = None  # optional ResilientPolicy (for fallback counts)
    time_observed: float = 0.0
    effective_capacity_integral: float = 0.0
    nominal_capacity_integral: float = 0.0
    work_lost: float = 0.0
    work_requeued: float = 0.0
    work_migrated: float = 0.0
    n_failures: int = 0
    n_recoveries: int = 0
    n_capacity_changes: int = 0

    def observe(self, t: float, dt: float, snapshot: Cluster, alloc: Allocation) -> None:
        """Capacity is tracked via :meth:`observe_capacity`; nothing to do here."""

    def observe_capacity(self, t: float, dt: float, effective: float, nominal: float) -> None:
        if dt <= 0.0:
            return
        self.time_observed += dt
        self.effective_capacity_integral += effective * dt
        self.nominal_capacity_integral += nominal * dt

    def record_fault(self, t: float, event: FaultEvent) -> None:
        if isinstance(event, SiteFailure):
            self.n_failures += 1
        elif isinstance(event, SiteRecovery):
            self.n_recoveries += 1
        elif isinstance(event, CapacityChange):
            self.n_capacity_changes += 1

    def record_work(self, t: float, kind: str, job: str, site: str, amount: float) -> None:
        if kind == "lost":
            self.work_lost += amount
        elif kind == "requeued":
            self.work_requeued += amount
        elif kind == "migrated":
            self.work_migrated += amount

    @property
    def availability(self) -> float:
        """Time-averaged effective / nominal capacity (1.0 = no downtime)."""
        if self.nominal_capacity_integral <= 0.0:
            return np.nan
        return self.effective_capacity_integral / self.nominal_capacity_integral

    @property
    def fallback_activations(self) -> int:
        """Solver-fallback activations of the linked :class:`ResilientPolicy`."""
        stats = getattr(self.policy, "stats", None)
        return int(getattr(stats, "fallback_activations", 0))


@dataclass(slots=True)
class CompositeObserver(Observer):
    """Fan one observation (and every fault hook) out to several observers."""

    observers: list[Observer] = field(default_factory=list)

    def observe(self, t: float, dt: float, snapshot: Cluster, alloc: Allocation) -> None:
        for obs in self.observers:
            obs.observe(t, dt, snapshot, alloc)

    def observe_capacity(self, t: float, dt: float, effective: float, nominal: float) -> None:
        for obs in self.observers:
            fn = getattr(obs, "observe_capacity", None)
            if fn is not None:
                fn(t, dt, effective, nominal)

    def record_fault(self, t: float, event: FaultEvent) -> None:
        for obs in self.observers:
            fn = getattr(obs, "record_fault", None)
            if fn is not None:
                fn(t, event)

    def record_work(self, t: float, kind: str, job: str, site: str, amount: float) -> None:
        for obs in self.observers:
            fn = getattr(obs, "record_work", None)
            if fn is not None:
                fn(t, kind, job, site, amount)
