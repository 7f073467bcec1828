"""Event traces: what happened when, for debugging and for the examples.

Two kinds of events live here:

* :class:`SimEvent` — events the simulator *emits* (arrivals, completions,
  and since the fault-tolerance subsystem also failures, re-queues, ...);
* :class:`FaultEvent` and its subclasses — infrastructure events fed
  *into* :class:`~repro.sim.engine.FluidSimulator` via its ``faults``
  argument: a site failing (fully or degraded), recovering, or changing
  nominal capacity.  :mod:`repro.workload.failures` generates seeded
  MTBF/MTTR traces of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro._util import require

EventKind = Literal[
    "arrival",
    "site-done",
    "completion",
    "stall",
    "site-failure",
    "site-recovery",
    "capacity-change",
    "requeue",
    "migrate",
    "work-lost",
]


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One simulator event.

    ``kind``:

    * ``arrival`` — a job entered the system,
    * ``site-done`` — a job exhausted its work at one site (support shrinks),
    * ``completion`` — a job finished all its work,
    * ``stall`` — no allocated edge is making progress and no arrival is
      pending (the simulator stops and marks survivors unfinished),
    * ``site-failure`` / ``site-recovery`` / ``capacity-change`` — a fault
      event was applied (``job`` is empty for these site-level events),
    * ``requeue`` — a job's work at a failed site was parked for retry,
    * ``migrate`` — a job's work at a failed site moved to surviving sites,
    * ``work-lost`` — a job's work was abandoned (retry limit exceeded).
    """

    time: float
    kind: EventKind
    job: str
    site: str | None = None

    def __str__(self) -> str:
        who = self.job if self.job else "-"
        where = f" @ {self.site}" if self.site else ""
        return f"[t={self.time:10.4f}] {self.kind:14s} {who}{where}"


# ----------------------------------------------------------------------
# Fault events (inputs to the simulator)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Base class of scheduled infrastructure events (inputs, not outputs).

    Subclasses are applied by :class:`~repro.sim.engine.FluidSimulator` at
    ``time``; the policy re-solves immediately afterwards.
    """

    time: float
    site: str

    def __post_init__(self) -> None:
        require(self.time >= 0.0, f"fault event time must be non-negative, got {self.time}")
        require(bool(self.site), "fault event must name a site")


@dataclass(frozen=True, slots=True)
class SiteFailure(FaultEvent):
    """Site drops to ``degraded_fraction`` of its nominal capacity.

    ``degraded_fraction = 0`` (default) is a full outage: the site leaves
    the cluster and the remaining work of affected job-site edges is either
    re-queued for retry or migrated to surviving sites (the simulator's
    ``failure_mode``).  A fraction in ``(0, 1)`` is a brownout: the site
    stays up at reduced capacity and no work is displaced.
    """

    degraded_fraction: float = 0.0

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        require(
            0.0 <= self.degraded_fraction < 1.0,
            f"degraded_fraction must be in [0, 1), got {self.degraded_fraction}",
        )


@dataclass(frozen=True, slots=True)
class SiteRecovery(FaultEvent):
    """Site returns to its full nominal capacity; parked work re-queues."""


@dataclass(frozen=True, slots=True)
class CapacityChange(FaultEvent):
    """Site's *nominal* capacity becomes ``capacity`` (must stay positive).

    Models planned resizes (autoscaling, maintenance drain).  Use
    :class:`SiteFailure` for outages — capacity here cannot reach zero.
    """

    capacity: float = 0.0

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        require(self.capacity > 0.0, f"capacity must be positive, got {self.capacity} (use SiteFailure for outages)")


@dataclass(slots=True)
class Trace:
    """Append-only event log with a bounded memory footprint."""

    max_events: int | None = None
    events: list[SimEvent] = field(default_factory=list)
    dropped: int = 0

    def record(self, event: SimEvent) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def render(self, limit: int = 50) -> str:
        lines = [str(e) for e in self.events[:limit]]
        extra = len(self.events) - limit + self.dropped
        if extra > 0:
            lines.append(f"... ({extra} more events)")
        return "\n".join(lines)
