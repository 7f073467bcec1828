"""Long-lived cluster state: the delta store behind the allocation daemon.

The offline solvers consume immutable :class:`~repro.model.cluster.Cluster`
snapshots; an online service instead sees a *stream of deltas* — jobs
arrive, jobs depart, sites grow or shrink.  :class:`ClusterState` is the
mutable store that absorbs those deltas and hands out immutable snapshots
on demand, with a monotone ``version`` so downstream layers (batching
queue, allocation cache) can tell "nothing changed" from "re-solve needed".

Events are plain frozen dataclasses so they can be generated by workload
models, carried over HTTP, or replayed from a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro._util import require
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.resources import (
    ResourceError,
    ResourceMismatchError,
    UnknownResourceError,
    normalize_resources,
)
from repro.model.site import Site

__all__ = [
    "ClusterEvent",
    "JobArrived",
    "JobDeparted",
    "CapacityChanged",
    "StateError",
    "ClusterState",
    "events_from_schedule",
]


class StateError(ValueError):
    """A delta that cannot be applied to the current state."""


@dataclass(frozen=True, slots=True)
class JobArrived:
    """A new job enters the system (name must be free)."""

    job: Job
    time: float = 0.0


@dataclass(frozen=True, slots=True)
class JobDeparted:
    """An existing job leaves (completed or cancelled)."""

    name: str
    time: float = 0.0


@dataclass(frozen=True, slots=True)
class CapacityChanged:
    """A site's capacity is rescaled (must stay positive).

    ``capacity`` is a scalar or a resource-name → amount map; a vector
    update must keep the site's existing resource-name set (resources
    cannot appear or vanish mid-flight — that would silently re-shape
    every job's dominant share).
    """

    site: str
    capacity: float | Mapping[str, float]
    time: float = 0.0


ClusterEvent = Union[JobArrived, JobDeparted, CapacityChanged]


class ClusterState:
    """Mutable jobs/sites store with snapshot-on-demand semantics.

    ``version`` increments on every successfully applied event; a rejected
    event (unknown job, duplicate name, ...) raises :class:`StateError` and
    leaves the state untouched.  :meth:`snapshot` caches the built
    :class:`Cluster` until the next mutation, so repeated reads between
    deltas are free — and share a fingerprint, which is what makes the
    service's allocation cache effective.
    """

    def __init__(self, sites: Iterable[Site], jobs: Iterable[Job] = ()):
        self._sites: dict[str, Site] = {}
        for site in sites:
            require(site.name not in self._sites, f"duplicate site {site.name!r}")
            self._sites[site.name] = site
        require(len(self._sites) > 0, "service state needs at least one site")
        self._jobs: dict[str, Job] = {}
        self.version = 0
        self._snapshot: Cluster | None = None
        for job in jobs:
            self.add_job(job)
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return len(self._sites)

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    @property
    def job_names(self) -> list[str]:
        return list(self._jobs)

    @property
    def site_names(self) -> list[str]:
        return list(self._sites)

    def has_job(self, name: str) -> bool:
        return name in self._jobs

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self.version += 1
        self._snapshot = None

    def offered_resources(self) -> frozenset[str]:
        """Resource names any site currently offers (``{"slots"}`` when scalar)."""
        names: set[str] = set()
        for site in self._sites.values():
            names.update(site.resource_vector)
        return frozenset(names)

    def add_job(self, job: Job) -> None:
        if job.name in self._jobs:
            raise StateError(f"job {job.name!r} already present")
        unknown = set(job.workload) - set(self._sites)
        if unknown:
            raise StateError(f"job {job.name!r} references unknown sites {sorted(unknown)}")
        missing = set(job.resource_vector) - self.offered_resources()
        if missing:
            raise UnknownResourceError(
                f"job {job.name!r} demands unknown resources {sorted(missing)} "
                f"(sites offer {sorted(self.offered_resources())})"
            )
        self._jobs[job.name] = job
        self._mutated()

    def remove_job(self, name: str) -> Job:
        try:
            job = self._jobs.pop(name)
        except KeyError:
            raise StateError(f"unknown job {name!r}") from None
        self._mutated()
        return job

    def set_capacity(self, site: str, capacity: float | Mapping[str, float]) -> None:
        if site not in self._sites:
            raise StateError(f"unknown site {site!r}")
        old = self._sites[site]
        if isinstance(capacity, Mapping):
            vec = normalize_resources(capacity, f"site {site!r} capacity")
            if set(vec) != set(old.resource_vector):
                raise ResourceMismatchError(
                    f"site {site!r}: capacity update must keep resources "
                    f"{sorted(old.resource_vector)}, got {sorted(vec)}"
                )
            self._sites[site] = Site(old.name, vec, old.tags)
        else:
            # math.isfinite also rejects NaN (which `> 0.0` would too, but
            # only by accident of comparison semantics — be explicit here).
            if not (math.isfinite(capacity) and capacity > 0.0):
                raise StateError(f"site {site!r}: capacity must be positive and finite, got {capacity}")
            if old.is_multiresource:
                raise ResourceMismatchError(
                    f"site {site!r}: scalar capacity update on a vector site offering "
                    f"{sorted(old.resource_vector)}"
                )
            self._sites[site] = Site(old.name, float(capacity), old.tags)
        self._mutated()

    def validate_event(self, event: ClusterEvent) -> None:
        """Resource-shape checks whose verdict cannot change between submit
        and flush, raised synchronously (the daemon calls this before
        journaling so the edges answer 400, not a silent rejection-log
        entry).  Sites are fixed for the state's lifetime and capacity
        updates must keep each site's resource-name set, so the offered
        set — and every per-site set — is an invariant; presence checks
        (duplicate job, unknown departure) stay best-effort at flush
        because queued events legitimately change them.
        """
        if isinstance(event, JobArrived):
            missing = set(event.job.resource_vector) - self.offered_resources()
            if missing:
                raise UnknownResourceError(
                    f"job {event.job.name!r} demands unknown resources {sorted(missing)} "
                    f"(sites offer {sorted(self.offered_resources())})"
                )
        elif isinstance(event, CapacityChanged) and event.site in self._sites:
            old = self._sites[event.site]
            if isinstance(event.capacity, Mapping):
                vec = normalize_resources(event.capacity, f"site {event.site!r} capacity")
                if set(vec) != set(old.resource_vector):
                    raise ResourceMismatchError(
                        f"site {event.site!r}: capacity update must keep resources "
                        f"{sorted(old.resource_vector)}, got {sorted(vec)}"
                    )
            elif old.is_multiresource:
                raise ResourceMismatchError(
                    f"site {event.site!r}: scalar capacity update on a vector site offering "
                    f"{sorted(old.resource_vector)}"
                )

    def apply(self, event: ClusterEvent) -> None:
        """Apply one delta (raises :class:`StateError` without mutating)."""
        if isinstance(event, JobArrived):
            self.add_job(event.job)
        elif isinstance(event, JobDeparted):
            self.remove_job(event.name)
        elif isinstance(event, CapacityChanged):
            self.set_capacity(event.site, event.capacity)
        else:
            raise StateError(f"unknown event type {type(event).__name__!r}")

    def apply_all(self, events: Iterable[ClusterEvent]) -> tuple[int, list[str]]:
        """Apply a batch; returns ``(applied, rejections)``.

        Batch application is best-effort per event: a rejected delta is
        reported, not fatal, because coalesced batches routinely contain a
        departure for a job whose arrival was rejected moments earlier.
        The daemon's flush and journal recovery both apply batches here.
        """
        applied = 0
        rejections: list[str] = []
        for event in events:
            try:
                self.apply(event)
                applied += 1
            except (StateError, ResourceError) as exc:
                rejections.append(str(exc))
        return applied, rejections

    # ------------------------------------------------------------------
    def snapshot(self) -> Cluster:
        """Immutable :class:`Cluster` of the current state (cached per version)."""
        if self._snapshot is None:
            self._snapshot = Cluster(tuple(self._sites.values()), tuple(self._jobs.values()))
        return self._snapshot


def events_from_schedule(schedule: Iterable[tuple[float, str, object]]) -> list[ClusterEvent]:
    """Convert a workload-layer churn schedule into typed events.

    The workload generators stay import-free of this package by emitting
    plain ``(time, kind, payload)`` tuples (see
    :func:`repro.workload.arrivals.generate_churn_schedule`); this adapter
    types them: ``("arrive", Job)``, ``("depart", name)``,
    ``("capacity", (site, capacity))``.
    """
    out: list[ClusterEvent] = []
    for time, kind, payload in schedule:
        if kind == "arrive":
            out.append(JobArrived(payload, time))  # type: ignore[arg-type]
        elif kind == "depart":
            out.append(JobDeparted(str(payload), time))
        elif kind == "capacity":
            site, capacity = payload  # type: ignore[misc]
            out.append(CapacityChanged(str(site), float(capacity), time))
        else:
            raise StateError(f"unknown schedule kind {kind!r}")
    return out
