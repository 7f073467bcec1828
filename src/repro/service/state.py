"""Long-lived cluster state: the delta store behind the allocation daemon.

The offline solvers consume immutable :class:`~repro.model.cluster.Cluster`
snapshots; an online service instead sees a *stream of deltas* — jobs
arrive, jobs depart, sites grow or shrink.  :class:`ClusterState` is the
mutable store that absorbs those deltas and hands out immutable snapshots
on demand, with a monotone ``version`` so downstream layers (batching
queue, component memo) can tell "nothing changed" from "re-solve needed".

The state also keeps the connected components of the job-site graph
between versions (:mod:`repro.core.sharding`): an arrival unions the
components its sites touch, a departure re-splits the component it leaves,
and a capacity change renews the one component holding the site.  Every
other component keeps its record — and with it the sub-instance, views and
fingerprint some earlier snapshot built — so a delta costs the component it
touches, not the federation.

Events are plain frozen dataclasses so they can be generated by workload
models, carried over HTTP, or replayed from a trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro._util import require
from repro.core.sharding import connected_components
from repro.model.cluster import Cluster, Component
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
    deltas are free — and share a fingerprint, which is what lets the
    warm solver's component memo answer them.

    Each job is checked once, on arrival, with the rules of the validating
    ``Cluster(sites, jobs)`` (free name, known sites, offered resources);
    the snapshot is then built without re-checking, and carries the
    component partition (see the module docstring).
    """

    def __init__(self, sites: Iterable[Site], jobs: Iterable[Job] = ()):
        self._sites: dict[str, Site] = {}
        for site in sites:
            require(site.name not in self._sites, f"duplicate site {site.name!r}")
            self._sites[site.name] = site
        require(len(self._sites) > 0, "service state needs at least one site")
        self._site_index = {name: k for k, name in enumerate(self._sites)}
        # sites are fixed and a capacity update keeps each site's resource
        # names, so what the sites offer never changes
        self._offered = frozenset(itertools.chain.from_iterable(s.resource_vector for s in self._sites.values()))
        # for the same reason whether some site offers a resource vector never
        # changes; with the count of vector jobs it is the snapshot's
        # ``is_multiresource``, carried instead of walked
        self._vector_sites = any(site.is_multiresource for site in self._sites.values())
        self._vector_jobs = 0
        self._jobs: dict[str, Job] = {}
        # arrival number of each job: the snapshot's job order
        self._arrival: dict[str, int] = {}
        self._arrivals = itertools.count()
        # the partition: component records by their smallest site index, and
        # each site's component (every site starts alone)
        self._components: dict[int, Component] = {
            k: Component(frozenset((name,)), (k,), ()) for k, name in enumerate(self._sites)
        }
        self._root = list(range(len(self._sites)))
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

    def has_job(self, name: str) -> bool:
        return name in self._jobs

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self.version += 1
        self._snapshot = None

    def _refuse_unoffered(self, job: Job) -> None:
        missing = set(job.resource_vector) - self._offered
        if missing:
            raise UnknownResourceError(
                f"job {job.name!r} demands unknown resources {sorted(missing)} "
                f"(sites offer {sorted(self._offered)})"
            )

    def add_job(self, job: Job) -> None:
        if job.name in self._jobs:
            raise StateError(f"job {job.name!r} already present")
        unknown = set(job.workload).difference(self._site_index)
        if unknown:
            raise StateError(f"job {job.name!r} references unknown sites {sorted(unknown)}")
        self._refuse_unoffered(job)
        self._jobs[job.name] = job
        self._vector_jobs += job.is_multiresource
        self._arrival[job.name] = next(self._arrivals)
        # union: the components the job's sites lie in become one, with the
        # job last (it is the newest arrival)
        roots = sorted({self._root[self._site_index[site]] for site in job.workload})
        parts = [self._components.pop(root) for root in roots]
        if len(parts) == 1:
            (part,) = parts
            self._place(Component(part.key, part.sites, (*part.jobs, job.name)))
        else:
            jobs = sorted(itertools.chain.from_iterable(p.jobs for p in parts), key=self._arrival.__getitem__)
            self._place(
                Component(
                    frozenset().union(*(p.key for p in parts)),
                    tuple(sorted(itertools.chain.from_iterable(p.sites for p in parts))),
                    (*jobs, job.name),
                )
            )
        self._mutated()

    def remove_job(self, name: str) -> Job:
        try:
            job = self._jobs.pop(name)
        except KeyError:
            raise StateError(f"unknown job {name!r}") from None
        del self._arrival[name]
        self._vector_jobs -= job.is_multiresource
        # re-split the component the job leaves, and it alone
        part = self._components.pop(self._root[self._site_index[next(iter(job.workload))]])
        rest = tuple(other for other in part.jobs if other != name)
        local = {j: k for k, j in enumerate(part.sites)}
        groups = connected_components(
            len(part.sites),
            ([local[self._site_index[site]] for site in self._jobs[other].workload] for other in rest),
        )
        if len(groups) == 1:
            self._place(Component(part.key, part.sites, rest))
        else:
            names = list(self._sites)
            for site_pos, job_pos in groups:
                sites = tuple(part.sites[k] for k in site_pos)
                self._place(Component(frozenset(names[j] for j in sites), sites, tuple(rest[i] for i in job_pos)))
        self._mutated()
        return job

    def _place(self, part: Component) -> None:
        root = part.sites[0]
        self._components[root] = part
        for j in part.sites:
            self._root[j] = root

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
        # renew the site's component: same sites and jobs, a fresh sub-instance
        part = self._components[self._root[self._site_index[site]]]
        self._place(Component(part.key, part.sites, part.jobs))
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
            self._refuse_unoffered(event.job)
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
        """Immutable :class:`Cluster` of the current state (cached per version).

        Jobs in arrival order; it carries the component partition, in
        ``decompose`` order, and its ``is_multiresource``.
        """
        if self._snapshot is None:
            self._snapshot = Cluster._trusted(
                tuple(self._sites.values()),
                tuple(self._jobs.values()),
                tuple(self._components[root] for root in sorted(self._components)),
                self._vector_sites or self._vector_jobs > 0,
            )
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
