"""Long-lived cluster state: the delta store behind the allocation daemon.

The offline solvers consume immutable :class:`~repro.model.cluster.Cluster`
snapshots; an online service instead sees a *stream of deltas* — jobs
arrive, jobs depart, sites grow or shrink.  :class:`ClusterState` is the
mutable store that absorbs those deltas and hands out immutable snapshots
on demand, with a monotone ``version`` so downstream layers (the
daemon's solve timer, component memo) can tell "nothing changed" from
"re-solve needed".

The state also keeps the connected components of the job-site graph
between versions (:mod:`repro.core.sharding`): an arrival unions the
components its sites touch, a departure re-splits the component it leaves
when it can split, and a capacity change renews the one component holding
the site.  Every other component keeps its record — and with it the
sub-instance, views and fingerprint some earlier snapshot built — so a
delta costs the component it touches, not the federation.

Inside the component it touches, a delta costs the event: each record
carries its support edges (:class:`~repro.model.cluster.SupportEdges`),
which a job's arrival extends by its own edges, computed once, and its
departure compacts; a capacity change leaves them as they are.  The arrays
are built from the last ones read when a solve reads them, so the dense
views and the flow network of a scalar component are built without
walking its jobs, and an event costs no array work until then.
And for each pair of sites the state counts the jobs spanning both: the
job-site graph's components are those of the graph on the sites joined by
a positive count, so a departure that leaves every count of its pairs
positive cannot split its component and skips the re-partition.

Events are plain frozen dataclasses so they can be generated by workload
models, carried over HTTP, or replayed from a trace.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from repro._util import require
from repro.core.sharding import connected_components
from repro.model.cluster import Cluster, Component, SupportEdges
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
        self._names = list(self._sites)
        # sites are fixed and a capacity update keeps each site's resource
        # names, so what the sites offer never changes
        self._offered = frozenset(itertools.chain.from_iterable(s.resource_vector for s in self._sites.values()))
        # for the same reason whether some site offers a resource vector never
        # changes; with the count of vector jobs it is the snapshot's
        # ``is_multiresource``, carried instead of walked
        self._vector_sites = any(site.is_multiresource for site in self._sites.values())
        self._vector_jobs = 0
        self._jobs: dict[str, Job] = {}
        # arrival number of each job: the snapshot's job order, and the
        # dict's (a re-arrival is inserted anew); ``arrivals`` numbers the next
        self._arrival: dict[str, int] = {}
        self.arrivals = 0
        # the partition: component records by their smallest site index, and
        # each site's component (every site starts alone)
        no_edges = SupportEdges.of((), *(np.zeros(0, dtype=np.intp),) * 2, *(np.zeros(0),) * 2, np.zeros(0, dtype=np.intp))
        self._components: dict[int, Component] = {
            k: Component(frozenset((name,)), (k,), no_edges) for k, name in enumerate(self._sites)
        }
        self._root = list(range(len(self._sites)))
        # jobs spanning each pair of sites (site indices, ascending), for the
        # pairs some job spans
        self._pairs: dict[tuple[int, int], int] = {}
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

    def arrived_since(self, mark: int) -> list[str]:
        """The held jobs numbered ``mark`` or later on arrival (``mark`` a
        past :attr:`arrivals`), in arrival order: a walk back over them alone."""
        names = []
        for name in reversed(self._arrival):
            if self._arrival[name] < mark:
                break
            names.append(name)
        return names[::-1]

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

    def _support(self, job: Job) -> list[int]:
        """The job's site indices, ascending."""
        return sorted(map(self._site_index.__getitem__, job.workload))

    def add_job(self, job: Job) -> None:
        if job.name in self._jobs:
            raise StateError(f"job {job.name!r} already present")
        unknown = set(job.workload).difference(self._site_index)
        if unknown:
            raise StateError(f"job {job.name!r} references unknown sites {sorted(unknown)}")
        self._refuse_unoffered(job)
        self._jobs[job.name] = job
        self._vector_jobs += job.is_multiresource
        arrival = self._arrival[job.name] = self.arrivals
        self.arrivals += 1
        support = self._support(job)
        for pair in itertools.combinations(support, 2):
            self._pairs[pair] = self._pairs.get(pair, 0) + 1
        names = [self._names[j] for j in support]
        work = tuple(job.workload[site] for site in names)
        declared = tuple(job.demand.get(site, math.inf) for site in names)
        # union: the components the job's sites lie in become one, with the
        # job last (it is the newest arrival)
        parts = [self._components.pop(root) for root in sorted({self._root[j] for j in support})]
        if len(parts) == 1:
            (part,) = parts
            cols = tuple(bisect.bisect_left(part.sites, j) for j in support)
            self._place(Component(part.key, part.sites, part.edges.with_job(job.name, (arrival, cols, work, declared))))
            self._mutated()
            return
        jobs = sorted(itertools.chain.from_iterable(p.jobs for p in parts), key=self._arrival.__getitem__)
        sites = tuple(sorted(itertools.chain.from_iterable(p.sites for p in parts)))
        local = np.empty(len(self._sites), dtype=np.intp)
        local[list(sites)] = np.arange(len(sites))
        position = {name: k for k, name in enumerate(jobs)}
        arrays = [p.edges.arrays for p in parts]
        rows = [np.array([position[name] for name in p.jobs], dtype=np.intp)[a[0]] for p, a in zip(parts, arrays)]
        cols = [local[np.array(p.sites, dtype=np.intp)[a[1]]] for p, a in zip(parts, arrays)]
        # each part lists a job's edges together, its sites ascending, and
        # the union keeps the sites' order: a stable sort by job is job-major
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        merged = SupportEdges.of(
            tuple(jobs),
            rows[order],
            np.concatenate(cols)[order],
            np.concatenate([a[2] for a in arrays])[order],
            np.concatenate([a[3] for a in arrays])[order],
            np.array([self._arrival[name] for name in jobs], dtype=np.intp),
        )
        cols = tuple(local[support].tolist())
        key = frozenset().union(*(p.key for p in parts))
        self._place(Component(key, sites, merged.with_job(job.name, (arrival, cols, work, declared))))
        self._mutated()

    def remove_job(self, name: str) -> Job:
        try:
            job = self._jobs.pop(name)
        except KeyError:
            raise StateError(f"unknown job {name!r}") from None
        del self._arrival[name]
        self._vector_jobs -= job.is_multiresource
        support = self._support(job)
        emptied = False
        for pair in itertools.combinations(support, 2):
            count = self._pairs[pair] - 1
            if count:
                self._pairs[pair] = count
            else:
                del self._pairs[pair]
                emptied = True
        root = self._root[support[0]]
        part = self._components.pop(root)
        edges = part.edges.without_job(part.jobs.index(name))
        # only a site pair the job alone joined can split the component: then
        # re-partition it on its site graph (the pairs some job still spans)
        groups = None
        if emptied:
            local = {j: k for k, j in enumerate(part.sites)}
            joined = [(local[a], local[b]) for a, b in self._pairs if self._root[a] == root]
            groups = connected_components(len(part.sites), joined)
        if groups is None or len(groups) == 1:
            self._place(Component(part.key, part.sites, edges))
        else:
            self._split(part.sites, edges, [site_pos for site_pos, _ in groups])
        self._mutated()
        return job

    def _split(self, sites: tuple[int, ...], edges: SupportEdges, groups: list[tuple[int, ...]]) -> None:
        """Place the components ``edges`` fall into, on ``groups`` of the
        positions in ``sites``."""
        rows, cols, work, declared, arrivals = edges.arrays
        label = np.empty(len(sites), dtype=np.intp)
        renumber_sites = np.empty(len(sites), dtype=np.intp)
        for g, site_pos in enumerate(groups):
            label[list(site_pos)] = g
            renumber_sites[list(site_pos)] = np.arange(len(site_pos))
        edge_label = label[cols]
        job_label = np.empty(len(edges.jobs), dtype=np.intp)
        job_label[rows] = edge_label
        renumber_jobs = np.empty(len(edges.jobs), dtype=np.intp)
        for g, site_pos in enumerate(groups):
            job_pos = np.flatnonzero(job_label == g)
            renumber_jobs[job_pos] = np.arange(job_pos.size)
            on = edge_label == g
            group = tuple(sites[k] for k in site_pos)
            self._place(
                Component(
                    frozenset(self._names[j] for j in group),
                    group,
                    SupportEdges.of(
                        tuple(edges.jobs[i] for i in job_pos.tolist()),
                        renumber_jobs[rows[on]],
                        renumber_sites[cols[on]],
                        work[on],
                        declared[on],
                        arrivals[job_pos],
                    ),
                )
            )

    def _place(self, part: Component) -> None:
        root = part.sites[0]
        self._components[root] = part
        for j in part.sites:
            self._root[j] = root

    def _checked_shape(self, site: str, capacity: float | Mapping[str, float]) -> dict[str, float] | None:
        """Refuse a capacity update to known ``site`` that changes what
        resources it offers; returns a vector update normalized (``None``
        for a scalar)."""
        old = self._sites[site]
        if isinstance(capacity, Mapping):
            vec = normalize_resources(capacity, f"site {site!r} capacity")
            if set(vec) != set(old.resource_vector):
                raise ResourceMismatchError(
                    f"site {site!r}: capacity update must keep resources "
                    f"{sorted(old.resource_vector)}, got {sorted(vec)}"
                )
            return vec
        if old.is_multiresource:
            raise ResourceMismatchError(
                f"site {site!r}: scalar capacity update on a vector site offering "
                f"{sorted(old.resource_vector)}"
            )
        return None

    def set_capacity(self, site: str, capacity: float | Mapping[str, float]) -> None:
        if site not in self._sites:
            raise StateError(f"unknown site {site!r}")
        old = self._sites[site]
        # math.isfinite also rejects NaN (which `> 0.0` would too, but only
        # by accident of comparison semantics — be explicit here).
        if not isinstance(capacity, Mapping) and not (math.isfinite(capacity) and capacity > 0.0):
            raise StateError(f"site {site!r}: capacity must be positive and finite, got {capacity}")
        vec = self._checked_shape(site, capacity)
        self._sites[site] = Site(old.name, float(capacity) if vec is None else vec, old.tags)
        # renew the site's component: same sites, jobs and edges (an edge's
        # effective cap is read against the capacities), a fresh sub-instance
        part = self._components[self._root[self._site_index[site]]]
        self._place(Component(part.key, part.sites, part.edges))
        self._mutated()

    def validate_event(self, event: ClusterEvent) -> None:
        """Raise the resource-shape refusals of ``event`` without applying it.

        The daemon calls this before journaling, so the edges answer 400
        instead of logging a rejection, and a refused event never reaches
        the journal.  Sites are fixed for the state's lifetime and capacity
        updates must keep each site's resource-name set, so these verdicts
        never change.  Presence checks (duplicate job, unknown departure or
        site) and a non-positive capacity are left to :meth:`apply`, which
        logs them as rejections the way journal recovery replays them.
        """
        if isinstance(event, JobArrived):
            self._refuse_unoffered(event.job)
        elif isinstance(event, CapacityChanged) and event.site in self._sites:
            self._checked_shape(event.site, event.capacity)

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
        reported, not fatal, because a request's batch may well hold a
        departure for a job whose arrival was rejected moments earlier.
        The daemon's intake and journal recovery both apply events here.
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
