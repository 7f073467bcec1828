"""Cluster: an immutable snapshot of jobs and sites, with array views.

All solvers in :mod:`repro.core` consume a :class:`Cluster` and operate on
its dense NumPy views (capacities, workload matrix, effective demand caps).
The views are computed once and cached — the guides' "views, not copies"
advice applied at the model boundary.  Each instance has one list of
support edges (:class:`SupportEdges`), and the views, the flow network and
the partition are all read off it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro._util import as_float_array, as_float_matrix, nonneg, require
from repro.model.job import Job
from repro.model.resources import SLOTS, UnknownResourceError
from repro.model.site import Site


_ONE_SLOT = MappingProxyType({SLOTS: 1.0})  # a scalar job's resource vector


class Cluster:
    """An allocation instance: ``m`` sites and ``n`` jobs with pinned work.

    The class is intentionally immutable: every mutation helper
    (:meth:`without_job`, :meth:`with_job`, :meth:`replace_job`) returns a new
    instance, which keeps the strategy-proofness / sharing-incentive probes
    honest (they compare allocations across *independent* instances).

    Every public constructor — ``Cluster(sites, jobs)``,
    :meth:`from_matrices` and the four mutation helpers — validates (unique
    names, known sites, offered resources), so data that crosses a boundary
    (a wire payload, a journal) is checked once.  The private
    :meth:`_trusted` does not, and its two callers have already checked:
    :meth:`_subset` selects from an instance that was validated, and a
    :class:`~repro.service.state.ClusterState` snapshot holds jobs the state
    checked one by one on arrival (same duplicate-name, known-site and
    offered-resource rules; sites and each site's resource names never
    change).
    """

    #: The connected components of the job-site graph, when the instance is
    #: a snapshot of a store that keeps them between versions
    #: (:class:`~repro.service.state.ClusterState`); ``None`` otherwise.
    #: :func:`~repro.core.sharding.decompose` returns them without a walk.
    _components: tuple["Component", ...] | None = None

    def __init__(self, sites: Sequence[Site], jobs: Sequence[Job]):
        sites = tuple(sites)
        jobs = tuple(jobs)
        require(len(sites) > 0, "cluster needs at least one site")
        site_names = [s.name for s in sites]
        require(len(set(site_names)) == len(site_names), "site names must be unique")
        job_names = [j.name for j in jobs]
        require(len(set(job_names)) == len(job_names), "job names must be unique")
        known, offered = set(site_names), _offered(sites)
        for job in jobs:
            unknown = set(job.workload) - known
            require(not unknown, f"job {job.name!r} references unknown sites {sorted(unknown)}")
            _refuse_unoffered(job, offered)
        self._sites = sites
        self._jobs = jobs
        self._site_index = {name: k for k, name in enumerate(site_names)}
        self._job_index = {name: k for k, name in enumerate(job_names)}

    @classmethod
    def _trusted(
        cls,
        sites: tuple[Site, ...],
        jobs: tuple[Job, ...],
        components: tuple["Component", ...] | None = None,
        multiresource: bool | None = None,
        edges: "SupportEdges | None" = None,
    ) -> "Cluster":
        """An instance over parts that were already checked, without checking;
        ``components`` is the caller's partition of the job-site graph, and
        ``multiresource`` and ``edges`` its :attr:`is_multiresource` and
        :attr:`_edges` of these parts (each walked on first read when ``None``)."""
        self = object.__new__(cls)
        self._sites = sites
        self._jobs = jobs
        self._site_index = {site.name: k for k, site in enumerate(sites)}
        self._job_index = {job.name: k for k, job in enumerate(jobs)}
        if components is not None:
            self._components = components
            if len(components) == 1:  # the component spans every site and job
                edges = components[0].edges
        if multiresource is not None:
            self.__dict__["is_multiresource"] = multiresource
        if edges is not None:
            self.__dict__["_edges"] = edges
        return self

    def _subset(self, site_idx: Sequence[int], job_idx: Sequence[int], edges: "SupportEdges") -> "Cluster":
        """The sub-instance on those sites and jobs, in their present order,
        with support edges ``edges``; every chosen job's support must lie
        inside ``site_idx``.

        Skips validation: unique names and known sites are inherited from
        this (validated, immutable) cluster.  Offered resources are not — a
        subset offers only what its own sites do — so a vector cluster's
        subset refuses a job demanding a resource its sites do not offer.
        A subset of a scalar cluster is scalar.  No job's edges are read: a
        scalar twin's jobs are labels (``scalar_reduction``).
        """
        sites = tuple(self._sites[j] for j in site_idx)
        jobs = tuple(self._jobs[i] for i in job_idx)
        if self.is_multiresource:
            offered = _offered(sites)
            for job in jobs:
                _refuse_unoffered(job, offered)
            return Cluster._trusted(sites, jobs, edges=edges)
        return Cluster._trusted(sites, jobs, multiresource=False, edges=edges)

    def _blocks(self) -> list[tuple["Component", tuple[int, ...], "Cluster"]] | None:
        """The carried components as ``(component, job indices, sub-instance)``.

        In component order; ``None`` when the instance carries none.  A
        component no earlier snapshot built its sub-instance for gets it
        here (:meth:`_subset`), kept on the record for later snapshots; one
        component spanning every site is this instance itself (so the list
        is not cached on it: that would make every snapshot a reference
        cycle, freed only by the cyclic collector).
        """
        parts = self._components
        if parts is None:
            return None
        if len(parts) == 1:
            return [(parts[0], tuple(range(self.n_jobs)), self)]
        index = self._job_index
        blocks = []
        for part in parts:
            job_idx = tuple(map(index.__getitem__, part.jobs))
            if part.cluster is None:
                part.cluster = self._subset(part.sites, job_idx, part.edges)
            blocks.append((part, job_idx, part.cluster))
        return blocks

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def sites(self) -> tuple[Site, ...]:
        return self._sites

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self._jobs

    @property
    def n_sites(self) -> int:
        return len(self._sites)

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    def site_index(self, name: str) -> int:
        return self._site_index[name]

    def job_index(self, name: str) -> int:
        return self._job_index[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(n_jobs={self.n_jobs}, n_sites={self.n_sites}, total_capacity={self.total_capacity:g})"

    # ------------------------------------------------------------------
    # Dense views (cached)
    # ------------------------------------------------------------------
    @cached_property
    def capacities(self) -> np.ndarray:
        """``(m,)`` site capacities."""
        arr = np.array([s.capacity for s in self._sites], dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def weights(self) -> np.ndarray:
        """``(n,)`` fairness weights."""
        arr = np.array([j.weight for j in self._jobs], dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _edges(self) -> "SupportEdges":
        """The instance's support edges (:class:`SupportEdges`): a store's
        component record when the instance is one (:meth:`_trusted`), else
        walked once from the jobs (:func:`job_edges`), with no arrival
        numbers.  Everything that reads the job-site graph reads these."""
        per_job = [job_edges(job, self._site_index) for job in self._jobs]
        return SupportEdges.of(tuple(self._job_index), *_stacked(per_job, 0), None)

    def _edge_views(self) -> tuple[np.ndarray, np.ndarray]:
        """``(workloads, demand_caps)``, both cached by the one call: the
        support edges' work and effective caps scattered, 0 elsewhere."""
        rows, cols, caps = self.support_edges()
        views = np.zeros((2, self.n_jobs, self.n_sites), dtype=float)
        views[0, rows, cols], views[1, rows, cols] = self._edges.arrays[2], caps
        views.flags.writeable = False
        views = tuple(views)
        self.__dict__["workloads"], self.__dict__["demand_caps"] = views
        return views

    def support_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, caps)``: each support edge's job and site index and
        effective demand cap (:attr:`_edge_caps`), job by job with each
        job's sites ascending (``np.nonzero(support)`` order)."""
        rows, cols = self._edges.arrays[:2]
        return rows, cols, self._edge_caps

    @cached_property
    def _edge_caps(self) -> np.ndarray:
        """Each support edge's effective demand cap (:attr:`demand_caps`)."""
        rows, cols, _, declared, _ = self._edges.arrays
        if not self.is_multiresource:
            alone = self.capacities[cols]
        else:
            need = self.job_resource_matrix[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                alone = np.where(need > 0.0, self.site_resource_matrix[cols] / need, np.inf).min(axis=1)
        caps = np.minimum(declared, alone)
        caps.flags.writeable = False
        return caps

    def arrival_numbers(self) -> np.ndarray | None:
        """The jobs' arrival numbers in the store this instance is a
        component of (:class:`SupportEdges`), or ``None``."""
        return self._edges.arrays[4]

    @cached_property
    def workloads(self) -> np.ndarray:
        """``(n, m)`` workload matrix ``W``; ``W[i, j] > 0`` iff job ``i`` has work at site ``j``."""
        return self._edge_views()[0]

    @cached_property
    def support(self) -> np.ndarray:
        """``(n, m)`` boolean support mask (where each job may receive resource)."""
        mask = self.workloads > 0.0
        mask.flags.writeable = False
        return mask

    @cached_property
    def demand_caps(self) -> np.ndarray:
        """``(n, m)`` *effective* per-edge demand caps.

        ``inf``/missing caps are clipped to the rate the site could sustain
        if the job ran alone there (a job can never usefully hold more than
        the whole site; for a resource vector that is ``min_r c_jr / r_ir``
        over the resources the job consumes), and entries outside the
        support are 0.  Solvers therefore only ever need this matrix.
        """
        return self._edge_views()[1]

    # ------------------------------------------------------------------
    # Resource-vector views
    # ------------------------------------------------------------------
    @cached_property
    def is_multiresource(self) -> bool:
        """True when any site or job declares a non-canonical resource vector."""
        return any(s.is_multiresource for s in self._sites) or any(j.is_multiresource for j in self._jobs)

    @cached_property
    def resource_names(self) -> tuple[str, ...]:
        """Sorted names of every resource offered by some site."""
        names: set[str] = set()
        for site in self._sites:
            names.update(site.resource_vector)
        return tuple(sorted(names))

    @cached_property
    def site_resource_matrix(self) -> np.ndarray:
        """``(m, R)`` site capacities per resource (0 where not offered)."""
        return self._resource_matrix(site.resource_vector for site in self._sites)

    @cached_property
    def job_resource_matrix(self) -> np.ndarray:
        """``(n, R)`` per-task resource demands (0 where not consumed)."""
        # each job's ``resource_vector``, read without copying it
        return self._resource_matrix(job.resources or _ONE_SLOT for job in self._jobs)

    def _resource_matrix(self, vectors: Iterable[Mapping[str, float]]) -> np.ndarray:
        names = self.resource_names
        mat = np.array([[vec.get(res, 0.0) for res in names] for vec in vectors], dtype=float)
        mat = mat.reshape(-1, len(names))  # no rows: (0, R)
        mat.flags.writeable = False
        return mat

    @cached_property
    def resource_totals(self) -> dict[str, float]:
        """Federation-wide capacity of each resource (dominant-share denominators)."""
        totals = self.site_resource_matrix.sum(axis=0)
        return {res: float(totals[r]) for r, res in enumerate(self.resource_names)}

    def dominant_factor(self, resource_totals: Mapping[str, float] | None = None) -> np.ndarray:
        """``(n,)`` per-unit-rate dominant-share factor of each job.

        ``factor[i] = max_r r_ir / C_r`` with federation-wide totals ``C_r``:
        a job running at aggregate rate ``A_i`` holds dominant share
        ``A_i * factor[i]``.  Pass ``resource_totals`` to pin the global
        denominators when solving a sub-cluster (a shard) of a federation.
        """
        names = self.resource_names
        if resource_totals is None:
            totals = {res: self.resource_totals[res] for res in names}
        else:
            totals = {res: float(resource_totals.get(res, self.resource_totals[res])) for res in names}
        denom = np.array([max(totals[res], 1e-300) for res in names], dtype=float)
        if not names:
            return np.ones(self.n_jobs, dtype=float)
        factor = (self.job_resource_matrix / denom).max(axis=1)
        return factor

    @cached_property
    def aggregate_demand(self) -> np.ndarray:
        """``(n,)`` per-job aggregate demand cap (sum of effective edge caps)."""
        arr = self.demand_caps.sum(axis=1)
        arr.flags.writeable = False
        return arr

    @property
    def total_capacity(self) -> float:
        return float(self.capacities.sum())

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @cached_property
    def _fingerprint(self) -> str:
        h = hashlib.sha256(b"".join(site.fingerprint_lines for site in self._sites))
        h.update(b"".join(job.fingerprint_lines for job in self._jobs))
        return h.hexdigest()

    def fingerprint(self) -> str:
        """Stable hex digest of everything that determines an allocation.

        Covers site order/names/capacities and job order/names/weights/
        workloads/demand caps — exactly the inputs every solver consumes.
        Fields that never affect allocation (site tags, job arrival times)
        are excluded, so a cluster rebuilt mid-simulation from the same
        remaining work hashes identically.  Job/site *order* is included
        because the allocation matrix layout depends on it.

        A component's digest keys the online allocation service's component
        memo (:mod:`repro.service.solver`): equal fingerprints guarantee
        equal solver inputs, so a memoized matrix can be replayed verbatim.
        """
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------
    def without_job(self, name: str) -> "Cluster":
        """New cluster with job ``name`` removed."""
        require(name in self._job_index, f"unknown job {name!r}")
        return Cluster(self._sites, tuple(j for j in self._jobs if j.name != name))

    def with_job(self, job: Job) -> "Cluster":
        """New cluster with ``job`` appended."""
        return Cluster(self._sites, (*self._jobs, job))

    def replace_job(self, job: Job) -> "Cluster":
        """New cluster where the job with the same name is replaced by ``job``."""
        require(job.name in self._job_index, f"unknown job {job.name!r}")
        return Cluster(self._sites, tuple(job if j.name == job.name else j for j in self._jobs))

    def restricted_to_jobs(self, names: Iterable[str]) -> "Cluster":
        """New cluster keeping only the named jobs (order preserved)."""
        keep = set(names)
        unknown = keep - set(self._job_index)
        require(not unknown, f"unknown jobs {sorted(unknown)}")
        return Cluster(self._sites, tuple(j for j in self._jobs if j.name in keep))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_matrices(
        cls,
        capacities: Sequence[float] | np.ndarray,
        workloads,
        demand_caps=None,
        weights: Sequence[float] | np.ndarray | None = None,
        site_names: Sequence[str] | None = None,
        job_names: Sequence[str] | None = None,
    ) -> "Cluster":
        """Build a cluster from dense arrays.

        Parameters
        ----------
        capacities:
            ``(m,)`` positive site capacities.
        workloads:
            ``(n, m)`` non-negative workload matrix; each row must have at
            least one positive entry.
        demand_caps:
            Optional ``(n, m)`` per-edge rate caps.  ``inf`` (or omitted)
            means "capped only by the site".  Caps outside the workload
            support are ignored.
        weights:
            Optional ``(n,)`` fairness weights (default all-ones).
        site_names / job_names:
            Optional identifiers (defaults ``s0..`` / ``j0..``).
        """
        cap = nonneg(as_float_array(capacities, "capacities"), "capacities")
        W = nonneg(as_float_matrix(workloads, "workloads"), "workloads")
        n, m = W.shape
        require(cap.shape == (m,), f"capacities shape {cap.shape} incompatible with workloads {W.shape}")
        if site_names is None:
            site_names = [f"s{j}" for j in range(m)]
        if job_names is None:
            job_names = [f"j{i}" for i in range(n)]
        require(len(site_names) == m, "site_names length mismatch")
        require(len(job_names) == n, "job_names length mismatch")
        if weights is None:
            wts = np.ones(n)
        else:
            wts = as_float_array(weights, "weights")
            require(wts.shape == (n,), "weights length mismatch")
        if demand_caps is not None:
            D = np.asarray(demand_caps, dtype=float)
            require(D.shape == (n, m), f"demand_caps shape {D.shape} != workloads shape {W.shape}")
            require(not bool(np.isnan(D).any()), "demand_caps must not contain NaN")
            require(not bool((D < 0.0).any()), "demand_caps must be non-negative")  # -inf included

        sites = [Site(site_names[j], float(cap[j])) for j in range(m)]
        jobs = []
        for i in range(n):
            workload: dict[str, float] = {}
            demand: dict[str, float] = {}
            for j in range(m):
                if W[i, j] > 0.0:
                    workload[site_names[j]] = float(W[i, j])
                    if demand_caps is not None and np.isfinite(D[i, j]):
                        demand[site_names[j]] = float(D[i, j])
            jobs.append(Job(job_names[i], workload, demand, weight=float(wts[i])))
        return cls(sites, jobs)

    @classmethod
    def uniform(cls, n_jobs: int, n_sites: int, capacity: float = 1.0, work: float = 1.0) -> "Cluster":
        """Convenience: every job has equal work at every site (no caps)."""
        W = np.full((n_jobs, n_sites), work, dtype=float)
        return cls.from_matrices(np.full(n_sites, capacity), W)

    # ------------------------------------------------------------------
    # Reference shares
    # ------------------------------------------------------------------
    def equal_partition_entitlements(self) -> np.ndarray:
        """``(n,)`` equal-partition entitlements ``E_i`` (sharing-incentive bar).

        ``E_i = sum over the job's support of min(w_i / sum_k(w_k) * c_j, d_ij)``:
        each site is split among **all** ``n`` jobs in proportion to their
        fairness weights, and a job can bank at most its demand cap at each
        site of its support.  This is what job ``i`` is guaranteed if it
        refuses to share and runs in a static 1/n partition of every site.
        """
        wshare = self.weights / self.weights.sum()
        per_site = np.outer(wshare, self.capacities)  # (n, m) equal split
        banked = np.minimum(per_site, self.demand_caps)
        return np.where(self.support, banked, 0.0).sum(axis=1)


def job_edges(job: Job, site_index: Mapping[str, int]) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """``(cols, work, declared)``: ``job``'s support edges, its sites'
    indices (``site_index``) ascending, and at each its work and declared
    demand cap (``inf`` when uncapped).  The one walk of a job's edges."""
    inf = math.inf
    edges = sorted((site_index[site], work, job.demand.get(site, inf)) for site, work in job.workload.items())
    return tuple(zip(*edges))  # type: ignore[return-value]


def _stacked(per_job: list, first_row: int) -> tuple[np.ndarray, ...]:
    """``(rows, cols, work, declared)`` of the jobs' edges, each job's
    ``(cols, work, declared)`` (:func:`job_edges`), numbered from ``first_row``."""
    degree = [len(edges[0]) for edges in per_job]
    total = sum(degree)

    def flat(k: int, dtype) -> np.ndarray:
        return np.fromiter(itertools.chain.from_iterable(edges[k] for edges in per_job), dtype, total)

    rows = np.repeat(np.arange(first_row, first_row + len(per_job), dtype=np.intp), degree)
    return rows, flat(0, np.intp), flat(1, float), flat(2, float)


def _offered(sites: Iterable[Site]) -> set[str]:
    return set().union(*(site.resource_vector for site in sites))


def _refuse_unoffered(job: Job, offered: set[str]) -> None:
    """Raise when ``job`` demands a resource outside ``offered``."""
    vector = job.resources or _ONE_SLOT  # its ``resource_vector``, not copied
    if not offered.issuperset(vector):
        missing = set(vector) - offered
        raise UnknownResourceError(
            f"job {job.name!r} demands unknown resources {sorted(missing)} (cluster offers {sorted(offered)})"
        )


class SupportEdges:
    """An instance's support edges as arrays, one entry per (job, site) edge.

    ``arrays`` is ``(rows, cols, work, declared, arrivals)``.  Job by job in
    the component's job order (``jobs``), each job's sites ascending:
    ``rows`` is the job's position in the component, ``cols`` the site's,
    ``work`` the job's work there and ``declared`` its declared demand cap
    (``inf`` when uncapped); the effective cap is taken against the
    instance's capacities when read (:meth:`Cluster.support_edges`), so a
    capacity change leaves the edges as they are.  ``arrivals`` holds one
    entry per job of a store's component: the number the store gave it on
    arrival, ascending, which identifies the job within that store (``None``
    for edges walked from an instance's jobs).

    A store patches the edges by each event (:meth:`with_job`,
    :meth:`without_job`) without touching an array: the successor records
    what changed since the last edges that were built, and builds its
    arrays from those when it is first read — once per solve, however many
    events the solve takes.  Edges nobody reads are built once the arrivals they record outnumber their jobs, so what they
    hold stays in proportion to the component.  A job's own edges,
    ``(arrival, cols, work, declared)`` in the component's site positions,
    are computed once, on arrival.  The arrays are never written in place,
    so every record keeps its own.
    """

    __slots__ = ("jobs", "_arrays", "_base", "_added", "_pending", "_kept")

    def __init__(
        self,
        jobs: tuple[str, ...],
        arrays: tuple[np.ndarray, ...] | None = None,
        *,
        base: "SupportEdges | None" = None,
        added=None,
        pending: int = 0,
        kept: int = 0,
    ):
        self.jobs = jobs
        self._arrays = arrays  # (rows, cols, work, declared, arrivals), once built
        # until then: the last built edges, the jobs arrived since (a linked
        # list of ``pending`` entries, newest first: ((name, edges), rest))
        # and how many of the base's jobs are still here (first in ``jobs``)
        self._base = base
        self._added = added
        self._pending = pending
        self._kept = kept

    @classmethod
    def of(cls, jobs: tuple[str, ...], rows, cols, work, declared, arrivals) -> "SupportEdges":
        return cls(jobs, (rows, cols, work, declared, arrivals))

    def split(self, groups: Sequence[Sequence[int]]) -> list["SupportEdges"]:
        """These edges on each group of site positions, renumbered within
        it; ``groups`` partitions the sites and every job's sites lie in one
        group.  Jobs and edges keep their order."""
        rows, cols, work, declared, arrivals = self.arrays
        label = np.empty(sum(map(len, groups)), dtype=np.intp)
        renumber_sites = np.empty(label.size, dtype=np.intp)
        for g, site_pos in enumerate(groups):
            label[list(site_pos)] = g
            renumber_sites[list(site_pos)] = np.arange(len(site_pos))
        edge_label = label[cols]
        job_label = np.empty(len(self.jobs), dtype=np.intp)
        job_label[rows] = edge_label
        renumber_jobs = np.empty(len(self.jobs), dtype=np.intp)
        parts = []
        for g in range(len(groups)):
            job_pos = np.flatnonzero(job_label == g)
            renumber_jobs[job_pos] = np.arange(job_pos.size)
            on = edge_label == g
            parts.append(
                SupportEdges.of(
                    tuple(self.jobs[i] for i in job_pos.tolist()),
                    renumber_jobs[rows[on]],
                    renumber_sites[cols[on]],
                    work[on],
                    declared[on],
                    None if arrivals is None else arrivals[job_pos],
                )
            )
        return parts

    def _since(self):
        if self._arrays is not None:
            return self, None, 0, len(self.jobs)
        return self._base, self._added, self._pending, self._kept

    def with_job(self, name: str, edges: tuple) -> "SupportEdges":
        """These edges plus job ``name``'s, last: ``edges`` is
        ``(arrival, cols, work, declared)``."""
        base, added, pending, kept = self._since()
        jobs = (*self.jobs, name)
        return SupportEdges(jobs, base=base, added=((name, edges), added), pending=pending + 1, kept=kept)._bounded()

    def without_job(self, position: int) -> "SupportEdges":
        """These edges without the job at ``position``."""
        base, added, pending, kept = self._since()
        jobs = self.jobs[:position] + self.jobs[position + 1 :]
        return SupportEdges(jobs, base=base, added=added, pending=pending, kept=kept - (position < kept))._bounded()

    def _bounded(self) -> "SupportEdges":
        if self._pending > len(self.jobs):
            self._build()
        return self

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        if self._arrays is None:
            self._build()
        return self._arrays

    def _build(self) -> None:
        """Build the arrays from the base's and drop the chain."""
        self._arrays = self._patched()
        self._base, self._added, self._pending = None, None, 0

    def _patched(self) -> tuple[np.ndarray, ...]:
        rows, cols, work, declared, arrivals = self._base.arrays
        if self._kept < len(self._base.jobs):  # some of the base's jobs left
            here = set(self.jobs[: self._kept])
            keep = np.fromiter((name in here for name in self._base.jobs), dtype=bool, count=len(self._base.jobs))
            on = keep[rows]
            rows = (np.cumsum(keep) - 1)[rows[on]]
            cols, work, declared, arrivals = cols[on], work[on], declared[on], arrivals[keep]
        # each arrived job still here, from its newest arrival
        latest: dict[str, tuple] = {}
        node = self._added
        while node is not None:
            (name, edges), node = node
            latest.setdefault(name, edges)
        new = [latest[name] for name in self.jobs[self._kept :]]
        if not new:
            return rows, cols, work, declared, arrivals
        stacked = _stacked([edges[1:] for edges in new], self._kept)
        return (
            *(np.concatenate(pair) for pair in zip((rows, cols, work, declared), stacked)),
            np.concatenate((arrivals, np.fromiter((edges[0] for edges in new), np.intp, len(new)))),
        )


class Component:
    """One connected component of a job-site graph, as a long-lived store keeps it.

    ``key`` is the component's site-name set, ``sites`` its site indices
    (ascending), ``edges`` its :class:`SupportEdges` (positions within the
    component) and ``jobs`` their job names, in the instance's job order.
    ``cluster`` caches the sub-instance once a snapshot has built it
    (:meth:`Cluster._blocks`).  The store replaces a record whenever its
    component changes, so every snapshot carrying a record agrees with its
    cache.
    """

    __slots__ = ("key", "sites", "edges", "cluster")

    def __init__(self, key: frozenset[str], sites: tuple[int, ...], edges: SupportEdges):
        self.key = key
        self.sites = sites
        self.edges = edges
        self.cluster: Cluster | None = None

    @property
    def jobs(self) -> tuple[str, ...]:
        return self.edges.jobs
