"""Shard decomposition: AMF is separable over connected components.

The job-site bipartite graph (job ``i`` adjacent to the sites of its
support) splits a realistic cluster into *connected components* — groups of
sites that share no jobs with the rest.  AMF decomposes exactly over that
partition:

**Separability.**  Every constraint that cuts out the feasible region —
site capacity ``sum_i a_ij <= c_j``, per-edge demand cap
``a_ij <= d_ij`` and support ``a_ij = 0`` off-support — involves the sites
and jobs of a single component, so the feasible region is a *product* of
per-component regions and any feasible matrix is block-diagonal up to
permutation.  (Weighted) max-min fairness is a leximin objective over
per-job normalized aggregates, and the leximin optimum of a product region
is the concatenation of the per-factor leximin optima: raising the minimum
inside one component never trades off against another component, because
no constraint couples them.  Hence solving each component independently
and stitching the blocks back together *is* the AMF allocation of the whole
cluster (progressive filling over the whole graph just interleaves the
components' rounds; in exact arithmetic the frozen levels per job are
identical).  The split separates the same way: each add-on objective is
lexicographic over per-job times on a product of per-component
polytopes, and a proportional split mixes only the jobs of one site.
:func:`solve` is therefore the one pipeline of every policy but
``psmf``: decompose once, run a *levels rule* and a *split rule* on each
component, stitch.

**Why nothing fills the whole graph at once.**  Besides costing more
(every probe is a max-flow on the whole graph), it was less exact: the
parametric oracle accepts a probe at ``feq(delivered, demanded, scale=n +
m)`` of the *probed* cluster, so the accept window grows with the whole
federation.  On a 384-job, 96-site federation of 24 regions
(``tests/core/data/federation_gap.json``) the whole-graph fill froze one
region's 14 tied jobs anywhere in 1.5711675–1.5712625, where a sequential
LP puts all of them at 1.5712537; per component the solve matches that LP
to 4e-15 in every region, and capping the whole-graph scale at 100 (one
region's ``n + m`` is about 20) closes the gap to 1.5e-13, confirming the
cause (``tests/core/test_sharding.py::TestFederationGap``).  The add-on's
circulation window grows the same way: there the whole-cluster add-on
missed its levels by up to 3.2e-4, per component by 4.4e-15.

Shards are solved serially in the calling thread: fanning them over a
process pool measured no faster (docs/performance.md, "Removed").
Per-shard :class:`~repro.core.amf.CutBasis` entries
(:class:`ShardBasisPool`) keep warm starts *local*: churn inside one
component never dilutes another component's cut pool, and a memo passed
to :func:`solve` answers components by sub-cluster fingerprint, so the
online service re-solves only the shard a delta actually touches
(:class:`repro.service.solver.IncrementalAmfSolver`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro._util import require
from repro.core.allocation import check_matrix
from repro.core.amf import AmfDiagnostics, CutBasis, _fill_levels, _flow_split
from repro.core.completion import SPLITS
from repro.model.cluster import Cluster
from repro.obs.instruments import record_shard_decomposition, record_shard_solve
from repro.obs.tracing import span

__all__ = [
    "Shard",
    "ShardResult",
    "ShardBasisPool",
    "Solved",
    "connected_components",
    "decompose",
    "stitch",
    "solve",
]


@dataclass(frozen=True, slots=True)
class Shard:
    """One connected component of the job-site graph.

    ``key`` is the component's *site-name set* — the stable identity used
    for per-shard warm-start bases and cache routing: jobs churn through a
    component, but the sites anchoring it persist.  ``cluster`` is the
    sub-instance (sites and jobs both keep their original relative order,
    so its fingerprint is deterministic).
    """

    key: frozenset[str]
    site_indices: tuple[int, ...]
    job_indices: tuple[int, ...]
    cluster: Cluster

    @property
    def n_jobs(self) -> int:
        return self.cluster.n_jobs


@dataclass(slots=True)
class ShardResult:
    """One solved shard: its levels and split, and how long they took.  The
    split passed :func:`~repro.core.allocation.check_matrix` against the
    shard's sub-cluster (``checked``, as a memo entry records it)."""

    levels: np.ndarray  # (shard jobs,)
    matrix: np.ndarray | None  # (shard jobs, shard sites), read-only; None under split=None
    seconds: float
    checked = True


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_components(
    n_sites: int, supports: Iterable[Sequence[int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(site positions, job positions)`` of each connected component.

    ``supports`` lists each job's site positions.  Every site lands in
    exactly one component (job-less site groups included), every job in the
    component of its support; components are ordered by their smallest site
    position, and positions ascend inside each.
    """
    uf = _UnionFind(n_sites)
    # each job's first-listed site stands for it: a component's root is its
    # smallest site position whichever order the unions happen in
    anchors = []
    for first, *rest in supports:
        anchors.append(first)
        for j in rest:
            uf.union(first, j)
    site_groups: dict[int, list[int]] = {}
    for j in range(n_sites):
        site_groups.setdefault(uf.find(j), []).append(j)
    job_groups: dict[int, list[int]] = {root: [] for root in site_groups}
    for i, first in enumerate(anchors):
        job_groups[uf.find(first)].append(i)
    return [(tuple(site_groups[root]), tuple(job_groups[root])) for root in sorted(site_groups)]


def decompose(cluster: Cluster) -> list[Shard]:
    """Partition ``cluster`` into connected components of the job-site graph.

    Returns a true partition: every site lands in exactly one shard
    (job-less site groups become shards with zero jobs), every job in the
    shard of its support.  Shards are ordered by their smallest site index,
    so the decomposition is deterministic for a given cluster.

    A :class:`~repro.service.state.ClusterState` snapshot carries the
    partition the state keeps between versions, and gets it back without a
    walk (sub-instances of untouched components included); any other
    cluster is walked here, which makes this walk the oracle for that one.
    """
    blocks = cluster._blocks()
    if blocks is not None:
        return [Shard(part.key, part.sites, job_idx, sub) for part, job_idx, sub in blocks]
    groups = connected_components(
        cluster.n_sites, ([cluster.site_index(name) for name in job.workload] for job in cluster.jobs)
    )
    return [
        Shard(
            key=frozenset(cluster.sites[j].name for j in site_idx),
            site_indices=site_idx,
            job_indices=job_idx,
            # one component spanning every site is the cluster itself:
            # same sites, jobs and order, so the same fingerprint and views
            cluster=cluster if len(groups) == 1 else cluster._subset(site_idx, job_idx),
        )
        for site_idx, job_idx in groups
    ]


def stitch(cluster: Cluster, results: list[tuple[Shard, np.ndarray]]) -> np.ndarray:
    """Assemble per-shard sub-matrices into the full ``(n, m)`` allocation."""
    matrix = np.zeros((cluster.n_jobs, cluster.n_sites))
    for shard, sub in results:
        if shard.job_indices:
            rows = np.array(shard.job_indices, dtype=np.intp)[:, None]
            matrix[rows, np.array(shard.site_indices, dtype=np.intp)] = sub
    return matrix


class ShardBasisPool:
    """Bounded LRU of per-shard :class:`CutBasis` keyed by site-name set.

    A component's bottleneck cuts live with the component: warming shard A
    never replays cuts that only ever bound shard B.  When components merge
    under churn (a new job bridges two site groups) the fresh key misses —
    the new basis is seeded from every stored basis whose key is a *subset*
    of the merged key, because a Gale-Hoffman site cut stays valid on any
    cluster containing those sites (see :class:`CutBasis`).  Each basis
    also keeps its component's last solved split; a merged key starts
    without one.
    """

    __slots__ = ("_bases", "max_shards", "max_cuts")

    def __init__(self, max_shards: int = 128, max_cuts: int = 64):
        require(max_shards >= 1, "max_shards must be at least 1")
        self.max_shards = max_shards
        self.max_cuts = max_cuts
        self._bases: dict[frozenset[str], CutBasis] = {}

    def __len__(self) -> int:
        return len(self._bases)

    @property
    def total_cuts(self) -> int:
        return sum(len(b) for b in self._bases.values())

    def clear(self) -> None:
        self._bases.clear()

    def basis_for(self, key: frozenset[str]) -> CutBasis:
        """The shard's basis (created — and seeded from sub-keys — on miss)."""
        basis = self._bases.pop(key, None)
        if basis is None:
            basis = CutBasis(max_cuts=self.max_cuts)
            for stored_key, stored in self._bases.items():
                if stored_key < key:
                    for sites in stored.sets():
                        basis.record(sites)
        self._bases[key] = basis  # re-insertion = LRU refresh
        while len(self._bases) > self.max_shards:
            self._bases.pop(next(iter(self._bases)))
        return basis


def _solve_shard(
    shard: Shard,
    split: str | None,
    floors: np.ndarray | None,
    levels: np.ndarray | None,
    bases: ShardBasisPool | None,
    resource_totals: dict[str, float] | None,
    diag: AmfDiagnostics,
) -> ShardResult:
    """The per-component body, given the whole cluster's ``floors`` and
    ``levels``.  Levels rule: the caller's ``levels``, else progressive
    filling above ``floors`` warm from the shard's basis in ``bases``, or
    the AMRF engine on a vector component (under the federation's
    ``resource_totals``: global dominant-share denominators are what make
    MR leximin separable).  Split rule: ``"flow"`` is the levels rule's own
    split, ``None`` none, and a :data:`~repro.core.completion.SPLITS` rule
    re-splits the levels; those rules read scalar capacities, so a vector
    component refuses them.  The split is held to the rule set
    (:func:`~repro.core.allocation.check_matrix`) against the shard's
    sub-cluster, scaled by the shard's own job count, and normalized there,
    once.  The counters go to the run's ``diag``."""
    t0 = time.perf_counter()
    sub, idx = shard.cluster, list(shard.job_indices)
    require(
        split not in SPLITS or not sub.is_multiresource,
        f"the {split!r} split needs scalar capacities; use solve_amf for resource vectors",
    )
    floors = None if floors is None else floors[idx]
    levels = None if levels is None else levels[idx]
    basis = None if bases is None else bases.basis_for(shard.key)
    matrix = None
    if levels is None and sub.is_multiresource:
        from repro.multiresource.engine import solve_multiresource

        matrix = check_matrix(sub, solve_multiresource(sub, floors, diag, basis, resource_totals=resource_totals))
        return ShardResult(matrix.sum(axis=1), matrix, time.perf_counter() - t0)
    if levels is None:
        levels, oracle = _fill_levels(sub, floors, diag, basis)
        if split == "flow":
            matrix = _flow_split(sub, levels, oracle, basis)
    if split in SPLITS:
        matrix = SPLITS[split](sub, levels)
    if matrix is not None:
        matrix = check_matrix(sub, matrix)
    return ShardResult(levels, matrix, time.perf_counter() - t0)


@dataclass(slots=True)
class Solved:
    """One run of :func:`solve`."""

    shards: list[Shard]  # the decomposition, job-less components included
    entries: list[tuple[Shard, Any]]  # each job-bearing component and its memo entry (or ShardResult)
    result: np.ndarray  # (n,) levels under split=None, else the stitched (n, m) matrix

    @property
    def unchecked(self) -> list[tuple[Shard, Any]]:
        """The entries whose block is not known-good: memo entries rebound
        since they passed the rule set (every block solved here passed it)."""
        return [(sh, entry) for sh, entry in self.entries if not entry.checked]


def solve(
    cluster: Cluster,
    split: str | None = "flow",
    *,
    floors: np.ndarray | None = None,
    levels: np.ndarray | None = None,
    bases: ShardBasisPool | None = None,
    memo=None,
    diagnostics: AmfDiagnostics | None = None,
) -> Solved:
    """The one per-component pipeline: decompose ``cluster`` once, run
    :func:`_solve_shard` on each job-bearing component, and stitch.

    Every block solved here passed the rule set against its component
    (:func:`_solve_shard`), so the stitched matrix needs no second,
    full-width check: :meth:`Allocation._trusted
    <repro.core.allocation.Allocation._trusted>` wraps it, carrying
    :attr:`Solved.unchecked`.

    ``memo`` answers components seen before: ``memo.get(key)`` returns an
    entry whose ``matrix`` is the block and whose ``checked`` records that
    the block passed the rule set, or ``None``; a solved (checked) block is
    stored by ``memo.put(key, matrix)``, which returns its entry.  ``key``
    is the component's fingerprint, plus the federation's resource totals
    on vector clusters (the same sub-cluster under other totals solves to
    another matrix).  A memo serves the AMF flow split above no floors.
    """
    if floors is not None:
        floors = np.asarray(floors, dtype=float)
        require(floors.shape == (cluster.n_jobs,), "floors must have one entry per job")
    require(split in SPLITS or (levels is None and split in (None, "flow")), f"no split rule {split!r} here")
    require(memo is None or (split == "flow" and floors is None), "a memo answers the AMF flow split only")
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    shards = decompose(cluster)
    record_shard_decomposition(len(shards))
    totals = cluster.resource_totals if cluster.is_multiresource else None
    tag = "" if totals is None else "|T:" + ",".join(f"{res}={amount.hex()}" for res, amount in sorted(totals.items()))
    entries: list[tuple[Shard, Any]] = []
    with span("amf.solve", variant=split or "levels", jobs=cluster.n_jobs, sites=cluster.n_sites, shards=len(shards)):
        for sh in shards:
            if not sh.n_jobs:
                continue
            key = None if memo is None else sh.cluster.fingerprint() + tag
            entry = None if memo is None else memo.get(key)
            if entry is None:
                entry = _solve_shard(sh, split, floors, levels, bases, totals, diag)
                record_shard_solve(sh.n_jobs, entry.seconds)
                if memo is not None:
                    entry = memo.put(key, entry.matrix)
            entries.append((sh, entry))
    if split is None:
        out = np.zeros(cluster.n_jobs)
        for sh, res in entries:
            out[list(sh.job_indices)] = res.levels
        return Solved(shards, entries, out)
    return Solved(shards, entries, stitch(cluster, [(sh, entry.matrix) for sh, entry in entries]))
