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
identical), and it is the only way :func:`~repro.core.amf.solve_amf` and
:func:`~repro.core.amf.amf_levels` solve.

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
cause (``tests/core/test_sharding.py::TestFederationGap``).

Shards are solved serially in the calling thread: fanning them over a
process pool measured no faster (docs/performance.md, "Removed").
Per-shard :class:`~repro.core.amf.CutBasis` entries
(:class:`ShardBasisPool`) keep warm starts *local*: churn inside one
component never dilutes another component's cut pool, and the online
service caches solved shard matrices by sub-cluster fingerprint so a delta
re-solves only the shard it actually touches
(:class:`repro.service.solver.IncrementalAmfSolver`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._util import require
from repro.core.amf import AmfDiagnostics, CutBasis, _solve_matrix
from repro.model.cluster import Cluster

__all__ = [
    "Shard",
    "ShardResult",
    "ShardBasisPool",
    "connected_components",
    "decompose",
    "stitch",
    "solve_shards",
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
    """One solved shard: its sub-matrix plus how the solve went."""

    shard: Shard
    matrix: np.ndarray  # (shard jobs, shard sites)
    diagnostics: AmfDiagnostics
    seconds: float


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

    def __contains__(self, key: frozenset[str]) -> bool:
        return key in self._bases

    def items(self):
        """``(key, basis)`` pairs, LRU order (oldest first); read-only use."""
        return self._bases.items()

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
    floors: np.ndarray | None,
    basis: CutBasis | None,
    resource_totals: dict[str, float] | None = None,
) -> ShardResult:
    """Solve one shard, warm from (and recording into) its pooled ``basis``.

    ``resource_totals`` carries the *federation-wide* per-resource
    capacities for multi-resource shards — dominant-share denominators are
    global constants, which is exactly what makes MR leximin separable
    over components.
    """
    diag = AmfDiagnostics()
    t0 = time.perf_counter()
    # No obs wrapper here: the caller records the merged per-shard counters once.
    if shard.cluster.is_multiresource:
        from repro.multiresource.engine import solve_multiresource

        alloc = solve_multiresource(shard.cluster, floors, diag, basis, resource_totals=resource_totals)
        matrix = np.array(alloc.matrix)
    else:
        matrix = _solve_matrix(shard.cluster, floors, diag, basis)
    return ShardResult(shard=shard, matrix=matrix, diagnostics=diag, seconds=time.perf_counter() - t0)


def merge_diagnostics(dst: AmfDiagnostics, src: AmfDiagnostics) -> None:
    """Fold one shard's counters into the caller's record."""
    for f in dataclasses.fields(AmfDiagnostics):
        setattr(dst, f.name, getattr(dst, f.name) + getattr(src, f.name))


def solve_shards(
    shards: list[Shard],
    *,
    floors: np.ndarray | None = None,
    bases: ShardBasisPool | None = None,
    resource_totals: dict[str, float] | None = None,
) -> list[ShardResult]:
    """Solve every job-bearing shard, in order, in the calling thread.

    Results come back in ``shards`` order (job-less shards are skipped —
    their block is identically zero).  When ``bases`` is given each shard
    solves against its pooled basis, which seeds the solve and records the
    cuts it discovers; the allocation is the same with or without it.
    """
    results = []
    for sh in shards:
        if sh.n_jobs == 0:
            continue
        sub_floors = None if floors is None else np.asarray(floors, dtype=float)[list(sh.job_indices)]
        basis = bases.basis_for(sh.key) if bases is not None else None
        results.append(_solve_shard(sh, sub_floors, basis, resource_totals))
    return results
