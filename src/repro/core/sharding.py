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
and stitching the blocks back together *is* the monolithic AMF allocation
(progressive filling just interleaves the components' rounds; the frozen
levels per job are identical).

Why bother: the cutting-plane solver's cost is superlinear in the
component size (every feasibility probe is a max-flow on the whole graph),
so solving K small blocks is cheaper than one coupled instance even
serially — and the blocks are embarrassingly parallel, so the PR 3 fork
pool (:func:`repro.analysis.parallel.parallel_map`) fans them out with
``workers=``.  Per-shard :class:`~repro.core.amf.CutBasis` entries
(:class:`ShardBasisPool`) keep warm starts *local*: churn inside one
component never dilutes another component's cut pool, and the online
service caches solved shard matrices by sub-cluster fingerprint so a delta
re-solves only the shard it actually touches
(:class:`repro.service.solver.IncrementalAmfSolver` with ``sharded=True``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.analysis.parallel import parallel_map
from repro.core.allocation import Allocation
from repro.core.amf import (
    AmfDiagnostics,
    CutBasis,
    _fill_levels,
    _finalize_matrix,
    _realize,
)
from repro.model.cluster import Cluster
from repro.obs.instruments import record_amf, record_shard_decomposition, record_shard_solve
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER, span

__all__ = [
    "Shard",
    "ShardResult",
    "ShardBasisPool",
    "decompose",
    "stitch",
    "solve_shards",
    "solve_amf_sharded",
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
    discovered_cuts: tuple[frozenset[str], ...]  # basis contents after the solve


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


def decompose(cluster: Cluster) -> list[Shard]:
    """Partition ``cluster`` into connected components of the job-site graph.

    Returns a true partition: every site lands in exactly one shard
    (job-less site groups become shards with zero jobs), every job in the
    shard of its support.  Shards are ordered by their smallest site index,
    so the decomposition is deterministic for a given cluster.
    """
    uf = _UnionFind(cluster.n_sites)
    # each job's first-listed site stands for it: a component's root is its
    # smallest site index whichever order the unions happen in
    anchors = []
    for job in cluster.jobs:
        first, *rest = (cluster.site_index(name) for name in job.workload)
        anchors.append(first)
        for j in rest:
            uf.union(first, j)
    site_groups: dict[int, list[int]] = {}
    for j in range(cluster.n_sites):
        site_groups.setdefault(uf.find(j), []).append(j)
    job_groups: dict[int, list[int]] = {root: [] for root in site_groups}
    for i, first in enumerate(anchors):
        job_groups[uf.find(first)].append(i)
    shards: list[Shard] = []
    for root in sorted(site_groups):
        site_idx = tuple(site_groups[root])
        job_idx = tuple(job_groups[root])
        shards.append(
            Shard(
                key=frozenset(cluster.sites[j].name for j in site_idx),
                site_indices=site_idx,
                job_indices=job_idx,
                # one component spanning every site is the cluster itself:
                # same sites, jobs and order, so the same fingerprint and views
                cluster=cluster if len(site_groups) == 1 else cluster._subset(site_idx, job_idx),
            )
        )
    return shards


def stitch(cluster: Cluster, results: list[tuple[Shard, np.ndarray]]) -> np.ndarray:
    """Assemble per-shard sub-matrices into the full ``(n, m)`` allocation."""
    matrix = np.zeros((cluster.n_jobs, cluster.n_sites))
    for shard, sub in results:
        if shard.job_indices:
            matrix[np.ix_(shard.job_indices, shard.site_indices)] = sub
    return matrix


class ShardBasisPool:
    """Bounded LRU of per-shard :class:`CutBasis` keyed by site-name set.

    A component's bottleneck cuts live with the component: warming shard A
    never replays cuts that only ever bound shard B.  When components merge
    under churn (a new job bridges two site groups) the fresh key misses —
    the new basis is seeded from every stored basis whose key is a *subset*
    of the merged key, because a Gale-Hoffman site cut stays valid on any
    cluster containing those sites (see :class:`CutBasis`).
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
    seed_cuts: tuple[frozenset[str], ...],
    max_cuts: int,
    resource_totals: dict[str, float] | None = None,
) -> ShardResult:
    """Solve one shard against a *local* basis clone.

    The clone keeps the protocol identical under fork fan-out (a child
    cannot mutate the parent's pool) and in the serial fallback: the solve
    seeds from ``seed_cuts``, and whatever the local basis holds afterwards
    is returned for the caller to fold back into the pooled basis.

    ``resource_totals`` carries the *federation-wide* per-resource
    capacities for multi-resource shards — dominant-share denominators are
    global constants, which is exactly what makes MR leximin separable
    over components.
    """
    basis = CutBasis(max_cuts=max_cuts)
    for sites in seed_cuts:
        basis.record(sites)
    diag = AmfDiagnostics()
    t0 = time.perf_counter()
    # The monolithic pipeline minus its obs wrapper: per-shard metrics are
    # recorded once by the parent (merged delta), never in a fork child
    # whose registry copy is discarded — serial and parallel runs must
    # leave identical counters behind.
    if shard.cluster.is_multiresource:
        from repro.multiresource.engine import solve_multiresource

        alloc = solve_multiresource(shard.cluster, floors, diag, basis, resource_totals=resource_totals)
        matrix = np.array(alloc.matrix)
    else:
        levels, adapter = _fill_levels(shard.cluster, floors, diag, basis)
        matrix = adapter.realize(levels) if adapter is not None else None
        if matrix is not None:
            matrix = _finalize_matrix(shard.cluster, levels, matrix)
        else:
            matrix = _realize(shard.cluster, levels)
    seconds = time.perf_counter() - t0
    return ShardResult(
        shard=shard,
        matrix=matrix,
        diagnostics=diag,
        seconds=seconds,
        discovered_cuts=basis.sets(),
    )


def merge_diagnostics(dst: AmfDiagnostics, src: AmfDiagnostics) -> None:
    """Fold one shard's counters into the caller's record."""
    for f in dataclasses.fields(AmfDiagnostics):
        setattr(dst, f.name, getattr(dst, f.name) + getattr(src, f.name))


def solve_shards(
    shards: list[Shard],
    *,
    floors: np.ndarray | None = None,
    bases: ShardBasisPool | None = None,
    workers: int | None = None,
    resource_totals: dict[str, float] | None = None,
) -> list[ShardResult]:
    """Solve every job-bearing shard; serial or fanned over the fork pool.

    Results come back in ``shards`` order (job-less shards are skipped —
    their block is identically zero).  When ``bases`` is given each shard
    seeds from its pooled basis and its discoveries are recorded back, so
    the pool warms regardless of worker count; the allocation itself is
    bit-identical under any ``workers`` (each shard's solve is a pure
    function of its sub-cluster, floors and seed cuts).
    """
    solvable = [sh for sh in shards if sh.n_jobs > 0]
    if not solvable:
        return []
    max_cuts = bases.max_cuts if bases is not None else 64
    seeds: list[tuple[frozenset[str], ...]] = []
    sub_floors: list[np.ndarray | None] = []
    for sh in solvable:
        seeds.append(bases.basis_for(sh.key).sets() if bases is not None else ())
        sub_floors.append(
            None if floors is None else np.asarray(floors, dtype=float)[list(sh.job_indices)]
        )

    def solve_one(idx: int) -> ShardResult:
        return _solve_shard(solvable[idx], sub_floors[idx], seeds[idx], max_cuts, resource_totals)

    results = parallel_map(solve_one, range(len(solvable)), workers=workers)
    if bases is not None:
        for res in results:
            pooled = bases.basis_for(res.shard.key)
            for sites in res.discovered_cuts:
                pooled.record(sites)
    return results


def solve_amf_sharded(
    cluster: Cluster,
    floors: np.ndarray | None = None,
    diagnostics: AmfDiagnostics | None = None,
    bases: ShardBasisPool | None = None,
    workers: int | None = None,
) -> Allocation:
    """AMF via shard decomposition — same allocation, component-local cost.

    Drop-in for :func:`~repro.core.amf.solve_amf` (also reachable as
    ``solve_amf(..., shards=True)``): decompose, solve each component
    independently (``workers`` > 1 fans them over the fork pool), stitch
    the blocks.  ``bases`` replaces the monolithic ``basis`` with a
    :class:`ShardBasisPool` so warm starts stay component-local.  Purely a
    cost optimization — the separability argument in the module docstring
    is pinned by the hypothesis equivalence suite in
    ``tests/core/test_sharding.py``.
    """
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    if floors is not None:
        floors = np.asarray(floors, dtype=float)
        require(floors.shape == (cluster.n_jobs,), "floors must have one entry per job")
    shards = decompose(cluster)
    record_shard_decomposition(len(shards))
    totals = cluster.resource_totals if cluster.is_multiresource else None
    observing = REGISTRY.enabled or TRACER.enabled
    before = dataclasses.replace(diag) if observing else None
    with span(
        "amf.solve", variant="sharded", jobs=cluster.n_jobs, sites=cluster.n_sites, shards=len(shards)
    ):
        results = solve_shards(shards, floors=floors, bases=bases, workers=workers, resource_totals=totals)
    for res in results:
        merge_diagnostics(diag, res.diagnostics)
        record_shard_solve(res.shard.n_jobs, res.seconds)
    if observing:
        record_amf(diag, since=before)
    matrix = stitch(cluster, [(res.shard, res.matrix) for res in results])
    policy = "amrf" if cluster.is_multiresource else "amf"
    return Allocation(cluster, matrix, policy=policy if floors is None else policy + "+floors")
