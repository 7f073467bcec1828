"""Warm-started incremental AMF: the service's primary solver.

A long-lived daemon re-solves AMF on clusters that differ from the previous
one by a handful of deltas, so the bottleneck structure — which job sets
hit which site sets — barely moves between solves.
:class:`IncrementalAmfSolver` exploits that in two ways, on the same
per-component decomposition every AMF solve uses (:mod:`repro.core.sharding`):

* each component gets its *own* warm cut pool
  (:class:`~repro.core.sharding.ShardBasisPool`): cuts discovered once are
  replayed (revalidated against the current capacities) instead of
  rediscovered through extra max-flow feasibility probes, and a component
  with replayed cuts certifies its whole fill with one probe whose flow
  starts from the split it was served last;
* each component's solved sub-matrix is kept in the *component memo*
  (:class:`~repro.service.cache.AllocationCache`), keyed
  by sub-cluster fingerprint (plus the federation's resource totals on
  vector clusters), so a delta that touches one component re-solves that
  component alone and replays every other shard's matrix verbatim.  This is
  the "delta→shard routing" the service relies on: a shard's fingerprint
  changes iff the delta touched it.  The memo is also the service's only
  memory of solved states: a revisited state solves no component at all.

The solver is a plain ``Cluster -> Allocation`` callable, so it drops into
:class:`~repro.core.policies.ResilientPolicy` as the primary of the chain

    incremental AMF -> cold AMF -> per-site max-min -> proportional

which is how the daemon wires it (:mod:`repro.service.daemon`): a failed
warm solve *clears* the shard pool and component memo and degrades to a cold
solve, preserving the degraded-mode guarantee of docs/robustness.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
# Vestige with one reader: benchmarks/ledger/tracer.py patches
# ``repro.service.solver.solve_amf`` for its ``amf.solve`` span, and a missing
# target nulls ``amf.fill_ms`` on every workload.  Nothing here calls it; the
# import goes when that harness may be edited.
from repro.core.amf import AmfDiagnostics, solve_amf  # noqa: F401
from repro.core.sharding import (
    Shard,
    ShardBasisPool,
    decompose,
    merge_diagnostics,
    solve_shards,
    stitch,
)
from repro.model.cluster import Cluster
from repro.obs.instruments import record_shard_decomposition, record_shard_solve
from repro.obs.tracing import span
from repro.service.cache import AllocationCache, ComponentEntry

__all__ = ["IncrementalStats", "IncrementalAmfSolver"]


@dataclass(slots=True)
class IncrementalStats(AmfDiagnostics):
    """Every solve's :class:`~repro.core.amf.AmfDiagnostics`, summed, plus the
    solver's call and component-memo counters."""

    solves: int = 0  # calls that solved at least one component
    failures: int = 0  # warm solves that raised (warm state was reset)
    shard_solves: int = 0  # components actually solved (memo misses)
    shard_cache_hits: int = 0  # components replayed from the memo
    shard_cache_misses: int = 0
    shard_evictions: int = 0  # memo entries dropped by its LRU bound
    last_shards: int = 0  # components in the most recent decomposition


class IncrementalAmfSolver:
    """Per-component AMF with warm cut pools and a component memo.

    Parameters
    ----------
    max_cuts:
        LRU bound on each per-shard cut pool (see :class:`~repro.core.amf.CutBasis`).
    shard_cache_size:
        LRU bound on the component memo (:attr:`memo`, one entry per
        distinct component state seen); a call with more components than
        the bound keeps all of its own.

    After each call :attr:`replayed` says whether every component was
    answered from the memo, i.e. the call solved nothing, and
    :attr:`components` lists the call's job-bearing components as ``(job
    indices, site indices, memo entry)``: what the renderer reuses
    (:func:`repro.service.schema.allocation_payload`).
    """

    def __init__(self, max_cuts: int = 64, *, shard_cache_size: int = 128):
        self.bases = ShardBasisPool(max_cuts=max_cuts)
        self.memo = AllocationCache(max_entries=shard_cache_size)
        self.stats = IncrementalStats()
        self.replayed = False
        self.components: tuple[tuple[tuple[int, ...], tuple[int, ...], ComponentEntry], ...] = ()
        self.__name__ = "amf-incremental"

    @property
    def shard_cache_entries(self) -> int:
        return len(self.memo)

    def reset(self) -> None:
        """Drop all warm state: the shard cut pools and the component memo."""
        self.bases.clear()
        self.memo.clear()

    def __call__(self, cluster: Cluster) -> Allocation:
        diag = AmfDiagnostics()
        self.replayed = False
        try:
            return self._solve(cluster, diag)
        except Exception:
            # A numerically broken basis must not poison the next attempt;
            # drop all warm state and let the fallback chain take this solve cold.
            self.reset()
            self.stats.failures += 1
            raise
        finally:
            merge_diagnostics(self.stats, diag)

    def _solve(self, cluster: Cluster, diag: AmfDiagnostics) -> Allocation:
        shards = decompose(cluster)
        record_shard_decomposition(len(shards))
        self.stats.last_shards = len(shards)
        # Multi-resource shards are only separable *given* the federation's
        # resource totals (the dominant-share denominators), so the totals
        # ride along to every shard solve — and into the memo key, because
        # the same sub-cluster under different global totals solves to a
        # different matrix.
        totals = cluster.resource_totals if cluster.is_multiresource else None
        totals_tag = (
            ""
            if totals is None
            else "|T:" + ",".join(f"{res}={amount.hex()}" for res, amount in sorted(totals.items()))
        )
        pieces: list[tuple[Shard, ComponentEntry]] = []
        with span(
            "amf.solve", variant="sharded", jobs=cluster.n_jobs, sites=cluster.n_sites, shards=len(shards)
        ):
            misses = []
            for sh in shards:
                if sh.n_jobs == 0:
                    continue
                entry = self.memo.get(sh.cluster.fingerprint() + totals_tag)
                if entry is not None:
                    pieces.append((sh, entry))
                else:
                    misses.append(sh)
            self.stats.shard_cache_hits += len(pieces)
            self.stats.shard_cache_misses += len(misses)
            if misses:
                self.stats.solves += 1
            results = solve_shards(misses, bases=self.bases, resource_totals=totals)
            for res in results:
                merge_diagnostics(diag, res.diagnostics)
                record_shard_solve(res.shard.n_jobs, res.seconds)
                self.stats.shard_solves += 1
                pieces.append((res.shard, self.memo.put(res.shard.cluster.fingerprint() + totals_tag, res.matrix)))
            self.stats.shard_evictions += self.memo.trim(keep=len(pieces))
        matrix = stitch(cluster, [(sh, entry.matrix) for sh, entry in pieces])
        self.replayed = not misses
        # Only the entries this answer uses keep their rendered jobs: those
        # are as large as the component, and a state churned past is seldom
        # revisited (a revisit renders its components again).
        used = {entry for _, entry in pieces}
        for *_, entry in self.components:
            if entry not in used:
                entry.rendered = None
        self.components = tuple((sh.job_indices, sh.site_indices, entry) for sh, entry in pieces)
        return Allocation(cluster, matrix, policy=self.__name__)
