"""Warm-started incremental AMF: the service's primary solver.

A long-lived daemon re-solves AMF on clusters that differ from the previous
one by a handful of deltas, so the bottleneck structure — which job sets
hit which site sets — barely moves between solves.
:class:`IncrementalAmfSolver` exploits that in two ways, on the same
per-component decomposition every AMF solve uses (:mod:`repro.core.sharding`):

* each component gets its *own* warm cut pool
  (:class:`~repro.core.sharding.ShardBasisPool`): cuts discovered once are
  replayed (revalidated against the current capacities) instead of
  rediscovered through extra max-flow feasibility probes;
* each component's solved sub-matrix is cached by sub-cluster fingerprint,
  so a delta that touches one component re-solves that component alone and
  replays every other shard's matrix verbatim.  This is the "delta→shard
  routing" the service relies on: a shard's fingerprint changes iff the
  delta touched it.

The solver is a plain ``Cluster -> Allocation`` callable, so it drops into
:class:`~repro.core.policies.ResilientPolicy` as the primary of the chain

    incremental AMF -> cold AMF -> per-site max-min -> proportional

which is how the daemon wires it (:mod:`repro.service.daemon`): a failed
warm solve *clears* the shard pool and matrix cache and degrades to a cold
solve, preserving the degraded-mode guarantee of docs/robustness.md.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.core.allocation import Allocation
# Vestige with one reader: benchmarks/ledger/tracer.py patches
# ``repro.service.solver.solve_amf`` for its ``amf.solve`` span, and a missing
# target nulls ``amf.fill_ms`` on every workload.  Nothing here calls it; the
# import goes when that harness may be edited.
from repro.core.amf import AmfDiagnostics, solve_amf  # noqa: F401
from repro.core.sharding import (
    ShardBasisPool,
    decompose,
    merge_diagnostics,
    solve_shards,
    stitch,
)
from repro.model.cluster import Cluster
from repro.obs.instruments import (
    record_amf,
    record_shard_cache,
    record_shard_decomposition,
    record_shard_solve,
)
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER, span

__all__ = ["IncrementalStats", "IncrementalAmfSolver"]


@dataclass(slots=True)
class IncrementalStats:
    """Accumulated warm-start effectiveness counters."""

    solves: int = 0
    failures: int = 0  # warm solves that raised (basis was reset)
    feasibility_solves: int = 0
    cuts_generated: int = 0  # cuts still discovered despite warm start
    warm_cuts_seeded: int = 0  # cuts replayed from the basis
    rounds: int = 0
    # parametric-oracle reuse breakdown
    probes_early_accept: int = 0  # probes answered by feasible-dominance
    probes_warm: int = 0  # flow solves continuing from existing flow
    probes_cold: int = 0  # flow solves starting from zero flow
    probe_rollbacks: int = 0  # probes that cancelled flow before solving
    # shard decomposition
    shard_solves: int = 0  # components actually solved (cache misses)
    shard_cache_hits: int = 0  # components replayed from the matrix cache
    shard_cache_misses: int = 0
    last_shards: int = 0  # components in the most recent decomposition
    # AMRF multi-resource engine (all zero on scalar / reduced solves)
    amrf_rounds: int = 0
    amrf_lps: int = 0
    amrf_probes: int = 0
    amrf_probes_skipped: int = 0

    @property
    def probes_reused(self) -> int:
        """Probes that avoided a cold flow solve (the warm-reuse headline)."""
        return self.probes_early_accept + self.probes_warm

    def merge(self, diag: AmfDiagnostics) -> None:
        self.feasibility_solves += diag.feasibility_solves
        self.cuts_generated += diag.cuts_generated
        self.warm_cuts_seeded += diag.warm_cuts_seeded
        self.rounds += diag.rounds
        self.probes_early_accept += diag.probes_early_accept
        self.probes_warm += diag.probes_warm
        self.probes_cold += diag.probes_cold
        self.probe_rollbacks += diag.probe_rollbacks
        self.amrf_rounds += diag.amrf_rounds
        self.amrf_lps += diag.amrf_lps
        self.amrf_probes += diag.amrf_probes
        self.amrf_probes_skipped += diag.amrf_probes_skipped


class IncrementalAmfSolver:
    """Per-component AMF with warm cut pools and a shard-matrix memo.

    Parameters
    ----------
    max_cuts:
        LRU bound on each per-shard cut pool (see :class:`~repro.core.amf.CutBasis`).
    shard_cache_size:
        LRU bound on the per-shard matrix cache (entries are sub-cluster
        fingerprints, i.e. one per distinct component state seen).
    """

    def __init__(self, max_cuts: int = 64, *, shard_cache_size: int = 256):
        require(shard_cache_size >= 1, "shard_cache_size must be at least 1")
        self.shard_cache_size = shard_cache_size
        self.bases = ShardBasisPool(max_cuts=max_cuts)
        self._shard_matrices: OrderedDict[str, np.ndarray] = OrderedDict()
        self.stats = IncrementalStats()
        self.__name__ = "amf-incremental"

    @property
    def shard_cache_entries(self) -> int:
        return len(self._shard_matrices)

    def __call__(self, cluster: Cluster) -> Allocation:
        diag = AmfDiagnostics()
        self.stats.solves += 1
        try:
            alloc = self._solve(cluster, diag)
        except Exception:
            # A numerically broken basis must not poison the next attempt;
            # drop all warm state and let the fallback chain take this solve cold.
            self.bases.clear()
            self._shard_matrices.clear()
            self.stats.failures += 1
            self.stats.merge(diag)
            raise
        self.stats.merge(diag)
        return alloc

    def _solve(self, cluster: Cluster, diag: AmfDiagnostics) -> Allocation:
        shards = decompose(cluster)
        record_shard_decomposition(len(shards))
        self.stats.last_shards = len(shards)
        observing = REGISTRY.enabled or TRACER.enabled
        before = dataclasses.replace(diag) if observing else None
        # Multi-resource shards are only separable *given* the federation's
        # resource totals (the dominant-share denominators), so the totals
        # ride along to every shard solve — and into the cache key, because
        # the same sub-cluster under different global totals solves to a
        # different matrix.
        totals = cluster.resource_totals if cluster.is_multiresource else None
        totals_tag = (
            ""
            if totals is None
            else "|T:" + ",".join(f"{res}={amount.hex()}" for res, amount in sorted(totals.items()))
        )
        pieces: list[tuple] = []
        with span(
            "amf.solve", variant="sharded", jobs=cluster.n_jobs, sites=cluster.n_sites, shards=len(shards)
        ):
            misses = []
            hits = 0
            for sh in shards:
                if sh.n_jobs == 0:
                    continue
                key = sh.cluster.fingerprint() + totals_tag
                cached = self._shard_matrices.get(key)
                if cached is not None:
                    self._shard_matrices.move_to_end(key)
                    hits += 1
                    pieces.append((sh, cached))
                else:
                    misses.append(sh)
            self.stats.shard_cache_hits += hits
            self.stats.shard_cache_misses += len(misses)
            record_shard_cache(hits=hits, misses=len(misses))
            results = solve_shards(misses, bases=self.bases, resource_totals=totals)
            for res in results:
                merge_diagnostics(diag, res.diagnostics)
                record_shard_solve(res.shard.n_jobs, res.seconds)
                self.stats.shard_solves += 1
                self._shard_matrices[res.shard.cluster.fingerprint() + totals_tag] = res.matrix
                while len(self._shard_matrices) > self.shard_cache_size:
                    self._shard_matrices.popitem(last=False)
                pieces.append((res.shard, res.matrix))
        if observing:
            record_amf(diag, since=before)
        matrix = stitch(cluster, pieces)
        return Allocation(cluster, matrix, policy=self.__name__)
