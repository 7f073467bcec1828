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

Both ride on the one per-component pipeline
(:func:`repro.core.sharding.solve`): a call is
``solve(cluster, bases=<the pools>, memo=<the memo>)``, and the memo
counts the pipeline's lookups.

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
# Vestige: benchmarks/ledger/tracer.py looks ``solve_amf`` up here for its
# ``amf.solve`` span (a missing target nulls ``amf.fill_ms``), though nothing
# here calls it; the import goes when that harness may be edited.
from repro.core.amf import AmfDiagnostics, solve_amf  # noqa: F401
from repro.core.sharding import ShardBasisPool, solve
from repro.model.cluster import Cluster
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
        self._answered: dict[frozenset[str], ComponentEntry] = {}  # the last call's entries by component key
        self.__name__ = "amf-incremental"

    @property
    def shard_cache_entries(self) -> int:
        return len(self.memo)

    def reset(self) -> None:
        """Drop all warm state: the shard cut pools and the component memo."""
        self.bases.clear()
        self.memo.clear()

    def __call__(self, cluster: Cluster) -> Allocation:
        self.replayed = False
        misses = self.memo.misses
        try:
            # the pipeline adds every counter into the running sums
            run = solve(cluster, bases=self.bases, memo=self.memo, diagnostics=self.stats)
        except Exception:
            # A numerically broken basis must not poison the next attempt;
            # drop all warm state and let the fallback chain take this solve cold.
            self.reset()
            self.stats.failures += 1
            raise
        finally:
            self.stats.shard_cache_hits, self.stats.shard_cache_misses = self.memo.hits, self.memo.misses
        solved = self.memo.misses - misses  # each miss solved its component
        self.stats.last_shards = len(run.shards)
        self.stats.solves += bool(solved)
        self.stats.shard_solves += solved
        self.replayed = not solved
        self.stats.shard_evictions += self.memo.trim(keep=len(run.entries))
        # An entry not rendered yet takes the last answer's rendering of its
        # component key, so its render re-encodes only the jobs that moved.
        # Only the entries this answer uses keep their rendered jobs: those
        # are as large as the component, and a state churned past is seldom
        # revisited (a revisit renders its components again).
        answered = {sh.key: entry for sh, entry in run.entries}
        for key, entry in answered.items():
            last = self._answered.get(key)
            if entry.rendered is None and last is not None and last is not entry:
                entry.prior = last.prior if last.rendered is None else last.rendered
        used = set(answered.values())
        for entry in self._answered.values():
            if entry not in used:
                entry.rendered = entry.prior = None
        self._answered = answered
        self.components = tuple((sh.job_indices, sh.site_indices, entry) for sh, entry in run.entries)
        # every solved block passed the rule set; a replayed one rebound
        # since is carried for validate_allocation to check
        return Allocation._trusted(cluster, run.result, policy=self.__name__, unchecked=run.unchecked)
