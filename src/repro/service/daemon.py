"""The allocation daemon: state + batching + resilient warm solver.

:class:`AllocationService` is the synchronous core of the online service —
everything the HTTP front-end (:mod:`repro.service.aio`) does is a thin
JSON wrapper over these methods, and the closed-loop experiment X9 drives the
same object directly with a virtual clock.  One re-solve pipeline:

1. deltas land in a :class:`~repro.service.batching.CoalescingQueue`;
2. when the batch is due (or a caller demands freshness) it is applied to
   the :class:`~repro.service.state.ClusterState` event by event;
3. the :class:`~repro.core.policies.ResilientPolicy` chain
   ``incremental AMF -> cold AMF -> psmf -> proportional`` answers the
   resulting snapshot.  The warm solver replays every component it finds in
   its component memo (keyed by component fingerprint) and solves the rest
   from its cut pools, so a revisited state solves no component and is
   served as ``cached``.

All public methods are thread-safe (one reentrant lock around the whole
pipeline): correctness first — the solver itself is the bottleneck, not
the lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro._util import require
from repro.core.allocation import Allocation
from repro.core.policies import ResilienceStats, ResilientPolicy
from repro.obs import instruments
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER, span
from repro.service.batching import CoalescingQueue
from repro.service.journal import WriteAheadJournal
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import ClusterEvent, ClusterState, JobArrived
from repro.sim.scheduler import SolveStats

__all__ = ["ServedAllocation", "ServiceClosed", "AllocationService"]

#: Solves the ``/v1/stats`` latency percentiles are taken over (the most
#: recent ones): a window keeps the stats bounded however long the daemon
#: runs, and each publish reads them off its sorted copy in O(1)
#: (:class:`~repro.sim.scheduler.SolveStats`).
SOLVE_WINDOW = 1024

#: The chain behind the incremental solver: cold AMF, then per-site
#: max-min (proportional is always the implicit last rung).
FALLBACKS = ("amf", "psmf")


class ServiceClosed(RuntimeError):
    """The service is shutting down and accepts no new work (HTTP: 503)."""


class ServedAllocation:
    """One answer from the service: the allocation plus how it was produced.

    ``components`` is the warm solver's ``(job indices, site indices, memo
    entry)`` per job-bearing component when it served the answer, so the
    renderer encodes only components no earlier answer did; ``None`` (a
    fallback, an empty state) renders the allocation as one block.
    """

    __slots__ = ("allocation", "cached", "seconds", "version", "fingerprint", "components")

    def __init__(
        self,
        allocation: Allocation,
        *,
        cached: bool,
        seconds: float,
        version: int,
        fingerprint: str,
        components: tuple | None = None,
    ):
        self.allocation = allocation
        self.cached = cached
        self.seconds = seconds  # solve wall time (0.0 when no component was solved)
        self.version = version
        self.fingerprint = fingerprint
        self.components = components


class AllocationService:
    """Event-driven AMF allocation daemon (see module docstring).

    Parameters
    ----------
    state:
        The mutable cluster store (must contain the sites; jobs optional).
    max_delay / max_batch:
        Coalescing knobs — how long an event may wait, and how many one
        re-solve may take.
    cache_size:
        LRU entries in the warm solver's component memo (one per distinct
        component state solved).
    max_cuts:
        Per-shard cutting-plane pool bound for the warm solver
        (:class:`~repro.service.solver.IncrementalAmfSolver`, which solves
        connected components independently, so a delta re-solves only the
        component it touches).
    journal:
        Optional :class:`~repro.service.journal.WriteAheadJournal`.  When
        given, every accepted delta is journaled *before* it is queued
        (write-ahead ordering: an acknowledged event is always on disk),
        the journal is group-commit-synced after each flush, and
        checkpoints are taken whenever the flushed state makes the queue
        empty — see :func:`repro.service.journal.open_journal` for the
        recovery boot path.  The service takes ownership: :meth:`close`
        checkpoints and closes it.
    clock:
        Injectable monotone clock (virtual time in tests/benchmarks).
    observability:
        Enable the process-global metrics registry and tracer
        (:mod:`repro.obs`) for this daemon's lifetime.  On by default — the
        instrumentation is cheap enough to leave on (see
        ``benchmarks/bench_obs_overhead.py``); pass ``False`` (CLI:
        ``serve --no-obs``) to keep both switched off.
    """

    def __init__(
        self,
        state: ClusterState,
        *,
        max_delay: float = 0.05,
        max_batch: int = 256,
        cache_size: int = 128,
        max_cuts: int = 64,
        sharded: bool = True,
        workers: int | None = None,
        oracle: str = "parametric",
        journal: WriteAheadJournal | None = None,
        clock: Callable[[], float] = time.monotonic,
        observability: bool = True,
    ):
        require(state.n_sites > 0, "service needs at least one site")
        # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
        # passes ``oracle=args.oracle``.  There is one feasibility oracle; the
        # parameter selects nothing and goes when that harness may be edited.
        require(oracle == "parametric", f"unknown oracle {oracle!r} (the only oracle is 'parametric')")
        # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
        # passes ``workers=args.serve_workers or None``.  Shards are solved in
        # the calling thread; the parameter goes when that harness may be edited.
        require(workers is None, f"workers={workers!r}: shard solves run serially in the service")
        # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
        # passes ``sharded=not args.no_shards``.  Every solve is per connected
        # component; the parameter goes when that harness may be edited.
        require(sharded is True, f"sharded={sharded!r}: the service always solves per connected component")
        if observability:
            REGISTRY.enable()
            TRACER.enable()
        self.state = state
        self.queue = CoalescingQueue(max_delay=max_delay, max_batch=max_batch, clock=clock)
        self.incremental = IncrementalAmfSolver(max_cuts=max_cuts, shard_cache_size=cache_size)
        self.resilience = ResilienceStats()
        self.policy = ResilientPolicy(self.incremental, FALLBACKS, stats=self.resilience)
        self.solve_stats = SolveStats(samples=deque(maxlen=SOLVE_WINDOW))
        self.memo_hits = 0  # answers that solved no component
        self.memo_misses = 0  # answers that solved at least one
        self.rejections: list[str] = []  # bounded log of deltas the state refused
        self.max_rejections = 200
        self.events_accepted = 0
        # monotonic, unlike len(self.rejections) which saturates at
        # max_rejections — stats() reports this one (the saturation was a
        # real bug: long-running daemons under-reported rejections)
        self.events_rejected = 0
        self.rejections_dropped = 0
        self.journal = journal
        self._lock = threading.RLock()
        self._clock = clock
        self._started = clock()
        self._closed = False

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service is shutting down")

    def submit(self, event: ClusterEvent) -> int:
        """Queue one delta; returns the number of pending events."""
        return self.submit_all((event,))

    def submit_all(self, events: Sequence[ClusterEvent]) -> int:
        """Queue a delta sequence; returns the number of pending events.

        Write-ahead ordering: the whole sequence is journaled before the
        first push, so an *acknowledged* event is always on disk.  If a
        push raises mid-sequence (classic WAL semantics: the caller must
        treat an errored request's outcome as unknown), the accept count
        still reflects exactly what was enqueued.
        """
        with self._lock:
            self._check_open()
            # Resource-shape violations are rejected synchronously (edges
            # answer 400 with resource codes) and never reach the journal —
            # their verdict cannot change by flush time, so refusing here
            # loses nothing and keeps the WAL free of doomed events.
            for event in events:
                self.state.validate_event(event)
            if self.journal is not None:
                self.journal.append(events)
            accepted = 0
            try:
                for event in events:
                    self.queue.push(event)
                    accepted += 1
            finally:
                self.events_accepted += accepted
            return len(self.queue)

    def flush(self, *, force: bool = False) -> int:
        """Apply the pending batch if due (or ``force``); returns events applied."""
        with self._lock:
            if not (force or self.queue.due()):
                return 0
            batch = self.queue.drain()
            if not batch:
                return 0
            t0 = time.perf_counter()
            # Event by event, as journal recovery replays it.  A shard's
            # matrix is cached by its sub-cluster fingerprint, which depends
            # on the final state only, so a batch re-solves exactly the
            # shards whose final state it changed.
            applied, rejected = self.state.apply_all(batch)
            instruments.record_queue_flush(time.perf_counter() - t0)
            for message in rejected:
                self.events_rejected += 1
                if len(self.rejections) < self.max_rejections:
                    self.rejections.append(message)
                else:
                    self.rejections_dropped += 1
            if self.journal is not None:
                # The queue is empty and every journaled event <= seq is
                # applied to the state — the only moment a checkpoint is
                # sound.  sync() first: group commit must not outlive the
                # batch that rode on it.
                self.journal.sync()
                self.journal.maybe_checkpoint(self.state)
            return applied

    def pending(self) -> int:
        with self._lock:
            return len(self.queue)

    def has_job(self, name: str) -> bool:
        """Whether ``name`` is in the state *or* queued to arrive.

        The HTTP front-end uses this to answer ``DELETE /jobs/<name>`` with
        a synchronous 404 for unknown jobs — a plain ``state.has_job`` check
        would race the coalescing queue (a just-POSTed job is deletable
        before its batch flushes).
        """
        with self._lock:
            if self.state.has_job(name):
                return True
            return any(
                isinstance(ev, JobArrived) and ev.job.name == name for ev in self.queue.peek()
            )

    def pending_job_names(self) -> list[str]:
        """Names of jobs queued to arrive but not yet applied, in arrival
        order (``GET /v1/jobs?status=pending`` reads this)."""
        with self._lock:
            names: list[str] = []
            for ev in self.queue.peek():
                if isinstance(ev, JobArrived) and ev.job.name not in names:
                    names.append(ev.job.name)
            return names

    def seconds_until_due(self) -> float | None:
        with self._lock:
            return self.queue.seconds_until_due()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def allocation(self, *, fresh: bool = True) -> ServedAllocation:
        """Current allocation.

        ``fresh=True`` (the ``/allocate`` semantics) forces any pending
        deltas to apply first; ``fresh=False`` (passive reads) serves the
        batch-delayed state, flushing only if the batch is already due.
        """
        with self._lock:
            self._check_open()
            self.flush(force=fresh)
            cluster = self.state.snapshot()
            fp = cluster.fingerprint()
            version = self.state.version
            if cluster.n_jobs == 0:
                empty = Allocation(cluster, np.zeros((0, cluster.n_sites)), policy="empty")
                return ServedAllocation(empty, cached=True, seconds=0.0, version=version, fingerprint=fp)
            t0 = time.perf_counter()
            with span("service.allocate", jobs=cluster.n_jobs, version=version):
                alloc = self.policy(cluster)
            dt = time.perf_counter() - t0
            # cached: the primary served, every component from its memo.  A
            # fallback served because the primary raised or its answer failed
            # validation; either way the primary's warm state is suspect, and
            # dropping it means a revisit solves again instead of replaying it.
            served = alloc.policy == self.incremental.__name__
            if not served:
                self.incremental.reset()
            components = self.incremental.components if served else None
            cached = served and self.incremental.replayed
            if cached:
                self.memo_hits += 1
                return ServedAllocation(
                    alloc, cached=True, seconds=0.0, version=version, fingerprint=fp, components=components
                )
            self.memo_misses += 1
            self.solve_stats.record(dt, cluster.n_jobs)
            if REGISTRY.enabled:
                instruments.SERVICE_SOLVE_SECONDS.observe(dt)
            return ServedAllocation(
                alloc, cached=False, seconds=dt, version=version, fingerprint=fp, components=components
            )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: drain the queue, then refuse new work.

        The pending batch is applied to the state first — so a restart
        from the same state store resumes exactly where the daemon
        stopped — then :class:`ServiceClosed` guards all intake/serve
        paths (HTTP answers 503).  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self.flush(force=True)
            if self.journal is not None and not self.journal.closed:
                self.journal.checkpoint(self.state)
                self.journal.close()
            self._closed = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready counters for ``/v1/stats`` and the benchmark report;
        ``/v1/metrics`` renders its counters from the same dict
        (:data:`repro.obs.instruments.STATS_METRICS`)."""
        with self._lock:
            s = self.solve_stats
            inc = self.incremental.stats
            answers = self.memo_hits + self.memo_misses
            return {
                "uptime_seconds": self._clock() - self._started,
                "state": {
                    "version": self.state.version,
                    "jobs": self.state.n_jobs,
                    "sites": self.state.n_sites,
                    "pending_events": len(self.queue),
                    "events_accepted": self.events_accepted,
                    "events_rejected": self.events_rejected,
                    "rejections_logged": len(self.rejections),
                    "rejections_dropped": self.rejections_dropped,
                },
                "solver": {
                    "solves": s.solves,
                    "mean_ms": None if not s.solves else s.mean_ms,
                    "p50_ms": None if not s.samples else s.percentile_ms(50),
                    "p99_ms": None if not s.samples else s.percentile_ms(99),
                    "max_ms": s.max_ms,
                },
                "incremental": {
                    "solves": inc.solves,
                    "failures": inc.failures,
                    "rounds": inc.rounds,
                    "feasibility_solves": inc.feasibility_solves,
                    "cuts_generated": inc.cuts_generated,
                    "warm_cuts_seeded": inc.warm_cuts_seeded,
                    "deferred_checks": inc.deferred_checks,
                    "deferred_refuted": inc.deferred_refuted,
                    "frozen_by_cap": inc.frozen_by_cap,
                    "frozen_by_cut": inc.frozen_by_cut,
                    "basis_size": self.incremental.bases.total_cuts,
                    # Vestige with one reader: benchmarks/ledger/metrics.py's
                    # parametric.cut_reject row.  The oracle has no cut
                    # screen; the field reads 0 until that harness is edited.
                    "probes_cut_reject": 0,
                    # parametric-oracle reuse breakdown (docs/performance.md)
                    "probes_warm": inc.probes_warm,
                    "probes_cold": inc.probes_cold,
                    "probe_rollbacks": inc.probe_rollbacks,
                    "jobs_folded": inc.jobs_folded,
                    # AMRF engine (all zero unless vector clusters were solved)
                    "amrf_rounds": inc.amrf_rounds,
                    "amrf_lps": inc.amrf_lps,
                    "amrf_probes": inc.amrf_probes,
                    "amrf_probes_skipped": inc.amrf_probes_skipped,
                },
                # the component memo: answers served without / with a solve
                "cache": {
                    "entries": self.incremental.shard_cache_entries,
                    "hits": self.memo_hits,
                    "misses": self.memo_misses,
                    "hit_rate": self.memo_hits / answers if answers else 0.0,
                    "evictions": inc.shard_evictions,
                },
                "batching": {
                    "batches": self.queue.stats.batches,
                    "coalesced_events": self.queue.stats.events,
                    # Vestige with one reader: benchmarks/ledger/metrics.py's
                    # batching.folded row.  Batches are applied as drained;
                    # the field reads 0 until that harness is edited.
                    "folded_events": 0,
                    "mean_batch": self.queue.stats.mean_batch,
                    "max_batch": self.queue.stats.max_batch,
                    "max_delay": self.queue.max_delay,
                },
                "sharding": {
                    "last_shards": inc.last_shards,
                    "shard_solves": inc.shard_solves,
                    "shard_cache_hits": inc.shard_cache_hits,
                    "shard_cache_misses": inc.shard_cache_misses,
                    "shard_cache_entries": self.incremental.shard_cache_entries,
                    "shard_bases": len(self.incremental.bases),
                },
                "resilience": {
                    "solves": self.resilience.solves,
                    "fallback_activations": self.resilience.fallback_activations,
                    "served_by": dict(self.resilience.served_by),
                    "errors": list(self.resilience.errors[-5:]),
                },
                "journal": None if self.journal is None else self.journal.stats_dict(),
            }
