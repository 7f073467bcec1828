"""The named-instrument catalog: every built-in metric in one place.

Modules on the hot path do not invent metric names inline — they call the
recording helpers here (or touch the module-level instruments directly),
so the full catalog is greppable and documented once (docs/observability.md
renders this as a table).  All instruments bind to the process-global
:data:`~repro.obs.registry.REGISTRY`.

Naming convention: ``repro_<layer>_<what>[_total|_seconds]`` — counters end
in ``_total``, histograms of durations in ``_seconds`` (Prometheus base
units), gauges are bare nouns.

The AMF probe counters are *fold-ins* of :class:`repro.core.amf
.AmfDiagnostics`: :func:`record_amf` adds the per-solve deltas, so the
registry totals bit-match the sum of diagnostics over the same solve
sequence (asserted by ``tests/obs/test_instruments.py`` and the service
``/metrics`` vs ``/stats`` cross-check).
"""

from __future__ import annotations

from repro.obs.registry import REGISTRY

__all__ = [
    "AMF_SOLVES",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_EVICTIONS",
    "QUEUE_DEPTH",
    "QUEUE_BATCHES",
    "QUEUE_EVENTS",
    "QUEUE_FLUSH_SECONDS",
    "SERVICE_REQUESTS",
    "SERVICE_ERRORS",
    "SERVICE_REQUEST_SECONDS",
    "SERVICE_SOLVE_SECONDS",
    "SIM_STEPS",
    "SIM_STEP_SECONDS",
    "SIM_SIM_TIME_SECONDS",
    "SIM_ACTIVE_JOBS",
    "SHARD_SOLVES",
    "SHARD_COUNT",
    "SHARD_JOBS",
    "SHARD_SOLVE_SECONDS",
    "SHARD_CACHE_HITS",
    "SHARD_CACHE_MISSES",
    "PARALLEL_FALLBACK",
    "ADMISSION_ACCEPTED",
    "ADMISSION_SHED",
    "ADMISSION_QUEUE_DEPTH",
    "ADMISSION_RETRY_AFTER_SECONDS",
    "FLUSH_ERRORS",
    "JOURNAL_APPENDS",
    "JOURNAL_BYTES",
    "JOURNAL_FSYNCS",
    "JOURNAL_CHECKPOINTS",
    "record_amf",
    "record_cache",
    "record_queue_flush",
    "record_shard_decomposition",
    "record_shard_solve",
    "record_shard_cache",
    "record_parallel_fallback",
    "record_admission",
    "record_admission_shed",
    "record_flush_error",
    "record_journal_append",
    "record_journal_fsync",
    "record_journal_checkpoint",
]

# -- solver (repro.core.amf + repro.flownet.parametric) -----------------
AMF_SOLVES = REGISTRY.counter("repro_amf_solves_total", "AMF solver entries (levels, bisect or full solve)")

#: ``AmfDiagnostics`` field -> counter; the bit-match contract lives here.
_AMF_COUNTERS = {
    "rounds": REGISTRY.counter("repro_amf_rounds_total", "progressive-filling rounds"),
    "feasibility_solves": REGISTRY.counter(
        "repro_amf_feasibility_solves_total", "feasibility probes the solver asked"
    ),
    "cuts_generated": REGISTRY.counter("repro_amf_cuts_generated_total", "new site cuts discovered"),
    "frozen_by_cap": REGISTRY.counter("repro_amf_frozen_by_cap_total", "jobs frozen demand-saturated"),
    "frozen_by_cut": REGISTRY.counter("repro_amf_frozen_by_cut_total", "jobs frozen in a binding cut or at the crossing capacity one pinned them to"),
    "warm_cuts_seeded": REGISTRY.counter(
        "repro_amf_warm_cuts_seeded_total", "cuts replayed from a CutBasis"
    ),
    "deferred_checks": REGISTRY.counter(
        "repro_amf_deferred_checks_total", "warm fills certified by one probe of their final levels"
    ),
    "deferred_refuted": REGISTRY.counter(
        "repro_amf_deferred_refuted_total", "deferred checks refuted (the per-round loop ran instead)"
    ),
    "probes_early_accept": REGISTRY.counter(
        "repro_flow_probes_early_accept_total", "probes answered by feasible-dominance"
    ),
    "probes_warm": REGISTRY.counter(
        "repro_flow_probes_warm_total", "flow solves continuing from existing flow"
    ),
    "probes_cold": REGISTRY.counter("repro_flow_probes_cold_total", "flow solves starting from zero flow"),
    "probe_rollbacks": REGISTRY.counter(
        "repro_flow_probe_rollbacks_total", "probes that cancelled flow before solving"
    ),
    "jobs_folded": REGISTRY.counter(
        "repro_flow_jobs_folded_total", "degree-1 jobs folded out of the flow network"
    ),
    # AMRF multi-resource engine (repro.multiresource.engine); zero on
    # scalar clusters and on vector clusters served by the scalar reduction
    "amrf_rounds": REGISTRY.counter("repro_amrf_rounds_total", "AMRF progressive-filling rounds"),
    "amrf_lps": REGISTRY.counter("repro_amrf_lps_total", "LP solves inside the AMRF engine"),
    "amrf_probes": REGISTRY.counter(
        "repro_amrf_probes_total", "aggregate headroom LPs over jobs a round's LP left undecided"
    ),
    "amrf_probes_skipped": REGISTRY.counter(
        "repro_amrf_probes_skipped_total", "jobs a round decided with no LP (row dual or witness share)"
    ),
}

# -- service: component memo / batching / daemon / HTTP -----------------
CACHE_HITS = REGISTRY.counter("repro_cache_hits_total", "allocations the component memo answered whole")
CACHE_MISSES = REGISTRY.counter("repro_cache_misses_total", "allocations that solved at least one component")
CACHE_EVICTIONS = REGISTRY.counter("repro_cache_evictions_total", "component memo LRU evictions")

QUEUE_DEPTH = REGISTRY.gauge("repro_queue_depth", "events pending in the coalescing queue")
QUEUE_BATCHES = REGISTRY.counter("repro_queue_batches_total", "batches drained from the coalescing queue")
QUEUE_EVENTS = REGISTRY.counter("repro_queue_coalesced_events_total", "events drained in batches")
QUEUE_FLUSH_SECONDS = REGISTRY.histogram(
    "repro_queue_flush_seconds", "batch apply latency (drain + state apply)"
)

SERVICE_REQUESTS = REGISTRY.counter("repro_service_requests_total", "HTTP requests handled")
SERVICE_ERRORS = REGISTRY.counter("repro_service_errors_total", "HTTP responses with status >= 400")
SERVICE_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_service_request_seconds", "HTTP request handling latency"
)
SERVICE_SOLVE_SECONDS = REGISTRY.histogram(
    "repro_service_solve_seconds", "allocation pipeline latency when a component was solved"
)

# -- shard decomposition (repro.core.sharding + service component memo) -
SHARD_SOLVES = REGISTRY.counter("repro_shard_solves_total", "individual shard solves (job-bearing components)")
SHARD_COUNT = REGISTRY.histogram(
    "repro_shard_count", "connected components per sharded solve", start=1.0, factor=2.0, buckets=10
)
SHARD_JOBS = REGISTRY.histogram(
    "repro_shard_jobs", "jobs per solved shard", start=1.0, factor=2.0, buckets=12
)
SHARD_SOLVE_SECONDS = REGISTRY.histogram("repro_shard_solve_seconds", "per-shard solve latency")
# Deliberately distinct from repro_cache_*: those count whole answers and
# bit-match /v1/stats ``cache`` (/metrics vs /stats cross-check); these count
# the component memo's lookups, one per component, inside the warm solver.
SHARD_CACHE_HITS = REGISTRY.counter("repro_shard_cache_hits_total", "component memo hits")
SHARD_CACHE_MISSES = REGISTRY.counter("repro_shard_cache_misses_total", "component memo misses")

# -- admission control (repro.service.aio) ------------------------------
ADMISSION_ACCEPTED = REGISTRY.counter(
    "repro_admission_accepted_total", "write requests admitted past the intake queue"
)
ADMISSION_SHED = REGISTRY.counter(
    "repro_admission_shed_total", "write requests shed with 429 (intake queue full)"
)
ADMISSION_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_admission_queue_depth", "work items pending in the bounded intake queue"
)
ADMISSION_RETRY_AFTER_SECONDS = REGISTRY.histogram(
    "repro_admission_retry_after_seconds", "Retry-After hints handed to shed requests"
)

# -- background flush (the aio edge's solver loop) ----------------------
FLUSH_ERRORS = REGISTRY.counter(
    "repro_flush_errors_total", "background flush cycles that raised (flusher keeps running)"
)

# -- write-ahead journal (repro.service.journal) ------------------------
JOURNAL_APPENDS = REGISTRY.counter("repro_journal_appends_total", "events appended to the journal")
JOURNAL_BYTES = REGISTRY.counter("repro_journal_bytes_total", "bytes written to journal segments")
JOURNAL_FSYNCS = REGISTRY.counter("repro_journal_fsyncs_total", "group-commit fsyncs of the live segment")
JOURNAL_CHECKPOINTS = REGISTRY.counter(
    "repro_journal_checkpoints_total", "snapshot checkpoints written (segments compacted)"
)

# -- analysis fan-out ----------------------------------------------------
PARALLEL_FALLBACK = REGISTRY.counter(
    "repro_parallel_fallback_total",
    "parallel_map calls that degraded to serial because fork is unavailable",
)

# -- simulator ----------------------------------------------------------
SIM_STEPS = REGISTRY.counter("repro_sim_steps_total", "simulator intervals observed")
SIM_STEP_SECONDS = REGISTRY.histogram(
    "repro_sim_step_seconds", "wall-clock time per simulator step (policy solve + advance)"
)
SIM_SIM_TIME_SECONDS = REGISTRY.counter(
    "repro_sim_simulated_time_total", "simulated time advanced across observed intervals"
)
SIM_ACTIVE_JOBS = REGISTRY.gauge("repro_sim_active_jobs", "jobs active in the last observed interval")


# -- recording helpers (each guards on REGISTRY.enabled) ----------------
def record_amf(diag, since=None) -> None:
    """Fold one solve's :class:`AmfDiagnostics` into the registry.

    ``since`` is a snapshot of the same record taken when the solve
    started: callers may hand one mutable diagnostics object to several
    consecutive solver entries, so only the *delta* belongs to this one.
    """
    if not REGISTRY.enabled:
        return
    AMF_SOLVES.inc()
    for field, counter in _AMF_COUNTERS.items():
        value = getattr(diag, field)
        if since is not None:
            value -= getattr(since, field)
        if value:
            counter.inc(value)


def record_cache(*, hit: bool) -> None:
    if not REGISTRY.enabled:
        return
    (CACHE_HITS if hit else CACHE_MISSES).inc()


def record_queue_flush(batch_size: int, seconds: float) -> None:
    if not REGISTRY.enabled:
        return
    QUEUE_BATCHES.inc()
    QUEUE_EVENTS.inc(batch_size)
    QUEUE_FLUSH_SECONDS.observe(seconds)


def record_shard_decomposition(n_shards: int) -> None:
    if not REGISTRY.enabled:
        return
    SHARD_COUNT.observe(n_shards)


def record_shard_solve(n_jobs: int, seconds: float) -> None:
    if not REGISTRY.enabled:
        return
    SHARD_SOLVES.inc()
    SHARD_JOBS.observe(n_jobs)
    SHARD_SOLVE_SECONDS.observe(seconds)


def record_shard_cache(*, hits: int = 0, misses: int = 0) -> None:
    if not REGISTRY.enabled:
        return
    if hits:
        SHARD_CACHE_HITS.inc(hits)
    if misses:
        SHARD_CACHE_MISSES.inc(misses)


def record_parallel_fallback() -> None:
    if REGISTRY.enabled:
        PARALLEL_FALLBACK.inc()


def record_admission(*, depth: int) -> None:
    if not REGISTRY.enabled:
        return
    ADMISSION_ACCEPTED.inc()
    ADMISSION_QUEUE_DEPTH.set(depth)


def record_admission_shed(retry_after: float) -> None:
    if not REGISTRY.enabled:
        return
    ADMISSION_SHED.inc()
    ADMISSION_RETRY_AFTER_SECONDS.observe(retry_after)


def record_flush_error() -> None:
    if REGISTRY.enabled:
        FLUSH_ERRORS.inc()


def record_journal_append(events: int, nbytes: int) -> None:
    if not REGISTRY.enabled:
        return
    JOURNAL_APPENDS.inc(events)
    JOURNAL_BYTES.inc(nbytes)


def record_journal_fsync() -> None:
    if REGISTRY.enabled:
        JOURNAL_FSYNCS.inc()


def record_journal_checkpoint() -> None:
    if REGISTRY.enabled:
        JOURNAL_CHECKPOINTS.inc()
