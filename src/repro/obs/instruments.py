"""The named-instrument catalog: every built-in metric in one place.

Modules on the hot path do not invent metric names inline — they call the
recording helpers here (or touch the module-level instruments directly),
so the full catalog is greppable and documented once (docs/observability.md
renders this as a table).

Naming convention: ``repro_<layer>_<what>[_total|_seconds]`` — counters end
in ``_total``, histograms of durations in ``_seconds`` (Prometheus base
units), gauges are bare nouns.

Two sources, one rule: a counter or gauge whose value a per-service record
already holds (the solver's diagnostics, the memo, the daemon's batch
stats, the journal, the edge's admission counts) is *not* an instrument.
It is a row of :data:`STATS_METRICS`, rendered by :func:`render_stats` from the same
``/v1/stats`` dict the service publishes, so ``/v1/metrics`` and
``/v1/stats`` read one snapshot and cannot disagree.  Only what has no
other home — histograms, the edge's request counters, the flush-error
count, the live intake depth, the simulator and analysis instruments —
binds to the process-global :data:`~repro.obs.registry.REGISTRY`.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from repro.obs.registry import REGISTRY, _fmt

__all__ = [
    "STATS_METRICS",
    "StatsMetric",
    "render_stats",
    "QUEUE_FLUSH_SECONDS",
    "SERVICE_REQUESTS",
    "SERVICE_ERRORS",
    "SERVICE_REQUEST_SECONDS",
    "SERVICE_SOLVE_SECONDS",
    "SIM_STEPS",
    "SIM_STEP_SECONDS",
    "SIM_SIM_TIME_SECONDS",
    "SIM_ACTIVE_JOBS",
    "SHARD_COUNT",
    "SHARD_JOBS",
    "SHARD_SOLVE_SECONDS",
    "PARALLEL_FALLBACK",
    "ADMISSION_QUEUE_DEPTH",
    "ADMISSION_RETRY_AFTER_SECONDS",
    "FLUSH_ERRORS",
    "record_queue_flush",
    "record_shard_decomposition",
    "record_shard_solve",
    "record_parallel_fallback",
    "record_admission_shed",
    "record_flush_error",
]


# -- rendered from /v1/stats ---------------------------------------------
class StatsMetric(NamedTuple):
    """One metric whose value is a ``/v1/stats`` field (``section.key``)."""

    name: str
    kind: str  # "counter" or "gauge"
    help: str
    path: str


STATS_METRICS: tuple[StatsMetric, ...] = tuple(
    StatsMetric(*row)
    for row in [
        # solver (repro.core.amf + repro.flownet.parametric), summed by the warm solver
        ("repro_amf_solves_total", "counter", "warm solver calls that solved at least one component", "incremental.solves"),
        ("repro_amf_rounds_total", "counter", "progressive-filling rounds", "incremental.rounds"),
        ("repro_amf_feasibility_solves_total", "counter", "feasibility probes the solver asked", "incremental.feasibility_solves"),
        ("repro_amf_cuts_generated_total", "counter", "new site cuts discovered", "incremental.cuts_generated"),
        ("repro_amf_frozen_by_cap_total", "counter", "jobs frozen demand-saturated", "incremental.frozen_by_cap"),
        ("repro_amf_frozen_by_cut_total", "counter", "jobs frozen in a binding cut or at the crossing capacity one pinned them to", "incremental.frozen_by_cut"),
        ("repro_amf_warm_cuts_seeded_total", "counter", "cuts replayed from a CutBasis", "incremental.warm_cuts_seeded"),
        ("repro_amf_deferred_checks_total", "counter", "warm fills certified by one probe of their final levels", "incremental.deferred_checks"),
        ("repro_amf_deferred_refuted_total", "counter", "deferred checks refuted (the per-round loop ran instead)", "incremental.deferred_refuted"),
        ("repro_flow_probes_warm_total", "counter", "flow solves continuing from existing flow", "incremental.probes_warm"),
        ("repro_flow_probes_cold_total", "counter", "flow solves starting from zero flow", "incremental.probes_cold"),
        ("repro_flow_probe_rollbacks_total", "counter", "probes that cancelled flow before solving", "incremental.probe_rollbacks"),
        ("repro_flow_jobs_folded_total", "counter", "degree-1 jobs folded out of the flow network", "incremental.jobs_folded"),
        # AMRF multi-resource engine (repro.multiresource.engine); zero on
        # scalar clusters and on vector clusters served by the scalar reduction
        ("repro_amrf_rounds_total", "counter", "AMRF progressive-filling rounds", "incremental.amrf_rounds"),
        ("repro_amrf_lps_total", "counter", "LP solves inside the AMRF engine", "incremental.amrf_lps"),
        ("repro_amrf_probes_total", "counter", "aggregate headroom LPs over jobs a round's LP left undecided", "incremental.amrf_probes"),
        ("repro_amrf_probes_skipped_total", "counter", "jobs a round decided with no LP (row dual or witness share)", "incremental.amrf_probes_skipped"),
        # component memo: whole answers, then per-component lookups
        ("repro_cache_hits_total", "counter", "allocations the component memo answered whole", "cache.hits"),
        ("repro_cache_misses_total", "counter", "allocations that solved at least one component", "cache.misses"),
        ("repro_cache_evictions_total", "counter", "component memo LRU evictions", "cache.evictions"),
        ("repro_shard_solves_total", "counter", "individual shard solves (job-bearing components)", "sharding.shard_solves"),
        ("repro_shard_cache_hits_total", "counter", "component memo hits", "sharding.shard_cache_hits"),
        ("repro_shard_cache_misses_total", "counter", "component memo misses", "sharding.shard_cache_misses"),
        # solve timer: events accepted since the last solve, and the batches solves took
        ("repro_queue_depth", "gauge", "events accepted since the last solve", "state.pending_events"),
        ("repro_queue_batches_total", "counter", "solves that took accepted events", "batching.batches"),
        ("repro_queue_coalesced_events_total", "counter", "events taken by those solves", "batching.coalesced_events"),
        # admission control (repro.service.aio)
        ("repro_admission_accepted_total", "counter", "write requests admitted past the intake queue", "admission.admitted"),
        ("repro_admission_shed_total", "counter", "write requests shed with 429 (intake queue full)", "admission.shed"),
        # write-ahead journal (repro.service.journal); 0 when the service has none
        ("repro_journal_appends_total", "counter", "events appended to the journal", "journal.appends"),
        ("repro_journal_bytes_total", "counter", "bytes written to journal segments", "journal.bytes_written"),
        ("repro_journal_fsyncs_total", "counter", "group-commit fsyncs of the live segment", "journal.fsyncs"),
        ("repro_journal_checkpoints_total", "counter", "snapshot checkpoints written (segments compacted)", "journal.checkpoints"),
    ]
)  # fmt: skip


def render_stats(stats: Mapping[str, Any]) -> str:
    """Prometheus text of every :data:`STATS_METRICS` row, read from ``stats``
    (a ``/v1/stats`` dict).  A section that is ``null`` or absent renders its
    rows as 0: ``journal`` without a journal, ``admission`` without the edge."""
    lines: list[str] = []
    for metric in STATS_METRICS:
        section, key = metric.path.split(".")
        record = stats.get(section)
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        lines.append(f"{metric.name} {_fmt(0 if record is None else record[key])}")
    return "\n".join(lines) + "\n"


# -- service: daemon / HTTP ----------------------------------------------
QUEUE_FLUSH_SECONDS = REGISTRY.histogram(
    "repro_queue_flush_seconds", "state apply latency of one accepted write"
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
SHARD_COUNT = REGISTRY.histogram(
    "repro_shard_count", "connected components per sharded solve", start=1.0, factor=2.0, buckets=10
)
SHARD_JOBS = REGISTRY.histogram(
    "repro_shard_jobs", "jobs per solved shard", start=1.0, factor=2.0, buckets=12
)
SHARD_SOLVE_SECONDS = REGISTRY.histogram("repro_shard_solve_seconds", "per-shard solve latency")

# -- admission control (repro.service.aio) ------------------------------
ADMISSION_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_admission_queue_depth", "work items pending in the bounded intake queue"
)
ADMISSION_RETRY_AFTER_SECONDS = REGISTRY.histogram(
    "repro_admission_retry_after_seconds", "Retry-After hints handed to shed requests"
)

# -- background flush (the aio edge's solver loop) ----------------------
FLUSH_ERRORS = REGISTRY.counter(
    "repro_flush_errors_total", "due solves that raised (the solver loop keeps running)"
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
def record_queue_flush(seconds: float) -> None:
    if REGISTRY.enabled:
        QUEUE_FLUSH_SECONDS.observe(seconds)


def record_shard_decomposition(n_shards: int) -> None:
    if REGISTRY.enabled:
        SHARD_COUNT.observe(n_shards)


def record_shard_solve(n_jobs: int, seconds: float) -> None:
    if not REGISTRY.enabled:
        return
    SHARD_JOBS.observe(n_jobs)
    SHARD_SOLVE_SECONDS.observe(seconds)


def record_parallel_fallback() -> None:
    if REGISTRY.enabled:
        PARALLEL_FALLBACK.inc()


def record_admission_shed(retry_after: float) -> None:
    if REGISTRY.enabled:
        ADMISSION_RETRY_AFTER_SECONDS.observe(retry_after)


def record_flush_error() -> None:
    if REGISTRY.enabled:
        FLUSH_ERRORS.inc()
