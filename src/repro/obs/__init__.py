"""`repro.obs` — zero-dependency observability: metrics + trace spans.

Two process-global singletons, both **off by default** with a
one-attribute-read fast path on every hot call site:

* :data:`~repro.obs.registry.REGISTRY` — counters / gauges / histograms,
  rendered as Prometheus text by its ``render_prometheus()``.  ``GET
  /v1/metrics`` appends :func:`~repro.obs.instruments.render_stats`: the
  service's own counters, read from the ``/v1/stats`` snapshot it publishes.
* :data:`~repro.obs.tracing.TRACER` — a ring buffer of recent spans with
  parent-child nesting (``amf.solve`` → ``flow.probe`` → ``flow.max_flow``),
  exported as Chrome-trace JSON (``GET /v1/traces``, ``--trace-out``).

Turn both on with :func:`enable`; the service daemon does this by default
and the CLI does under ``--trace-out``.  See docs/observability.md for the
instrument catalog and export walk-throughs.
"""

from repro.obs.instruments import record_queue_flush, render_stats
from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.simobs import SimObserver
from repro.obs.tracing import TRACER, Tracer, span

__all__ = [
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimObserver",
    "Tracer",
    "disable",
    "enable",
    "record_queue_flush",
    "render_stats",
    "span",
]


def enable(*, metrics: bool = True, traces: bool = True) -> None:
    """Switch the global registry and/or tracer on."""
    if metrics:
        REGISTRY.enable()
    if traces:
        TRACER.enable()


def disable() -> None:
    """Switch both the global registry and tracer off (data is kept)."""
    REGISTRY.disable()
    TRACER.disable()
