"""Zero-dependency process-global metrics registry.

The process-global home of the instruments no per-object record holds:
latency histograms, the HTTP edge's request counters, the simulator's step
telemetry.  Counters a per-service record already keeps (the solver's
``AmfDiagnostics``, the component memo, ``BatchStats``, ``JournalStats``)
stay in that record; ``GET /v1/metrics`` renders them from the service's
``/v1/stats`` snapshot (:func:`repro.obs.instruments.render_stats`) after
this registry's text.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotone total (``*_total``).
* :class:`Gauge` — a value that goes up and down (queue depth, cache size).
* :class:`Histogram` — fixed **log-scale** buckets (``start * factor**k``),
  chosen once at creation; observations land in the first bucket whose
  upper bound is >= the value.  Log buckets keep the bucket count small
  while spanning µs solver probes to multi-second report runs.

The registry is *disabled by default* and every hot-path call site guards
on :attr:`MetricsRegistry.enabled` (one attribute read), so the library
pays nothing until someone turns observability on — the service daemon
does (``AllocationService(observability=True)``), the CLI does under
``--trace-out``, and `benchmarks/bench_obs_overhead.py` gates the enabled
cost at <5% of the flow-probe stage.

Instrument mutation is a plain float add without locking: CPython's GIL
makes ``+=`` on a slot lossy only across preemption points that do not
exist inside the C-level float add for our single-writer call sites, and
the service serializes all solver work behind one lock anyway.  Rendering
takes the registry lock only to snapshot the instrument list.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)")
    return name


def _fmt(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotone counter (`*_total` by convention)."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def render(self) -> list[str]:
        return [f"{self.name} {_fmt(self.value)}"]


class Gauge:
    """A value that can go up and down (depth, size, in-flight count)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def render(self) -> list[str]:
        return [f"{self.name} {_fmt(self.value)}"]


class Histogram:
    """Histogram over fixed log-scale buckets ``start * factor**k``.

    ``bounds`` are the buckets' inclusive upper edges; the implicit
    ``+Inf`` bucket catches everything above the last edge.  Cumulative
    bucket counts, ``_sum`` and ``_count`` render in the standard
    Prometheus histogram exposition shape.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        start: float = 1e-5,
        factor: float = 4.0,
        buckets: int = 12,
    ):
        if not (start > 0.0 and factor > 1.0 and buckets >= 1):
            raise ValueError("histogram needs start > 0, factor > 1, buckets >= 1")
        self.name = _check_name(name)
        self.help = help
        self.bounds = [start * factor**k for k in range(buckets)]
        self.counts = [0] * (buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.sum = 0.0
        self.count = 0

    def render(self) -> list[str]:
        lines = []
        cum = 0
        for bound, n in zip(self.bounds, self.counts):
            cum += n
            lines.append(f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cum}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_fmt(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class MetricsRegistry:
    """Named-instrument store with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing instrument
    when the name is already registered (and raise on a kind clash), so
    module-level catalogs (:mod:`repro.obs.instruments`) and ad-hoc callers
    can both address metrics by name without coordination.
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    # -- instrument access ---------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, wanted {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, start: float = 1e-5, factor: float = 4.0, buckets: int = 12
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, start=start, factor=factor, buckets=buckets)

    # -- export ---------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of every instrument."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry every built-in instrument binds to.
REGISTRY = MetricsRegistry()
