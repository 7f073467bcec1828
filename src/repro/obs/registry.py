"""Zero-dependency process-global metrics registry.

The solver, flow engine, component memo, batching queue, simulator and HTTP
service all count things (``AmfDiagnostics``, ``ProbeStats``, ``BatchStats`` ...),
but until now each record was an island: visible only to whoever held the
Python object.  :class:`MetricsRegistry` is the shared sink those counters
fold into, so one scrape of ``GET /metrics`` (or one
:func:`render_prometheus` call) shows what every layer did.

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
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "render_prometheus",
    "parse_prometheus",
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

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

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

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

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

    def snapshot(self) -> dict[str, float | dict]:
        """JSON-ready dump (counters/gauges as floats, histograms as dicts)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, float | dict] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": dict(zip([_fmt(b) for b in metric.bounds] + ["+Inf"], metric.counts)),
                }
            else:
                out[metric.name] = metric.value
        return out


#: The process-global registry every built-in instrument binds to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def render_prometheus() -> str:
    """Render the global registry (module-level convenience)."""
    return REGISTRY.render_prometheus()


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text format into ``{sample_name_with_labels: value}``.

    A strict-enough validator for tests and CI smoke checks: raises
    :class:`ValueError` on any line that is neither a comment nor a
    ``name[{labels}] value`` sample, and on non-float sample values.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        key, raw = parts
        name = key.split("{", 1)[0]
        if "{" in key and not key.endswith("}"):
            raise ValueError(f"line {lineno}: unterminated label set: {line!r}")
        _check_name(name)
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad sample value {raw!r}") from exc
        samples[key] = value
    return samples


def all_samples(registries: Iterable[MetricsRegistry] = ()) -> dict[str, float]:
    """Flat sample dict of the global registry (plus any extras), via the
    text format — guarantees tests compare exactly what a scraper sees."""
    text = REGISTRY.render_prometheus() + "".join(r.render_prometheus() for r in registries)
    return parse_prometheus(text)
