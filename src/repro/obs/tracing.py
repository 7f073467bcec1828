"""Trace spans: a ring buffer of recent timed sections, Chrome-trace export.

Metrics (:mod:`repro.obs.registry`) say *how much*; traces say *where the
time went* for individual operations.  :class:`Tracer` keeps a bounded
ring of completed spans — ``span("amf.solve")`` around a solver call,
nested ``flow.probe`` spans inside it, ``flow.max_flow`` inside those —
and exports them in the Chrome trace event format, loadable in
``chrome://tracing`` / https://ui.perfetto.dev.

Design points:

* **Off by default, one attribute read to check.**  Hot paths guard with
  ``if TRACER.enabled:`` and fall through to the plain call otherwise, so
  a disabled tracer costs one branch.
* **Parent-child nesting** is tracked per thread with a thread-local
  stack; each recorded span carries its parent's name and its depth, and
  the Chrome export nests by time containment within a thread track.
* **Bounded memory**: completed spans land in a ``deque(maxlen=...)``;
  a long-lived daemon keeps the most recent ``max_events`` spans and
  forgets the rest.  ``GET /v1/traces`` on the service serves this ring.

Use :func:`span` as a context manager (fast path built in)::

    with span("amf.solve", jobs=cluster.n_jobs):
        ...
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

__all__ = ["SpanRecord", "Tracer", "TRACER", "span"]


class SpanRecord(dict):
    """One completed span (a plain dict for cheap JSON export).

    Keys: ``name``, ``ts`` / ``dur`` (µs since tracer epoch / duration),
    ``tid``, ``parent`` (enclosing span name or ``None``), ``depth``,
    ``args`` (user payload).
    """

    __slots__ = ()


_perf_counter = time.perf_counter  # bound once: the span path runs per probe


class _Span:
    """A live span; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_t0", "_stack", "_tid")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        # one thread-local lookup per span: cache the stack (and the thread
        # id alongside it) for __exit__
        local = self._tracer._local
        try:
            stack = local.stack
            self._tid = local.ident
        except AttributeError:
            stack = local.stack = []
            self._tid = local.ident = threading.get_ident()
        self._stack = stack
        stack.append(self.name)
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        t1 = _perf_counter()
        tracer = self._tracer
        stack = self._stack
        stack.pop()
        tracer._events.append(
            SpanRecord(
                name=self.name,
                ts=(self._t0 - tracer._epoch) * 1e6,
                dur=(t1 - self._t0) * 1e6,
                tid=self._tid,
                parent=stack[-1] if stack else None,
                depth=len(stack),
                args=self.args,
            )
        )


class _NoopSpan:
    """Returned by :func:`span` when tracing is disabled; absorbs usage."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    @property
    def args(self) -> dict[str, Any]:  # mutations are intentionally dropped
        return {}


_NOOP = _NoopSpan()


class Tracer:
    """Ring buffer of recent spans with per-thread nesting state."""

    def __init__(self, max_events: int = 8192):
        self.enabled = False
        self.max_events = max_events
        self._events: deque[SpanRecord] = deque(maxlen=max_events)
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- recording -----------------------------------------------------
    # _Span appends to _events directly: deque.append is atomic under the
    # GIL; the lock only guards clear/snapshot from a shifting ring.
    def span(self, name: str, **args: Any) -> _Span:
        """A live span regardless of :attr:`enabled` (callers pre-check)."""
        return _Span(self, name, args)

    # -- export ---------------------------------------------------------
    def events(self) -> list[SpanRecord]:
        """Completed spans, oldest first."""
        with self._lock:
            return list(self._events)

    def to_chrome(self) -> dict[str, Any]:
        """Chrome trace event format: complete (``ph: "X"``) events."""
        pid = os.getpid()
        trace_events = [
            {
                "name": ev["name"],
                "cat": ev["name"].split(".", 1)[0],
                "ph": "X",
                "ts": ev["ts"],
                "dur": ev["dur"],
                "pid": pid,
                "tid": ev["tid"],
                "args": dict(ev["args"], parent=ev["parent"], depth=ev["depth"]),
            }
            for ev in self.events()
        ]
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path: str | Path) -> int:
        """Write the Chrome-trace JSON to ``path``; returns the span count."""
        payload = self.to_chrome()
        Path(path).write_text(json.dumps(payload))
        return len(payload["traceEvents"])


#: The process-global tracer every built-in span binds to.
TRACER = Tracer()


def span(name: str, **args: Any) -> _Span | _NoopSpan:
    """Context manager around a timed section (no-op when tracing is off)."""
    if not TRACER.enabled:
        return _NOOP
    return TRACER.span(name, **args)
