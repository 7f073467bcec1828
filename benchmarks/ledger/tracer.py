"""Spans around the calls into each layer, recorded from the harness's files.

Nothing under ``src/`` is edited: :class:`Recorder` patches each layer's
callable *where the name is looked up* (a class attribute, or the importing
module's global), keeps spans in per-thread lists, and restores the
originals afterwards.  A target that no longer exists is skipped with a
warning, and every metric that depended on it reads ``None``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter
from typing import Iterable, NamedTuple

#: span name, module that holds the looked-up name, dotted attribute in it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # service.aio — only synchronous functions: a span over a coroutine
    # would count the time the event loop spent on other work.
    ("aio.process", "repro.service.aio", "AioServiceServer._process"),
    ("aio.publish", "repro.service.aio", "AioServiceServer._publish"),
    ("aio.view", "repro.service.aio", "PublishedView.__init__"),
    ("aio.respond", "repro.service.aio", "AioServiceServer._ok"),
    ("aio.respond", "repro.service.aio", "AioServiceServer._error"),
    ("aio.route", "repro.service.aio", "AioServiceServer._route"),
    ("aio.admit", "repro.service.aio", "AioServiceServer._admit"),
    # service.schema
    ("schema.parse", "repro.service.schema", "AllocateRequest.from_json"),
    ("schema.parse", "repro.service.schema", "CapacitySpec.from_json"),
    ("schema.parse", "repro.service.schema", "JobSpec.to_job"),
    ("schema.render", "repro.service.aio", "allocation_payload"),
    # service.daemon
    ("daemon.submit", "repro.service.daemon", "AllocationService.submit_all"),
    ("daemon.flush", "repro.service.daemon", "AllocationService.flush"),
    ("daemon.allocation", "repro.service.daemon", "AllocationService.allocation"),
    ("daemon.stats", "repro.service.daemon", "AllocationService.stats"),
    # service.batching / state / cache / solver
    ("batching.coalesce", "repro.service.daemon", "coalesce_batch"),
    ("state.apply", "repro.service.state", "ClusterState.apply_all"),
    ("state.snapshot", "repro.service.state", "ClusterState.snapshot"),
    ("cache.get", "repro.service.cache", "AllocationCache.get"),
    ("cache.put", "repro.service.cache", "AllocationCache.put"),
    ("solver.call", "repro.service.solver", "IncrementalAmfSolver.__call__"),
    # model
    ("model.cluster_build", "repro.model.cluster", "Cluster.__init__"),
    ("model.fingerprint", "repro.model.cluster", "Cluster.fingerprint"),
    # core
    ("policies.call", "repro.core.policies", "ResilientPolicy.__call__"),
    ("sharding.decompose", "repro.service.solver", "decompose"),
    ("sharding.solve_shards", "repro.service.solver", "solve_shards"),
    ("sharding.stitch", "repro.service.solver", "stitch"),
    ("amf.solve", "repro.core.sharding", "_solve_shard"),
    ("amf.solve", "repro.service.solver", "solve_amf"),
    # flownet
    ("parametric.probe", "repro.flownet.parametric", "ParametricFeasibility.probe"),
    ("arrayflow.max_flow", "repro.flownet.arrayflow", "ArrayFlowGraph.max_flow"),
    # multiresource.engine (linprog is imported inside the engine's solve)
    ("engine.route", "repro.multiresource.engine", "solve_multiresource"),
    ("engine.amrf", "repro.multiresource.engine", "amrf_allocate"),
    ("engine.lp", "scipy.optimize", "linprog"),
    # service.journal
    ("journal.append", "repro.service.journal", "WriteAheadJournal.append"),
    ("journal.sync", "repro.service.journal", "WriteAheadJournal.sync"),
    ("journal.checkpoint", "repro.service.journal", "WriteAheadJournal.checkpoint"),
    ("journal.recover", "repro.service.journal", "recover_state"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same thread's span list, -1 for a root
    op: int  # index of the op the client was waiting on, -1 outside the phase
    tid: int


def self_times(spans: Iterable[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    ``parent`` indexes into the sequence itself (spans of one thread, in
    start order); children of one parent never overlap each other because
    one thread runs one call at a time.
    """
    spans = list(spans)
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Recorder:
    """Installs the span wrappers and owns the recorded spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[tuple[int, list[list]]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> tuple[list[list], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            spans, stack = rec._state()
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, rec.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        for name, module_name, dotted in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{name} ({module_name}.{dotted})")
                print(f"ledger: warning: cannot trace {module_name}.{dotted}; {name} metrics read null", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        self.enabled = False
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def installed(self, name: str) -> bool:
        return not any(m.startswith(name + " ") for m in self.missing)

    # -- results -------------------------------------------------------
    def threads(self) -> list[list[Span]]:
        """Finished spans, one list per server thread, in start order."""
        with self._lock:
            threads = list(self._threads)
        return [_finished(spans, tid) for tid, spans in threads]

    def chrome_trace(self) -> dict:
        """Spans as Chrome-trace "complete" events (``chrome://tracing``, Perfetto)."""
        events = []
        for spans in self.threads():
            for s in spans:
                events.append(
                    {
                        "name": s.name,
                        "cat": s.name.split(".")[0],
                        "ph": "X",
                        "ts": 1e6 * s.start,
                        "dur": 1e6 * (s.end - s.start),
                        "pid": 1,
                        "tid": s.tid,
                        "args": {"op": s.op},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _finished(spans: list[list], tid: int) -> list[Span]:
    """The finished spans of one thread; a call still open when recording
    stopped is dropped and its children become roots."""
    keep: dict[int, int] = {}
    out: list[Span] = []
    for idx, s in enumerate(spans):
        if s[2] > 0.0:
            keep[idx] = len(out)
            out.append(Span(s[0], s[1], s[2], keep.get(s[3], -1), s[4], tid))
    return out


def layer_totals(threads: list[list[Span]], first_op: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s`` (summed self time), ``total_s`` (summed
    duration) and ``calls``, over the spans of ops ``>= first_op``."""
    out: dict[str, dict[str, float]] = {}
    for spans in threads:
        for span, self_s in zip(spans, self_times(spans)):
            if span.op < first_op:
                continue
            row = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += self_s
            row["total_s"] += span.end - span.start
            row["calls"] += 1
    return out
