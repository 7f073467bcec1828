"""Metric definitions and the arithmetic that turns rounds into numbers.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the ledger
reports; ``BENCHMARK.json`` repeats the names with their bounds and
``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Sequence

from benchmarks.ledger.rounds import RoundResult
from benchmarks.ledger.tracer import Span, layer_totals


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: The tail percentile: the highest that leaves >= 10 samples beyond it on
#: the smallest sample a run pools (churn_connected: 204 writes).
TAIL = 90

#: name, unit, better — the gated metrics.  Every one is reported on every
#: workload; on ``read_mix`` a "write" is the asynchronous 202 acknowledgement.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("server_cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Reported beside the gated metrics but not gated: the tails' run-to-run
#: spread reaches the largest bound a gate may have (README, "What is not gated").
UNGATED: tuple[tuple[str, str, str], ...] = (
    (f"write_p{TAIL}_ms", "ms", "lower"),
    (f"read_p{TAIL}_ms", "ms", "lower"),
)


def _best(columns: Sequence[Sequence[float | None]]) -> list[float | None]:
    """Per op, the fastest of its repetitions (None if it never succeeded)."""
    return [min((v for v in values if v is not None), default=None) for values in zip(*columns)]


def _undisturbed(columns: Sequence[Sequence[float | None]]) -> float | None:
    """The phase put together from each piece's least disturbed repetition."""
    best = _best(columns)
    return None if not best or None in best else sum(best)


def end_to_end(rounds: Sequence[RoundResult]) -> dict[str, float | None]:
    """Every round of a run sends the same requests to a fresh server.
    Interference on a shared host only ever adds time, so an op takes as
    long as its fastest repetition and the medians are taken over those
    times.  The rate and the CPU per op are the means' counterpart: the
    phase's wall and CPU time summed over its pieces (``RoundResult.piece_s``),
    each piece taken from the repetition where it cost least.  The tails
    pool every raw sample instead — a tail *is* the disturbed moments.
    Set-up and RSS are medians over the boots."""
    first = rounds[0]
    op_ms = _best([r.op_ms for r in rounds])
    writes = [ms for ms, w in zip(op_ms, first.is_write) if w and ms is not None]
    reads = [ms for ms, w in zip(op_ms, first.is_write) if not w and ms is not None]
    reads += [ms for ms in _best([r.follow_ms for r in rounds]) if ms is not None]
    every_write = [ms for r in rounds for ms in r.write_ms]
    every_read = [ms for r in rounds for ms in r.read_ms]
    wall_s = _undisturbed([r.piece_s for r in rounds])
    cpu_ms = _undisturbed([r.piece_cpu_ms for r in rounds])
    rss = [r.peak_rss_mb for r in rounds if r.peak_rss_mb is not None]
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "write_p50_ms": percentile(writes, 50) if writes else None,
        "read_p50_ms": percentile(reads, 50) if reads else None,
        "ops_per_s": first.n_ops / wall_s if wall_s else None,
        "server_cpu_ms_per_op": cpu_ms / first.n_ops if cpu_ms is not None and first.n_ops else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
        f"write_p{TAIL}_ms": percentile(every_write, TAIL) if every_write else None,
        f"read_p{TAIL}_ms": percentile(every_read, TAIL) if every_read else None,
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _dig(stats: dict[str, Any], path: str) -> Any:
    node: Any = stats
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


class LayerContext:
    """What the per-layer formulas read: the ``/v1/stats`` delta of an
    untraced round and the spans of the traced round.  Every accessor
    returns ``None`` when its source is gone, and ``None`` propagates."""

    def __init__(
        self,
        counted: RoundResult,
        traced: RoundResult | None,
        threads: list[list[Span]],
        installed: Callable[[str], bool],
        warn: Callable[[str], None],
    ):
        self.counted = counted
        self.traced = traced
        self.threads = threads
        self.totals = layer_totals(threads)
        self.installed = installed
        self.warn = warn
        self.traced_ops = traced.n_ops if traced is not None else 0

    # -- /v1/stats -----------------------------------------------------
    def stat(self, path: str) -> float | None:
        value = _dig(self.counted.stats_after, path)
        if value is None:
            self.warn(f"/v1/stats has no {path}")
        return value

    def delta(self, path: str) -> float | None:
        after = _dig(self.counted.stats_after, path)
        before = _dig(self.counted.stats_before, path)
        if after is None or before is None:
            self.warn(f"/v1/stats has no {path}")
            return None
        return after - before

    def per_op(self, *paths: str) -> float | None:
        parts = [self.delta(p) for p in paths]
        if None in parts or not self.counted.n_ops:
            return None
        return sum(parts) / self.counted.n_ops

    def ratio(self, num: Sequence[str], den: Sequence[str]) -> float | None:
        """sum(num deltas) / sum(den deltas); 0 when nothing was attempted."""
        top = [self.delta(p) for p in num]
        bottom = [self.delta(p) for p in den]
        if None in top or None in bottom:
            return None
        return sum(top) / sum(bottom) if sum(bottom) else 0.0

    # -- spans ---------------------------------------------------------
    def _span(self, field: str, names: Sequence[str]) -> float | None:
        if self.traced is None or not self.traced_ops:
            return None
        total = 0.0
        for name in names:
            if not self.installed(name):
                return None
            total += self.totals.get(name, {}).get(field, 0.0)
        return total

    def self_ms(self, *names: str) -> float | None:
        total = self._span("self_s", names)
        return None if total is None else 1e3 * total / self.traced_ops

    def total_ms(self, *names: str) -> float | None:
        total = self._span("total_s", names)
        return None if total is None else 1e3 * total / self.traced_ops

    def calls(self, *names: str) -> float | None:
        total = self._span("calls", names)
        return None if total is None else total / self.traced_ops

    def ms_per_call(self, name: str) -> float | None:
        """Mean duration of a call, boot and shutdown included (for spans
        that hardly ever run inside the measured phase)."""
        if self.traced is None or not self.installed(name):
            return None
        durations = [s.end - s.start for spans in self.threads for s in spans if s.name == name]
        return 1e3 * statistics.mean(durations) if durations else 0.0

    # -- trace quality -------------------------------------------------
    def overhead_ratio(self) -> float | None:
        if self.traced is None or not self.traced.write_ms or not self.counted.write_ms:
            return None
        return percentile(self.traced.write_ms, 50) / percentile(self.counted.write_ms, 50)

    def coverage(self) -> float | None:
        """Sum of all layer self times / client-observed latency."""
        if self.traced is None:
            return None
        observed = sum(self.traced.write_ms) + sum(self.traced.read_ms)
        spanned = sum(row["self_s"] for row in self.totals.values())
        return 1e3 * spanned / observed if observed else None


_PROBES = ("incremental.probes_early_accept", "incremental.probes_cut_reject", "incremental.probes_warm", "incremental.probes_cold")

#: name, unit, better, formula.  Times are self time in ms per op of the
#: traced round; counts are per op of an untraced round unless noted.
PER_LAYER: tuple[tuple[str, str, str, Callable[[LayerContext], float | None]], ...] = (
    # service.aio
    ("aio.edge_ms", "ms", "lower", lambda c: c.self_ms("aio.process", "aio.respond", "aio.route", "aio.admit")),
    ("aio.publish_ms", "ms", "lower", lambda c: c.self_ms("aio.publish", "aio.view")),
    ("aio.publishes", "count", "lower", lambda c: c.calls("aio.publish")),
    ("aio.read_bytes", "B", "lower", lambda c: c.counted.read_bytes / c.counted.n_ops if c.counted.n_ops else None),
    ("aio.shed", "count", "lower", lambda c: c.delta("admission.shed")),
    # service.schema
    ("schema.parse_ms", "ms", "lower", lambda c: c.self_ms("schema.parse")),
    ("schema.render_ms", "ms", "lower", lambda c: c.self_ms("schema.render")),
    ("schema.render_calls", "count", "lower", lambda c: c.calls("schema.render")),
    # service.daemon
    ("daemon.submit_ms", "ms", "lower", lambda c: c.self_ms("daemon.submit")),
    ("daemon.flush_ms", "ms", "lower", lambda c: c.self_ms("daemon.flush")),
    ("daemon.allocation_ms", "ms", "lower", lambda c: c.self_ms("daemon.allocation")),
    ("daemon.stats_ms", "ms", "lower", lambda c: c.self_ms("daemon.stats")),
    # service.batching
    ("batching.coalesce_ms", "ms", "lower", lambda c: c.self_ms("batching.coalesce")),
    ("batching.mean_batch", "count", "higher", lambda c: c.ratio(["batching.coalesced_events"], ["batching.batches"])),
    ("batching.folded", "count", "higher", lambda c: c.per_op("batching.folded_events")),
    # service.state
    ("state.apply_ms", "ms", "lower", lambda c: c.self_ms("state.apply")),
    ("state.snapshot_ms", "ms", "lower", lambda c: c.self_ms("state.snapshot")),
    # model
    ("model.fingerprint_ms", "ms", "lower", lambda c: c.self_ms("model.fingerprint")),
    ("model.fingerprint_calls", "count", "lower", lambda c: c.calls("model.fingerprint")),
    ("model.cluster_build_ms", "ms", "lower", lambda c: c.self_ms("model.cluster_build")),
    ("model.cluster_builds", "count", "lower", lambda c: c.calls("model.cluster_build")),
    # service.cache
    ("cache.hit_rate", "ratio", "higher", lambda c: c.ratio(["cache.hits"], ["cache.hits", "cache.misses"])),
    ("cache.evictions", "count", "lower", lambda c: c.per_op("cache.evictions")),
    ("cache.get_ms", "ms", "lower", lambda c: c.self_ms("cache.get", "cache.put")),
    # service.solver
    ("solver.self_ms", "ms", "lower", lambda c: c.self_ms("solver.call")),
    ("solver.shard_cache_hit_rate", "ratio", "higher", lambda c: c.ratio(["sharding.shard_cache_hits"], ["sharding.shard_cache_hits", "sharding.shard_cache_misses"])),
    ("solver.shard_solves", "count", "lower", lambda c: c.per_op("sharding.shard_solves")),
    # core.sharding
    ("sharding.decompose_ms", "ms", "lower", lambda c: c.self_ms("sharding.decompose")),
    ("sharding.shards", "count", "lower", lambda c: c.stat("sharding.last_shards")),
    ("sharding.solve_shards_ms", "ms", "lower", lambda c: c.self_ms("sharding.solve_shards")),
    ("sharding.stitch_ms", "ms", "lower", lambda c: c.self_ms("sharding.stitch")),
    # core.amf
    ("amf.fill_ms", "ms", "lower", lambda c: c.self_ms("amf.solve")),
    ("amf.rounds", "count", "lower", lambda c: c.per_op("incremental.rounds")),
    ("amf.probes", "count", "lower", lambda c: c.per_op("incremental.feasibility_solves")),
    ("amf.warm_cuts_seeded", "count", "higher", lambda c: c.per_op("incremental.warm_cuts_seeded")),
    # core.policies
    ("policies.self_ms", "ms", "lower", lambda c: c.self_ms("policies.call")),
    ("policies.fallback_activations", "count", "lower", lambda c: c.delta("resilience.fallback_activations")),
    # flownet.parametric
    ("parametric.probe_ms", "ms", "lower", lambda c: c.self_ms("parametric.probe")),
    ("parametric.reused_ratio", "ratio", "higher", lambda c: c.ratio(["incremental.probes_reused"], _PROBES)),
    ("parametric.cold", "count", "lower", lambda c: c.per_op("incremental.probes_cold")),
    ("parametric.warm", "count", "higher", lambda c: c.per_op("incremental.probes_warm")),
    ("parametric.early_accept", "count", "higher", lambda c: c.per_op("incremental.probes_early_accept")),
    ("parametric.cut_reject", "count", "higher", lambda c: c.per_op("incremental.probes_cut_reject")),
    # flownet.arrayflow
    ("arrayflow.max_flow_ms", "ms", "lower", lambda c: c.self_ms("arrayflow.max_flow")),
    ("arrayflow.max_flow_calls", "count", "lower", lambda c: c.calls("arrayflow.max_flow")),
    # multiresource.engine
    ("engine.amrf_ms", "ms", "lower", lambda c: c.self_ms("engine.route", "engine.amrf")),
    ("engine.lp_ms", "ms", "lower", lambda c: c.total_ms("engine.lp")),
    ("engine.lps", "count", "lower", lambda c: c.per_op("incremental.amrf_lps")),
    ("engine.table_hit_rate", "ratio", "higher", lambda c: c.ratio(["incremental.amrf_table_hits"], ["sharding.shard_solves"])),
    ("engine.basis_rows_reused", "count", "higher", lambda c: c.per_op("incremental.amrf_basis_rows_reused")),
    ("engine.probes_skipped_ratio", "ratio", "higher", lambda c: c.ratio(["incremental.amrf_probes_skipped"], ["incremental.amrf_probes_skipped", "incremental.amrf_probes"])),
    # service.journal
    ("journal.append_ms", "ms", "lower", lambda c: c.self_ms("journal.append")),
    ("journal.sync_ms", "ms", "lower", lambda c: c.self_ms("journal.sync")),
    ("journal.fsyncs", "count", "lower", lambda c: c.per_op("journal.fsyncs")),
    ("journal.bytes_per_op", "B", "lower", lambda c: c.per_op("journal.bytes_written")),
    ("journal.checkpoint_ms", "ms", "lower", lambda c: c.ms_per_call("journal.checkpoint")),
    ("journal.checkpoints", "count", "lower", lambda c: c.stat("journal.checkpoints")),
    ("journal.recover_ms", "ms", "lower", lambda c: c.counted.recover_ms),
    # the client's view of the tail (ungated; raw samples of the untraced round)
    (f"client.write_p{TAIL}_ms", "ms", "lower", lambda c: percentile(c.counted.write_ms, TAIL) if c.counted.write_ms else None),
    (f"client.read_p{TAIL}_ms", "ms", "lower", lambda c: percentile(c.counted.read_ms, TAIL) if c.counted.read_ms else None),
    # the trace itself
    ("trace.overhead_ratio", "ratio", "lower", LayerContext.overhead_ratio),
    ("trace.coverage", "ratio", "higher", LayerContext.coverage),
)


def per_layer(ctx: LayerContext) -> dict[str, float | None]:
    return {name: formula(ctx) for name, _unit, _better, formula in PER_LAYER}


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _better in END_TO_END + UNGATED}
    out.update({name: unit for name, unit, _better, _f in PER_LAYER})
    return out


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[str], bool]:
    """Per workload x end-to-end metric: how much worse B is than A, as a
    share of A, against the metric's bound.  Returns report lines and
    whether everything stayed inside."""
    lines = [f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}"]
    ok = True
    better = {name: direction for name, _unit, direction in END_TO_END}
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None:
            lines.append(f"{workload:16s} missing from B")
            ok = False
            continue
        if row_a.get("failed") or row_b.get("failed"):
            lines.append(f"{workload:16s} failed ops: A {row_a.get('failed')} B {row_b.get('failed')}")
            ok = False
        for name, direction in better.items():
            va, vb = row_a["end_to_end"].get(name), row_b["end_to_end"].get(name)
            if va is None or vb is None or va == 0:
                lines.append(f"{workload:16s} {name:22s} not comparable ({va} vs {vb})")
                ok = False
                continue
            worse = (vb - va) / va if direction == "lower" else (va - vb) / va
            inside = worse <= bounds[name]
            ok = ok and inside
            lines.append(
                f"{workload:16s} {name:22s} {va:12.4f} {vb:12.4f} {worse:+9.1%} {bounds[name]:6.0%}"
                + ("" if inside else "  OUTSIDE")
            )
    return lines, ok
