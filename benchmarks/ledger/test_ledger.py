"""Tests of the ledger's own arithmetic and plumbing.

Run with ``python -m pytest benchmarks/ledger`` (tier-1 collects ``tests/``
only, so these never run there).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import run  # noqa: F401 - puts src/ on sys.path
from benchmarks.ledger import client, metrics, tracer, workloads
from benchmarks.ledger.rounds import Mirror, RoundResult
from benchmarks.ledger.tracer import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


# ----------------------------------------------------------------------
# Inputs are a pure function of the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(workload):
    a = workloads.build_inputs(workload, 7, 40)
    b = workloads.build_inputs(workload, 7, 40)
    assert a.cluster_json == b.cluster_json
    assert a.wire_digest_source() == b.wire_digest_source()
    assert len(a.streams) == workloads.CONNECTIONS[workload]
    assert all(len(s) == 40 for s in a.streams)
    other = workloads.build_inputs(workload, 8, 40)
    assert other.wire_digest_source() != a.wire_digest_source()
    assert other.cluster_json == a.cluster_json  # the clusters are a fixed data set


def test_op_mix_is_exact_whatever_the_seed():
    for seed in (1, 2):
        kinds = [op.kind for op in workloads.build_inputs("churn_connected", seed, 200).streams[0]]
        assert (kinds.count("arrive"), kinds.count("depart"), kinds.count("capacity")) == (90, 90, 20)
        flaps = [op.job for op in workloads.build_inputs("churn_vector", seed, 80).streams[0] if op.job.startswith("f")]
        assert len(flaps) == 20  # 10 arrive/depart pairs = 25% of 80 ops
        mix = [op.kind for op in workloads.build_inputs("read_mix", seed, 400).streams[0]]
        assert mix.count("read") == 380


def test_connected_churn_departs_its_own_arrivals_oldest_first():
    ops = workloads.build_inputs("churn_connected", 4, 60).streams[0]
    arrived = [op.job for op in ops if op.kind == "arrive"]
    departed = [op.job for op in ops if op.kind == "depart"]
    assert departed == arrived[: len(departed)] and len(departed) == 27


def test_streams_replay_without_rejections():
    for workload in workloads.WORKLOADS:
        inputs = workloads.build_inputs(workload, 3, 60)
        state = workloads.replay(inputs)  # ClusterState.apply raises on a bad delta
        assert state.n_jobs > 0


def test_vector_cluster_is_irreducible_and_flaps_revisit():
    from repro.multiresource.engine import scalar_reduction

    inputs = workloads.build_inputs("churn_vector", 11, 80)
    assert scalar_reduction(inputs.cluster) is None
    names = [op.job for op in inputs.streams[0]]
    flaps = [i for i, n in enumerate(names) if n.startswith("f")]
    assert flaps and len(flaps) % 2 == 0
    assert all(names[i] == names[i + 1] for i in flaps[::2])  # arrive the clone, then depart it


def test_read_mix_connections_delete_only_their_own_jobs():
    inputs = workloads.build_inputs("read_mix", 5, 400)
    deleted = [{op.job for op in s if op.kind == "delete_job"} for s in inputs.streams]
    assert deleted[0] and deleted[1] and not (deleted[0] & deleted[1])


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_percentile():
    assert metrics.percentile([5.0], 90) == 5.0
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert metrics.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert metrics.percentile(list(range(101)), 90) == 90.0
    assert metrics.percentile([0.0, 10.0], 25) == 2.5
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def _spans():
    # thread A: root(0..10) > child(1..4) > leaf(2..3); root > child2(5..9); second root (11..12)
    return [
        Span("daemon.allocation", 0.0, 10.0, -1, 0, 1),
        Span("solver.call", 1.0, 4.0, 0, 0, 1),
        Span("arrayflow.max_flow", 2.0, 3.0, 1, 0, 1),
        Span("schema.render", 5.0, 9.0, 0, 0, 1),
        Span("schema.render", 11.0, 12.0, -1, 1, 1),
    ]


def test_self_time_is_duration_minus_direct_children():
    assert tracer.self_times(_spans()) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(tracer.self_times(_spans())) == 11.0  # = time covered by the roots


def test_layer_totals_by_name_and_phase():
    totals = tracer.layer_totals([_spans()])
    assert totals["schema.render"] == {"self_s": 5.0, "total_s": 5.0, "calls": 2}
    assert totals["daemon.allocation"]["self_s"] == 3.0
    later = tracer.layer_totals([_spans()], first_op=1)
    assert list(later) == ["schema.render"] and later["schema.render"]["calls"] == 1


def test_recorder_wraps_nests_and_restores():
    import repro.service.cache as cache_mod

    original = cache_mod.AllocationCache.__dict__["get"]
    rec = tracer.Recorder()
    rec.install([("cache.get", "repro.service.cache", "AllocationCache.get"), ("gone", "repro.service.cache", "NoSuchThing.get")])
    assert rec.missing == ["gone (repro.service.cache.NoSuchThing.get)"]
    assert rec.installed("cache.get") and not rec.installed("gone")
    outer = rec.wrap("outer", lambda: inner())
    inner = rec.wrap("inner", lambda: 1)
    assert outer() == 1 and rec.threads() == []  # disabled: nothing recorded
    rec.enabled, rec.op = True, 3
    assert outer() == 1
    (spans,) = rec.threads()
    assert [(s.name, s.parent, s.op) for s in spans] == [("outer", -1, 3), ("inner", 0, 3)]
    assert rec.chrome_trace()["traceEvents"][1]["args"] == {"op": 3}
    rec.uninstall()
    assert cache_mod.AllocationCache.__dict__["get"] is original


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
STAT = "4242 (python -m (weird) name) S 1 4242 4242 0 -1 4194560 9 0 0 0 150 25 7 3 20 0 3 0 100 1 2 3\n"


def test_stat_parsing_survives_odd_command_names():
    assert client.parse_stat_cpu_ticks(STAT) == 150 + 25 + 7 + 3
    assert client.parse_status_kb("Name:\tx\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n", "VmHWM") == 20480
    assert client.parse_status_kb("Name:\tx\n", "VmHWM") is None


def test_proc_readings_sum_descendants_and_fall_back(tmp_path):
    for pid, children in ((10, "11"), (11, "")):
        task = tmp_path / str(pid) / "task" / str(pid)
        task.mkdir(parents=True)
        (task / "children").write_text(children)
        (tmp_path / str(pid) / "stat").write_text(STAT.replace("4242", str(pid), 1))
        (tmp_path / str(pid) / "status").write_text("VmHWM:\t1024 kB\n")
    ticks = 2 * (150 + 25 + 7 + 3)
    assert client.process_cpu_ms(10, tmp_path) == pytest.approx(1e3 * ticks / client._CLK_TCK)
    assert client.process_peak_rss_mb(10, tmp_path) == 2.0
    assert client.process_cpu_ms(10, tmp_path / "absent") is None
    for pid, ns in ((10, 5_000_000), (11, 2_500_000)):  # the scheduler's clock wins where there is one
        (tmp_path / str(pid) / "task" / str(pid) / "schedstat").write_text(f"{ns} 123 4\n")
    assert client.process_cpu_ms(10, tmp_path) == 7.5
    assert client.process_peak_rss_mb(10, tmp_path / "absent") is None


def _round(writes, follows, **fields):
    r = RoundResult("churn_sharded", 0, 50.0, fields.pop("setup_s", 0.4), n_ops=len(writes), wall_s=1.0)
    r.is_write, r.op_ms, r.follow_ms = [True] * len(writes), list(writes), list(follows)
    for key, value in fields.items():
        setattr(r, key, value)
    r.piece_s.append(r.wall_s)  # one piece, as with several connections
    r.piece_cpu_ms.append(r.cpu_ms)
    return r


def test_end_to_end_reads_null_without_proc():
    r = _round([1.0, 3.0], [0.5, 0.7])
    row = metrics.end_to_end([r])
    assert row["server_cpu_ms_per_op"] is None and row["peak_rss_mb"] is None
    assert row["write_p50_ms"] == 2.0 and row["ops_per_s"] == 2.0 and row["setup_s"] == 0.4


def test_an_op_is_as_fast_as_its_fastest_repetition():
    quiet = _round([10.0, 20.0, 30.0], [1.0, 1.0, 1.0], wall_s=1.0, cpu_ms=90.0, peak_rss_mb=50.0)
    disturbed = _round([14.0, 19.0, None], [3.0, 0.9, 1.2], wall_s=1.5, cpu_ms=99.0, peak_rss_mb=52.0, setup_s=0.6)
    row = metrics.end_to_end([quiet, disturbed])
    assert row["write_p50_ms"] == 19.0  # per-op minima: 10, 19, 30
    assert row["read_p50_ms"] == 1.0  # 1.0, 0.9, 1.0
    assert row["ops_per_s"] == 3.0 and row["server_cpu_ms_per_op"] == 30.0  # the least disturbed round
    # cut after every op, the phase is put together from each op's cheapest repetition
    quiet.piece_s, disturbed.piece_s = [0.2, 0.3, 0.5], [0.3, 0.2, 1.0]
    quiet.piece_cpu_ms, disturbed.piece_cpu_ms = [20.0, 30.0, 40.0], [25.0, 26.0, 48.0]
    row = metrics.end_to_end([quiet, disturbed])
    assert row["ops_per_s"] == pytest.approx(3 / 0.9) and row["server_cpu_ms_per_op"] == pytest.approx(86.0 / 3)
    assert row["write_p90_ms"] == metrics.percentile([10.0, 20.0, 30.0, 14.0, 19.0], 90)  # tails pool raw samples
    assert row["setup_s"] == 0.5 and row["peak_rss_mb"] == 51.0  # medians over the boots


# ----------------------------------------------------------------------
# Degrade, don't crash
# ----------------------------------------------------------------------
def test_missing_stats_key_or_span_reads_null_with_a_warning():
    counted = RoundResult("churn_sharded", 0, 50.0, 0.4, n_ops=4)
    counted.stats_before = {"cache": {"hits": 1, "misses": 1}}
    counted.stats_after = {"cache": {"hits": 4, "misses": 2}}
    traced = RoundResult("churn_sharded", 0, 50.0, 0.4, n_ops=1)
    warnings: list[str] = []
    ctx = metrics.LayerContext(counted, traced, [_spans()], lambda name: name != "journal.sync", warnings.append)
    row = metrics.per_layer(ctx)
    assert row["cache.hit_rate"] == 0.75
    assert row["schema.render_calls"] == 2.0
    assert row["amf.rounds"] is None and "/v1/stats has no incremental.rounds" in warnings
    assert row["journal.sync_ms"] is None  # its wrapped callable is gone
    assert row["journal.append_ms"] == 0.0  # traceable, just never called
    assert set(row) == {name for name, *_ in metrics.PER_LAYER}


# ----------------------------------------------------------------------
# Correctness checks catch what they claim to
# ----------------------------------------------------------------------
def test_mirror_flags_overuse_and_cap_violations():
    inputs = workloads.build_inputs("churn_vector", 2, 8)
    mirror = Mirror(inputs.cluster)
    job = inputs.cluster.jobs[0]
    site = next(iter(job.workload))
    empty = {j.name: {"aggregate": 0.0, "shares": {}} for j in inputs.cluster.jobs}
    assert mirror.check({"jobs": empty}) is None
    over_cap = {**empty, job.name: {"aggregate": job.demand[site] + 1.0, "shares": {site: job.demand[site] + 1.0}}}
    assert "above demand cap" in mirror.check({"jobs": over_cap})
    every = {
        j.name: {"aggregate": j.demand[site], "shares": {site: j.demand[site]}}
        for j in inputs.cluster.jobs
        if site in j.workload
    }
    assert "above capacity" in mirror.check({"jobs": {**empty, **every}})
    assert "lists" in mirror.check({"jobs": {}})


# ----------------------------------------------------------------------
# --compare and BENCHMARK.json
# ----------------------------------------------------------------------
def test_compare_gates_on_the_bound_in_the_bad_direction_only():
    names = [name for name, _u, _b in metrics.END_TO_END]
    bounds = dict.fromkeys(names, 0.10)
    base = {"workloads": {"w": {"failed": 0, "end_to_end": dict.fromkeys(names, 100.0)}}}
    faster = {"workloads": {"w": {"failed": 0, "end_to_end": {**dict.fromkeys(names, 50.0), "ops_per_s": 200.0}}}}
    assert "write_p90_ms" not in names  # reported, not gated
    slower = {"workloads": {"w": {"failed": 0, "end_to_end": {**dict.fromkeys(names, 100.0), "ops_per_s": 85.0}}}}
    assert metrics.compare(base, base, bounds)[1]
    assert metrics.compare(base, faster, bounds)[1]
    lines, ok = metrics.compare(base, slower, bounds)
    assert not ok and sum("OUTSIDE" in line for line in lines) == 1


def test_benchmark_json_lists_exactly_what_the_ledger_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [row[:3] for row in metrics.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert all(len(why) <= 200 for why in workloads.WORKLOADS.values())
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# The real thing, small
# ----------------------------------------------------------------------
def test_smoke_run_exits_zero_with_nothing_failed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 1000
    assert "failed_ratio 0 " in proc.stdout
