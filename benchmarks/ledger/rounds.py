"""One round: boot a fresh server, drive the op stream, check every answer.

The timed loop (:func:`drive`) only sends pre-rendered bytes and stores the
raw answers; everything that costs generator CPU — JSON parsing, the
feasibility checks, the replay and the cold reference solve — happens after
the measured phase, so it never competes with the server for the pinned CPU
inside a latency sample.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.ledger.client import Conn, ServerProcess, calibration_ms
from benchmarks.ledger.workloads import (
    READ_ALLOCATION,
    READ_HEALTH,
    READ_STATS,
    Inputs,
    Op,
    reordered,
    replay,
)
from repro.model.cluster import Cluster
from repro.service.state import CapacityChanged, JobArrived, JobDeparted

TOL = 1e-6
FOLLOW_READS = 4  # GETs after each churn event


@dataclass
class OpSample:
    """Raw record of one op: when it was sent, when answered, the answers."""

    op: Op
    t0: float
    t1: float
    answers: list[tuple[int, bytes]]  # one per request of the op
    follow: tuple[int, bytes, float, float] | None = None
    error: str | None = None
    mark: tuple[float, float | None] = (0.0, None)  # clock and server CPU (ms) once the op is over


@dataclass
class RoundResult:
    workload: str
    repetition: int
    calib_ms: float
    setup_s: float
    n_ops: int = 0
    wall_s: float = 0.0
    cpu_ms: float | None = None
    # The measured phase cut where every repetition is at the same point of
    # the same work: after each op with one connection, only at its ends
    # with several (how they interleave differs from round to round).
    piece_s: list[float] = field(default_factory=list)
    piece_cpu_ms: list[float | None] = field(default_factory=list)
    peak_rss_mb: float | None = None
    # One entry per op, in stream order (connection after connection), so
    # repetitions of a round line up op by op; None where the op errored.
    is_write: list[bool] = field(default_factory=list)
    op_ms: list[float | None] = field(default_factory=list)
    follow_ms: list[float | None] = field(default_factory=list)  # the read after a churn event
    read_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few messages
    stats_before: dict[str, Any] = field(default_factory=dict)
    stats_after: dict[str, Any] = field(default_factory=dict)
    recover_ms: float | None = None
    disturbed: bool = False  # ran slower than the fastest repetition of the same requests

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    @property
    def write_ms(self) -> list[float]:
        return [ms for ms, w in zip(self.op_ms, self.is_write) if w and ms is not None]

    @property
    def read_ms(self) -> list[float]:
        reads = [ms for ms, w in zip(self.op_ms, self.is_write) if not w and ms is not None]
        return reads + [ms for ms in self.follow_ms if ms is not None]


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
def drive(
    conn: Conn,
    stream: list[Op],
    on_op: Callable[[int], None] | None = None,
    meter: Callable[[], float | None] = lambda: None,
) -> list[OpSample]:
    out: list[OpSample] = []
    send = conn.send
    for idx, op in enumerate(stream):
        if on_op is not None:
            on_op(idx)
        answers: list[tuple[int, bytes]] = []
        first = last = 0.0
        try:
            for req in op.requests:
                status, body, t0, last = send(req)
                if not answers:
                    first = t0
                answers.append((status, body))
            follow = None
            if op.follow is not None:
                # the same GET of the same published view, FOLLOW_READS times:
                # they differ only by interference, so the fastest is kept
                follow = min((send(op.follow) for _ in range(FOLLOW_READS)), key=lambda a: a[3] - a[2])
            out.append(OpSample(op, first, last, answers, follow))
        except (OSError, ValueError) as exc:
            out.append(OpSample(op, first, last, answers, None, f"{type(exc).__name__}: {exc}"))
            conn.connect()
        cpu = meter()
        out[-1].mark = (time.perf_counter(), cpu)
    return out


def drive_all(
    conns: list[Conn],
    streams: list[list[Op]],
    on_op: Callable[[int], None] | None = None,
    meter: Callable[[], float | None] = lambda: None,
) -> tuple[list[list[OpSample]], float, float]:
    """Drive one stream per connection (one thread each beyond the first);
    returns the samples and when the phase began and ended.  A single
    stream reads ``meter`` (the server's CPU time) after every op."""
    if len(streams) == 1:
        t0 = time.perf_counter()
        samples = [drive(conns[0], streams[0], on_op, meter)]
        return samples, t0, time.perf_counter()
    results: list[list[OpSample]] = [[] for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)

    def worker(k: int) -> None:
        barrier.wait()
        results[k] = drive(conns[k], streams[k])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(streams))]
    for th in threads:
        th.start()
    barrier.wait()
    t0 = time.perf_counter()
    for th in threads:
        th.join()
    return results, t0, time.perf_counter()


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Mirror:
    """The harness's own copy of what the cluster must look like."""

    def __init__(self, cluster: Cluster, universe: dict[str, Any] | None = None):
        self.capacity = {s.name: s.resource_vector for s in cluster.sites}
        self.jobs = {j.name: j for j in cluster.jobs}
        # read_mix: two connections interleave, so a read can only be
        # checked against every job that may exist, not the exact set
        self.universe = universe

    def apply(self, event) -> None:
        if isinstance(event, JobArrived):
            self.jobs[event.job.name] = event.job
        elif isinstance(event, JobDeparted):
            self.jobs.pop(event.name, None)
        elif isinstance(event, CapacityChanged):
            cap = event.capacity
            self.capacity[event.site] = dict(cap) if isinstance(cap, dict) else {"slots": float(cap)}

    def check(self, payload: dict[str, Any]) -> str | None:
        """Usage <= capacity and shares <= demand caps, both at ``TOL``."""
        known = self.jobs if self.universe is None else self.universe
        listed = payload["jobs"]
        if self.universe is None and len(listed) != len(known):
            return f"allocation lists {len(listed)} jobs, state holds {len(known)}"
        usage: dict[str, dict[str, float]] = {}
        for name, entry in listed.items():
            job = known.get(name)
            if job is None:
                return f"allocation lists unknown job {name!r}"
            vec = job.resource_vector
            total = 0.0
            for site, share in entry["shares"].items():
                if site not in job.workload:
                    return f"job {name!r} holds a share at {site!r} outside its support"
                cap = job.demand.get(site)
                if cap is not None and share > cap + TOL:
                    return f"job {name!r} at {site!r}: share {share} above demand cap {cap}"
                total += share
                used = usage.setdefault(site, {})
                for res, amount in vec.items():
                    used[res] = used.get(res, 0.0) + share * amount
            if abs(total - entry["aggregate"]) > TOL * max(1.0, total):
                return f"job {name!r}: aggregate {entry['aggregate']} != sum of shares {total}"
        for site, used in usage.items():
            for res, amount in used.items():
                cap = self.capacity[site].get(res, 0.0)
                if amount > cap + TOL * max(1.0, cap):
                    return f"site {site!r}: {res} usage {amount} above capacity {cap}"
        return None


def _statuses_ok(sample: OpSample) -> str | None:
    if sample.error is not None:
        return sample.error
    for req, (status, body) in zip(sample.op.requests, sample.answers):
        if status != req.expect:
            return f"{req.method} {req.path}: status {status}, expected {req.expect}: {body[:120]!r}"
    if sample.follow is not None and sample.follow[0] != sample.op.follow.expect:
        return f"follow-up read: status {sample.follow[0]}"
    return None


def verify_churn(result: RoundResult, inputs: Inputs, samples: list[OpSample], first_version: int) -> None:
    """Per-op checks of a single-connection churn stream."""
    mirror = Mirror(inputs.cluster)
    version = first_version
    for idx, sample in enumerate(samples):
        op = sample.op
        mirror.apply(op.event)
        problem = _statuses_ok(sample)
        if problem is None:
            payload = json.loads(sample.answers[-1][1])
            if payload["version"] <= version:
                problem = f"version {payload['version']} not above {version}"
            version = max(version, payload["version"])
            if problem is None and op.kind == "arrive" and op.job not in payload["jobs"]:
                problem = f"arrived job {op.job!r} missing from its allocation"
            if problem is None and op.kind == "depart" and op.job in payload["jobs"]:
                problem = f"departed job {op.job!r} still allocated"
            if problem is None:
                problem = mirror.check(payload)
            if problem is None:
                read = json.loads(sample.follow[1])
                if read["version"] < payload["version"]:
                    problem = f"read version {read['version']} behind write {payload['version']}"
                elif read["version"] == payload["version"] and read["fingerprint"] != payload["fingerprint"]:
                    problem = "read fingerprint differs from the write's at the same version"
        if problem is not None:
            result.fail(f"op {idx} ({op.kind}): {problem}")


def verify_read_mix(result: RoundResult, inputs: Inputs, per_conn: list[list[OpSample]]) -> None:
    universe = {j.name: j for j in inputs.cluster.jobs}
    for stream in inputs.streams:
        for op in stream:
            if isinstance(op.event, JobArrived):
                universe[op.event.job.name] = op.event.job
    mirror = Mirror(inputs.cluster, universe)
    checked: bytes | None = None  # reads between two publishes are byte-identical
    for conn_idx, samples in enumerate(per_conn):
        version = -1
        for idx, sample in enumerate(samples):
            problem = _statuses_ok(sample)
            if problem is None and sample.op.kind == "read":
                path = sample.op.requests[0].path
                body = sample.answers[0][1]
                if path.startswith("/v1/allocate"):
                    if body != checked:
                        payload = json.loads(body)
                        problem = mirror.check(payload)
                        if payload["version"] < version:
                            problem = f"read version went back from {version} to {payload['version']}"
                        version = max(version, payload["version"])
                        checked = body
                else:
                    payload = json.loads(body)
                    if path.startswith("/v1/health") and payload.get("status") != "ok":
                        problem = f"health says {payload.get('status')!r}"
                    elif path.startswith("/v1/jobs") and payload["pagination"]["returned"] != len(payload["jobs"]):
                        problem = "jobs page size disagrees with its pagination block"
                    elif path.startswith("/v1/stats") and "state" not in payload:
                        problem = "stats lack the state section"
            if problem is not None:
                result.fail(f"conn {conn_idx} op {idx} ({sample.op.kind}): {problem}")


def verify_final(result: RoundResult, inputs: Inputs, final: dict[str, Any]) -> None:
    """Final state == independent replay; final aggregates == cold solve."""
    expected = replay(inputs).snapshot()
    order = list(final["jobs"])
    if len(inputs.streams) > 1:
        try:
            expected = reordered(expected, order)
        except ValueError:
            result.fail("final job set differs from the replayed op streams")
            return
    if expected.fingerprint() != final["fingerprint"]:
        result.fail("final fingerprint differs from the in-process replay")
        return
    if expected.is_multiresource:
        from repro.multiresource.engine import amrf_allocate

        cold = amrf_allocate(expected)
        scale = expected.dominant_factor()  # compare dominant shares
    else:
        from repro.core.amf import solve_amf

        # cold but sharded, like the served path: the monolithic solve is the
        # less exact of the two on many-component clusters (README, findings)
        cold = solve_amf(expected, shards=True)
        scale = [1.0] * expected.n_jobs
    worst = 0.0
    for i, job in enumerate(expected.jobs):
        got = final["jobs"][job.name]["aggregate"]
        worst = max(worst, abs(got - float(cold.aggregates[i])) * float(scale[i]))
    if worst > TOL:
        result.fail(f"final aggregates differ from a cold solve by {worst:.3g}")


def verify_recovery(result: RoundResult, journal_dir: Path, fingerprint: str) -> None:
    """After SIGKILL: the journal must rebuild the last acknowledged state."""
    from repro.service.journal import recover_state

    result.attempted += 1
    t0 = time.perf_counter()
    state, _rec = recover_state(journal_dir)
    result.recover_ms = 1e3 * (time.perf_counter() - t0)
    if state is None or state.snapshot().fingerprint() != fingerprint:
        result.fail("journal recovery after SIGKILL does not reproduce the last acknowledged state")


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
def _wait_drained(conn: Conn, timeout: float = 10.0) -> None:
    """Until the coalescing queue is empty (asynchronous writes flush on
    their own within ``max_delay``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _t0, _t1 = conn.send(READ_HEALTH)
        if status == 200 and json.loads(body)["pending_events"] == 0:
            return
        time.sleep(0.02)
    raise TimeoutError("server still has pending events")


def measure(
    result: RoundResult,
    inputs: Inputs,
    conns: list[Conn],
    streams: list[list[Op]],
    on_op: Callable[[int], None] | None = None,
    cpu_ms: Callable[[], float | None] = lambda: None,
) -> dict[str, Any]:
    """The measured phase plus every check; returns the final allocation."""
    control = conns[0]
    first_version = json.loads(control.send(READ_ALLOCATION)[1])["version"]
    result.stats_before = json.loads(control.send(READ_STATS)[1])
    cpu0 = cpu_ms()
    per_conn, t0, t1 = drive_all(conns, streams, on_op, cpu_ms)
    cpu1 = cpu_ms()
    result.wall_s = t1 - t0
    if cpu0 is not None and cpu1 is not None:
        result.cpu_ms = cpu1 - cpu0
    marks = [(t0, cpu0), *(s.mark for s in per_conn[0])] if len(streams) == 1 else [(t0, cpu0), (t1, cpu1)]
    for (ta, ca), (tb, cb) in zip(marks, marks[1:]):
        result.piece_s.append(tb - ta)
        result.piece_cpu_ms.append(None if ca is None or cb is None else cb - ca)
    _wait_drained(control)
    result.stats_after = json.loads(control.send(READ_STATS)[1])
    final = json.loads(control.send(READ_ALLOCATION)[1])

    result.n_ops = sum(len(s) for s in per_conn)
    result.attempted = result.n_ops + 1  # + the end-of-round state check
    for samples in per_conn:
        for sample in samples:
            ok = sample.error is None
            write = sample.op.kind != "read"
            result.is_write.append(write)
            result.op_ms.append(1e3 * (sample.t1 - sample.t0) if ok else None)
            if ok and not write:
                result.read_bytes += len(sample.answers[0][1])
            if sample.op.follow is not None:
                answered = ok and sample.follow is not None
                result.follow_ms.append(1e3 * (sample.follow[3] - sample.follow[2]) if answered else None)
                if answered:
                    result.read_bytes += len(sample.follow[1])
    if len(streams) == 1 and streams[0] and streams[0][0].follow is not None:
        verify_churn(result, inputs, per_conn[0], first_version)
    else:
        verify_read_mix(result, inputs, per_conn)
    verify_final(result, inputs, final)
    return final


def run_round(
    inputs: Inputs,
    repetition: int,
    src_dir: Path,
    workdir: Path,
    server_flags: tuple[str, ...] = (),
    *,
    crash_check: bool = False,
) -> RoundResult:
    """An untraced round against ``python -m repro.cli serve``."""
    calib = calibration_ms()
    server = ServerProcess(src_dir, workdir, inputs.cluster_json, server_flags)
    conns: list[Conn] = []
    try:
        conns.append(server.start())
        result = RoundResult(inputs.workload, repetition, calib, server.setup_s)
        conns.extend(Conn(server.port) for _ in inputs.streams[1:])
        final = measure(result, inputs, conns, inputs.streams, cpu_ms=server.cpu_ms)
        result.peak_rss_mb = server.peak_rss_mb()
        if crash_check:
            server.stop(kill=True)
            verify_recovery(result, server.journal_dir, final["fingerprint"])
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    return result
