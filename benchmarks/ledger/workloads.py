"""Seeded inputs of the four ledger workloads: a cluster JSON and an op stream.

Everything here is a pure function of ``(workload name, seed, op count)``:
the server only ever sees the generated ``--load`` file and the generated
requests.  The same module replays a stream through ``ClusterState`` so the
harness can check the server's final state against an independent copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence
from urllib.parse import quote

import numpy as np

from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.serialize import cluster_to_dict
from repro.model.site import Site
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from repro.workload.generator import WorkloadSpec, generate_jobs, sites_for

#: name -> why the workload exists (copied into BENCHMARK.json and the README).
WORKLOADS = {
    "churn_sharded": (
        "384 jobs in 24 disconnected regions: an event re-solves one 16-job shard, "
        "so service/model layers (fingerprint, decompose, render, publish, journal) dominate the write"
    ),
    "churn_connected": (
        "the paper's setting, one connected Zipf component of 200 jobs x 20 sites: every event "
        "re-solves everything, so core.amf + flownet dominate and sharding/shard cache are bypassed"
    ),
    "churn_vector": (
        "irreducible cpu/mem cluster, 16 standing + up to 6 transient jobs x 6 sites, 25% flap ops that "
        "revisit a solved state: the AMRF LP engine dominates and the caches earn a stated hit rate"
    ),
    "read_mix": (
        "the sharded cluster read the other way: 2 connections, 95% pre-rendered reads beside 5% "
        "coalesced 202 writes, so work moved from writes onto reads or publish stalls shows"
    ),
}

#: Ops per connection for each second of ``--seconds``, summed over the
#: rounds: sized so the rounds of a workload together measure for about
#: ``--seconds`` at HEAD on the 2-core reference box (README, "Sizing").
OPS_PER_SECOND = {
    "churn_sharded": 23.0,
    "churn_connected": 11.5,
    "churn_vector": 15.0,
    "read_mix": 400.0,
}

#: Rounds per run: every round sends the same requests to a fresh server,
#: and an op's latency is the fastest of its repetitions (README).
ROUNDS = 6

#: The initial clusters are a fixed data set: a workload boots on the same
#: cluster whatever ``--seed`` says; the seed drives the op streams.  Drawn
#: from the seed, churn_connected's write p50 spread 12% across seeds from
#: the draw alone, against 2% for repeats of one seed (README).
CLUSTER_SEED = 20260928

CONNECTIONS = {"churn_sharded": 1, "churn_connected": 1, "churn_vector": 1, "read_mix": 2}

#: read_mix endpoint weights (per cent of reads) and the async write share.
READ_MIX = (
    ("/v1/allocate?fresh=false", 60),
    ("/v1/health", 25),
    ("/v1/stats", 10),
    ("/v1/jobs?limit=100", 5),
)
WRITE_SHARE = 0.05


def ops_for(workload: str, seconds: float, rounds: int) -> int:
    """Ops per connection and round: a fixed count, so a round's request
    list depends on the seed and ``--seconds`` only, never on how fast the
    server answered."""
    return max(8, int(round(OPS_PER_SECOND[workload] * seconds / rounds)))


# ----------------------------------------------------------------------
# Wire forms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One HTTP request, pre-rendered so the timed loop only does I/O."""

    method: str
    path: str
    body: bytes
    expect: int
    wire: bytes = field(repr=False)


def request(method: str, path: str, payload: Any = None, *, expect: int = 200) -> Request:
    body = b"" if payload is None else json.dumps(payload, separators=(",", ":")).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: ledger\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return Request(method, path, body, expect, head.encode("latin-1") + body)


ALLOCATE_NOW = request("POST", "/v1/allocate", {})
READ_ALLOCATION = request("GET", "/v1/allocate?fresh=false")
READ_STATS = request("GET", "/v1/stats")
READ_HEALTH = request("GET", "/v1/health")


@dataclass(frozen=True)
class Op:
    """One unit of the op stream.

    ``kind`` is ``arrive`` / ``depart`` / ``capacity`` (a synchronous churn
    event: ``requests`` is timed as one write, ``follow`` is the read after
    it), ``read`` (one GET) or ``post_job`` / ``delete_job`` (one
    asynchronous 202 write).  ``event`` is the state delta the op causes.
    """

    kind: str
    requests: tuple[Request, ...]
    follow: Request | None = None
    event: Any = None

    @property
    def job(self) -> str | None:
        if isinstance(self.event, JobArrived):
            return self.event.job.name
        if isinstance(self.event, JobDeparted):
            return self.event.name
        return None


@dataclass
class Inputs:
    """Everything one workload sends to the server."""

    workload: str
    cluster: Cluster
    cluster_json: bytes
    streams: list[list[Op]]

    def wire_digest_source(self) -> bytes:
        """All bytes the server receives, for the determinism test."""
        parts = [self.cluster_json]
        for stream in self.streams:
            for op in stream:
                parts.extend(r.wire for r in op.requests)
                if op.follow is not None:
                    parts.append(op.follow.wire)
        return b"\n".join(parts)


def job_to_wire(job: Job) -> dict[str, Any]:
    out: dict[str, Any] = {"name": job.name, "workload": dict(job.workload)}
    if job.demand:
        out["demand"] = dict(job.demand)
    if job.resources:
        out["resources"] = dict(job.resources)
    return out


def _cluster_json(cluster: Cluster) -> bytes:
    return json.dumps(cluster_to_dict(cluster), indent=1).encode()


def _sync_op(event) -> Op:
    """A churn event as the issue words it: the delta, the allocation that
    contains it, then one passive read."""
    if isinstance(event, JobArrived):
        return Op("arrive", (request("POST", "/v1/allocate", {"jobs": [job_to_wire(event.job)]}),), READ_ALLOCATION, event)
    if isinstance(event, JobDeparted):
        delete = request("DELETE", f"/v1/jobs/{quote(event.name, safe='')}", expect=202)
        return Op("depart", (delete, ALLOCATE_NOW), READ_ALLOCATION, event)
    post = request("POST", "/v1/capacity", {"site": event.site, "capacity": event.capacity}, expect=202)
    return Op("capacity", (post, ALLOCATE_NOW), READ_ALLOCATION, event)


# ----------------------------------------------------------------------
# Scalar clusters (churn_sharded, churn_connected, read_mix)
# ----------------------------------------------------------------------
REGIONS = 24
REGION_SPEC = WorkloadSpec(n_jobs=16, n_sites=4, site_spread=3, theta=1.0)
CONNECTED_SPEC = WorkloadSpec(n_jobs=200, n_sites=20, site_spread=4, theta=1.0)


def _renamed(job: Job, name: str, site_prefix: str) -> Job:
    return Job(
        name,
        {site_prefix + s: w for s, w in job.workload.items()},
        {site_prefix + s: d for s, d in job.demand.items()},
        weight=job.weight,
    )


def _region(rng: np.random.Generator, spec: WorkloadSpec, prefix: str) -> tuple[list[Site], list[Job]]:
    jobs = generate_jobs(spec, rng)
    sites = [Site(prefix + s.name, s.capacity) for s in sites_for(spec, jobs)]
    return sites, [_renamed(j, f"{prefix}{j.name}", prefix) for j in jobs]


def _one_job(rng: np.random.Generator, spec: WorkloadSpec, name: str, prefix: str) -> Job:
    single = WorkloadSpec(
        n_jobs=1, n_sites=spec.n_sites, site_spread=spec.site_spread, theta=spec.theta
    )
    return _renamed(generate_jobs(single, rng)[0], name, prefix)


def federation(rng: np.random.Generator) -> Cluster:
    sites: list[Site] = []
    jobs: list[Job] = []
    for k in range(REGIONS):
        s, j = _region(rng, REGION_SPEC, f"r{k}")
        sites.extend(s)
        jobs.extend(j)
    return Cluster(sites, jobs)


def connected(rng: np.random.Generator) -> Cluster:
    sites, jobs = _region(rng, CONNECTED_SPEC, "")
    return Cluster(sites, jobs)


def _exact_mix(rng: np.random.Generator, n: int, shares: Sequence[tuple[str, float]]) -> list[str]:
    """``n`` labels in exactly the stated proportions (the last label takes
    the rounding remainder), shuffled: the seed orders the mix, it does not
    resample it, so two seeds never differ in how many expensive ops they hold."""
    labels: list[str] = []
    for label, share in shares[:-1]:
        labels.extend([label] * int(round(share * n)))
    labels.extend([shares[-1][0]] * (n - len(labels)))
    order = rng.permutation(n)
    return [labels[k] for k in order]


def _scalar_churn(
    rng: np.random.Generator, cluster: Cluster, n_ops: int, *, spec: WorkloadSpec, regions: int, transient: bool
) -> list[Op]:
    """45% arrive / 45% depart / 10% capacity over a scalar cluster.

    A departure takes any live job, or with ``transient`` the oldest
    arrival, at least two of them left running (so it never returns to a
    solved state) while the cluster's own jobs stay.  On the connected
    cluster one job more or less moves a solve by up to 14%, and departures
    drawn from all jobs let every seed drift to a state of its own: the
    write p50 spread 17% across seeds.  In the federation a job weighs on
    its region only, and a region emptied of its transients would be
    answered from the shard cache instead of being solved.
    """
    names = [] if transient else [j.name for j in cluster.jobs]
    base_cap = {s.name: s.capacity for s in cluster.sites}
    site_names = list(base_cap)
    ops: list[Op] = []
    kinds = _exact_mix(rng, n_ops, (("arrive", 0.45), ("depart", 0.45), ("capacity", 0.10)))
    for idx, kind in enumerate(kinds):
        if transient and kind == "depart" and len(names) < 2 and "arrive" in kinds[idx:]:
            later = kinds.index("arrive", idx)  # too early to depart: bring the next arrival forward
            kinds[later], kind = "depart", "arrive"
        if kind == "arrive":
            prefix = f"r{int(rng.integers(regions))}" if regions else ""
            event = JobArrived(_one_job(rng, spec, f"a{idx}", prefix))
            names.append(event.job.name)
        elif kind == "depart":
            event = JobDeparted(names.pop(0 if transient else int(rng.integers(len(names)))))
        else:
            # rescale from the *original* capacity so sites never drift to 0
            site = site_names[int(rng.integers(len(site_names)))]
            event = CapacityChanged(site, float(base_cap[site] * rng.uniform(0.8, 1.25)))
        ops.append(_sync_op(event))
    return ops


# ----------------------------------------------------------------------
# Vector cluster (churn_vector)
# ----------------------------------------------------------------------
VECTOR_JOBS, VECTOR_SITES = 16, 6


def _vector_job(rng: np.random.Generator, name: str, cpu_heavy: bool) -> Job:
    if cpu_heavy:
        res = {"cpu": float(rng.uniform(4.0, 8.0)), "mem": float(rng.uniform(1.0, 2.0))}
    else:
        res = {"cpu": float(rng.uniform(1.0, 2.0)), "mem": float(rng.uniform(4.0, 8.0))}
    workload = {f"s{j}": 1.0 for j in range(VECTOR_SITES) if rng.random() < 0.8}
    if not workload:
        workload = {f"s{int(rng.integers(VECTOR_SITES))}": 1.0}
    demand = {s: float(rng.uniform(0.5, 3.0)) for s in workload}
    return Job(name, workload, demand=demand, resources=res)


def crossing(rng: np.random.Generator) -> Cluster:
    """Half the jobs cpu-heavy, half mem-heavy: no resource dominates, so
    the cluster cannot be reduced to the scalar solver."""
    sites = [
        Site(f"s{j}", {"cpu": float(rng.uniform(4.0, 12.0)), "mem": float(rng.uniform(8.0, 32.0))})
        for j in range(VECTOR_SITES)
    ]
    jobs = [_vector_job(rng, f"j{i}", cpu_heavy=bool(i % 2)) for i in range(VECTOR_JOBS)]
    return Cluster(sites, jobs)


#: Most transient jobs churn_vector lets run beside the standing ones.
VECTOR_TRANSIENTS = 6


def _vector_churn(rng: np.random.Generator, cluster: Cluster, n_ops: int) -> list[Op]:
    """Transient jobs arrive and depart beside the cluster's standing jobs,
    plus 25% flap ops (arrive a clone of any job, then depart it).

    The standing jobs never depart: with only 16 jobs a free-running
    population is a different LP every few ops, and the run-to-run spread of
    the write latency was 12-17% — the workload measured the draw, not the
    code.  Every arrival or departure is still a state the engine has not
    solved before (departures are oldest-first); only a flap's departure
    revisits one.
    """
    heavy = {j.name: j.resources["cpu"] > j.resources["mem"] for j in cluster.jobs}
    jobs = {j.name: j for j in cluster.jobs}
    transients: list[str] = []
    ops: list[Op] = []
    flaps = n_ops // 8  # each is 2 ops, so flap ops are 25% of the stream
    units = ["flap"] * flaps + ["churn"] * (n_ops - 2 * flaps)
    for unit in (units[k] for k in rng.permutation(len(units))):
        idx = len(ops)
        if unit == "flap":
            live = [*(j.name for j in cluster.jobs), *transients]
            src = jobs[live[int(rng.integers(len(live)))]]
            clone = Job(f"f{idx}", dict(src.workload), dict(src.demand), resources=dict(src.resources))
            ops.append(_sync_op(JobArrived(clone)))
            ops.append(_sync_op(JobDeparted(clone.name)))
            continue
        arrive = rng.random() < 0.5
        if len(transients) < 2:
            arrive = True
        elif len(transients) >= VECTOR_TRANSIENTS:
            arrive = False
        if arrive:
            # feed the smaller class so the dominance keeps crossing
            n_heavy = sum(heavy[n] for n in transients)
            job = _vector_job(rng, f"a{idx}", cpu_heavy=n_heavy * 2 < len(transients))
            jobs[job.name] = job
            heavy[job.name] = job.resources["cpu"] > job.resources["mem"]
            transients.append(job.name)
            ops.append(_sync_op(JobArrived(job)))
        else:
            # oldest first, and never the last one: departing the newest
            # arrival would return to a solved state, which is the flaps' job
            ops.append(_sync_op(JobDeparted(transients.pop(0))))
    return ops


# ----------------------------------------------------------------------
# read_mix
# ----------------------------------------------------------------------
def _read_mix_stream(rng: np.random.Generator, cluster: Cluster, n_ops: int, conn: int, n_conn: int) -> list[Op]:
    """One connection's ops.  A connection only deletes jobs it owns (its
    own arrivals, or the initial jobs of regions ``k % n_conn == conn``), so
    no interleaving of the connections can make a delete miss."""
    owned = [j.name for j in cluster.jobs if int(j.name[1:].split("j")[0]) % n_conn == conn]
    total = sum(w for _, w in READ_MIX)
    shares = [(path, (1.0 - WRITE_SHARE) * w / total) for path, w in READ_MIX]
    reads = {path: request("GET", path) for path, _ in READ_MIX}
    ops: list[Op] = []
    arrive_next = True
    for idx, kind in enumerate(_exact_mix(rng, n_ops, (*shares, ("write", WRITE_SHARE)))):
        if kind != "write":
            ops.append(Op("read", (reads[kind],)))
        elif arrive_next:
            job = _one_job(rng, REGION_SPEC, f"c{conn}a{idx}", f"r{int(rng.integers(REGIONS))}")
            owned.append(job.name)
            ops.append(Op("post_job", (request("POST", "/v1/jobs", job_to_wire(job), expect=202),), None, JobArrived(job)))
            arrive_next = False
        else:
            name = owned.pop(int(rng.integers(len(owned))))
            delete = request("DELETE", f"/v1/jobs/{quote(name, safe='')}", expect=202)
            ops.append(Op("delete_job", (delete,), None, JobDeparted(name)))
            arrive_next = True
    return ops


# ----------------------------------------------------------------------
def build_inputs(workload: str, seed: int, n_ops: int) -> Inputs:
    """The cluster and the op streams of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (one of {sorted(WORKLOADS)})")
    # read_mix shares churn_sharded's cluster, so it shares its cluster stream
    cluster_key = {"churn_sharded": 0, "churn_connected": 1, "churn_vector": 2, "read_mix": 0}[workload]
    cluster_rng = np.random.default_rng([CLUSTER_SEED, cluster_key])
    op_rngs = [
        np.random.default_rng([seed, 100 + list(WORKLOADS).index(workload), c])
        for c in range(CONNECTIONS[workload])
    ]
    if workload == "churn_sharded":
        cluster = federation(cluster_rng)
        streams = [_scalar_churn(op_rngs[0], cluster, n_ops, spec=REGION_SPEC, regions=REGIONS, transient=False)]
    elif workload == "churn_connected":
        cluster = connected(cluster_rng)
        streams = [_scalar_churn(op_rngs[0], cluster, n_ops, spec=CONNECTED_SPEC, regions=0, transient=True)]
    elif workload == "churn_vector":
        cluster = crossing(cluster_rng)
        streams = [_vector_churn(op_rngs[0], cluster, n_ops)]
    else:
        cluster = federation(cluster_rng)
        streams = [_read_mix_stream(rng, cluster, n_ops, c, len(op_rngs)) for c, rng in enumerate(op_rngs)]
    return Inputs(workload, cluster, _cluster_json(cluster), streams)


def replay(inputs: Inputs) -> ClusterState:
    """The op streams applied to an independent ``ClusterState``.

    With several connections the streams touch disjoint jobs, so the final
    job *set* does not depend on the interleaving (the job order does;
    :func:`reordered` handles that).
    """
    state = ClusterState(inputs.cluster.sites, inputs.cluster.jobs)
    for stream in inputs.streams:
        for op in stream:
            if op.event is not None:
                state.apply(op.event)
    return state


def reordered(cluster: Cluster, job_order: list[str]) -> Cluster:
    """``cluster`` with its jobs in ``job_order`` (must be a permutation)."""
    by_name = {j.name: j for j in cluster.jobs}
    if sorted(by_name) != sorted(job_order):
        raise ValueError("job sets differ")
    return Cluster(cluster.sites, [by_name[n] for n in job_order])
