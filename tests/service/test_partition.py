"""The partition ``ClusterState`` keeps between versions, against the cold oracles.

The state unions components on arrival, re-splits the one a departure
leaves and renews the one a capacity change touches; its snapshot carries
that partition and is built without re-validating the jobs.  Every check
here compares the state's pieces with what the validating constructor
``Cluster(sites, jobs)``, the cold ``decompose`` walk, the cold
``_edge_views`` walk and the dense reference renderer give for the same
sites and jobs:

* the resident partition equals ``decompose`` of the validated cluster
  (shard order, keys, site and job indices, sub-cluster fingerprints), and
  the snapshot's fingerprint, job order and views equal that cluster's —
  on hypothesis streams that merge, split and empty components, scalar and
  vector, and on the ledger's four streams;
* the state refuses whatever the validating constructor refuses, with the
  same exception class;
* the service's allocation document equals the reference render byte for
  byte, every write of the ledger streams;
* a write of the ledger's ``churn_sharded`` stream reads and builds only
  the components its event touched;
* the state's own bookkeeping — each component's edge arrays, the dense
  views scattered from them, the site-pair counts and the partition —
  equals what a walk from scratch (``Cluster(sites, jobs)`` plus
  ``connected_components``) computes after every event, and a departure
  re-partitions only when it empties a site pair.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.ledger import workloads
from repro.core.sharding import connected_components, decompose
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.resources import ResourceError, ResourceMismatchError
from repro.model.site import Site
from repro.service.aio import AioServiceServer
from repro.service.daemon import AllocationService, ServedAllocation
from repro.service.schema import allocation_payload
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted, StateError
from tests.model import reference_views
from tests.service import reference_render


def shards_of(cluster: Cluster) -> list[tuple]:
    return [(sh.key, sh.site_indices, sh.job_indices, sh.cluster.fingerprint()) for sh in decompose(cluster)]


def partition_or_error(cluster: Cluster):
    try:
        return shards_of(cluster)
    except ResourceError as exc:  # a vector component that does not offer what its jobs demand
        return type(exc)


def assert_matches_the_validated_build(snap: Cluster) -> None:
    cold = Cluster(snap.sites, snap.jobs)
    assert snap.fingerprint() == cold.fingerprint()
    assert partition_or_error(snap) == partition_or_error(cold)
    for view in ("workloads", "support", "demand_caps", "capacities", "weights"):
        assert np.array_equal(getattr(snap, view), getattr(cold, view)), view
    assert snap.is_multiresource == cold.is_multiresource
    assert [snap.job_index(j.name) for j in snap.jobs] == list(range(snap.n_jobs))


def assert_bookkeeping_matches_a_walk(state: ClusterState) -> None:
    """The state's partition, pair counts, per-component edge arrays and the
    views a component scatters from them, against a walk from scratch."""
    snap = state.snapshot()
    cold = Cluster(snap.sites, snap.jobs)
    supports = [sorted(cold.site_index(site) for site in job.workload) for job in cold.jobs]
    groups = connected_components(cold.n_sites, supports)
    parts = [state._components[root] for root in sorted(state._components)]
    # edges not read yet hold no more arrivals than their component has jobs
    assert all(p.edges._pending <= len(p.jobs) for p in parts)
    assert [(p.sites, p.jobs) for p in parts] == [
        (sites, tuple(cold.jobs[i].name for i in jobs)) for sites, jobs in groups
    ]
    pairs = Counter(pair for support in supports for pair in itertools.combinations(support, 2))
    assert state._pairs == dict(pairs)
    for part, (sites, jobs) in zip(parts, groups):
        edges = part.edges
        # job by job in the component's order, each job's sites ascending
        want = [
            (r, c, job.workload[cold.sites[sites[c]].name], job.demand.get(cold.sites[sites[c]].name, math.inf))
            for r, job in enumerate(cold.jobs[i] for i in jobs)
            for c in range(len(sites))
            if cold.sites[sites[c]].name in job.workload
        ]
        rows, cols, work, declared, arrivals = edges.arrays
        assert list(zip(rows.tolist(), cols.tolist(), work.tolist(), declared.tolist())) == want
        assert edges.jobs == part.jobs
        assert arrivals.tolist() == [state._arrival[name] for name in part.jobs]
        assert arrivals.tolist() == sorted(arrivals.tolist())
    if snap.is_multiresource:
        return
    for shard in decompose(snap):
        sub = shard.cluster
        assert sub._edges is state._components[shard.site_indices[0]].edges
        walked = reference_views.workloads(sub), reference_views.demand_caps(sub)
        assert np.array_equal(sub.workloads, walked[0]) and np.array_equal(sub.demand_caps, walked[1])
        rows, cols = np.nonzero(walked[0] > 0.0)
        got = sub.support_edges()
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert np.array_equal(got[2], walked[1][rows, cols])


# ----------------------------------------------------------------------
# Random event streams
# ----------------------------------------------------------------------
SITES = ("s0", "s1", "s2", "s3", "s4", "s5")
NAMES = ("a", "b", "c", "d", "e", "f", "g")  # few names: duplicates and departures of absent jobs


@st.composite
def job_events(draw, vector: bool):
    name = draw(st.sampled_from(NAMES))
    # mostly one or two sites, so components stay apart until a bridge joins them
    support = draw(st.lists(st.sampled_from(SITES + ("zz",)), min_size=1, max_size=3, unique=True))
    workload = {s: draw(st.floats(0.5, 4.0)) for s in support}
    demand = {s: draw(st.floats(0.2, 3.0)) for s in support if draw(st.booleans())}
    resources = {}
    if vector or draw(st.integers(0, 9)) == 0:
        pool = ("cpu", "mem", "gpu")  # no site offers gpu
        picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        resources = {r: draw(st.floats(0.5, 3.0)) for r in picked}
    return JobArrived(Job(name, workload, demand, weight=draw(st.sampled_from((1.0, 2.0))), resources=resources))


@st.composite
def capacity_events(draw, vector: bool):
    site = draw(st.sampled_from(SITES + ("zz",)))
    kind = draw(st.sampled_from(("scalar", "vector", "other-vector")))
    if kind == "scalar":
        return CapacityChanged(site, draw(st.floats(0.5, 8.0)))
    names = ("cpu", "mem") if kind == "vector" else ("cpu",)
    return CapacityChanged(site, {r: draw(st.floats(0.5, 16.0)) for r in names})


def event_streams(vector: bool):
    event = st.one_of(
        job_events(vector),
        job_events(vector),
        st.builds(JobDeparted, st.sampled_from(NAMES)),
        capacity_events(vector),
    )
    return st.lists(event, min_size=1, max_size=30)


def initial_sites(vector: bool) -> list[Site]:
    if not vector:
        return [Site(name, 2.0 + k) for k, name in enumerate(SITES)]
    return [Site(name, {"cpu": 4.0 + k, "mem": 8.0 + 2 * k}) for k, name in enumerate(SITES)]


def validated_outcome(sites: dict[str, Site], jobs: dict[str, Job], event):
    """The cluster the event would leave, built by the validating
    constructor, or the exception class it raises."""
    try:
        if isinstance(event, JobArrived):
            return Cluster(list(sites.values()), [*jobs.values(), event.job])
        if isinstance(event, JobDeparted):
            return Cluster(list(sites.values()), list(jobs.values())).without_job(event.name)
        if event.site not in sites:
            raise ValueError(f"unknown site {event.site!r}")
        renewed = {**sites, event.site: Site(event.site, event.capacity)}
        return Cluster(list(renewed.values()), list(jobs.values()))
    except ValueError as exc:
        return type(exc)


class TestRandomStreams:
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_the_state_agrees_with_the_validating_constructor(self, vector):
        @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(events=event_streams(vector))
        def check(events):
            state = ClusterState(initial_sites(vector))
            # the same events, its edges read only at the end: each record
            # then builds its arrays from a chain of events
            unread = ClusterState(initial_sites(vector))
            sites = {s.name: s for s in state.snapshot().sites}
            jobs: dict[str, Job] = {}
            snapshots = []
            for event in events:
                want = validated_outcome(sites, jobs, event)
                unread.apply_all([event])
                try:
                    state.apply(event)
                except (StateError, ResourceError) as exc:
                    if isinstance(want, Cluster):
                        # the state is stricter on one point only: a capacity
                        # update must keep the site's resource names
                        assert isinstance(event, CapacityChanged) and isinstance(exc, ResourceMismatchError)
                    elif isinstance(event, CapacityChanged) and isinstance(exc, ResourceMismatchError):
                        assert issubclass(want, ValueError)
                    else:
                        # StateError is the service's ValueError
                        assert type(exc) is want or (want is ValueError and type(exc) is StateError), (exc, want)
                    continue
                assert isinstance(want, Cluster), (event, want)
                if isinstance(event, JobArrived):
                    jobs[event.job.name] = event.job
                elif isinstance(event, JobDeparted):
                    del jobs[event.name]
                else:
                    sites[event.site] = Site(event.site, event.capacity)
                snap = state.snapshot()
                assert snap.sites == tuple(sites.values()) and snap.jobs == tuple(jobs.values())
                assert snap.fingerprint() == want.fingerprint()
                assert_matches_the_validated_build(snap)
                assert_bookkeeping_matches_a_walk(state)
                snapshots.append(snap)
            # a later event never rewrites what an earlier snapshot carries
            for snap in snapshots:
                assert_matches_the_validated_build(snap)
            assert_bookkeeping_matches_a_walk(unread)

        check()

    @settings(max_examples=60, deadline=None)
    @given(
        regions=st.integers(2, 5),
        order=st.randoms(use_true_random=False),
    )
    def test_bridges_merge_and_their_departure_splits(self, regions, order):
        # regions of two sites each, then bridges across neighbours (merges),
        # then every job leaves in random order (splits, empty components)
        sites = [Site(f"r{k}s{j}", 1.0 + j) for k in range(regions) for j in range(2)]
        state = ClusterState(sites)
        names = []
        for k in range(regions):
            names += [f"r{k}j0", f"r{k}j1"]
            state.add_job(Job(names[-2], {f"r{k}s0": 1.0}))
            state.add_job(Job(names[-1], {f"r{k}s0": 1.0, f"r{k}s1": 0.5}))
            assert_matches_the_validated_build(state.snapshot())
        for k in range(regions - 1):
            names.append(f"bridge{k}")
            state.add_job(Job(names[-1], {f"r{k}s1": 1.0, f"r{k + 1}s0": 2.0}))
            assert_matches_the_validated_build(state.snapshot())
        assert len(decompose(state.snapshot())) == 1
        order.shuffle(names)
        for name in names:
            state.remove_job(name)
            assert_matches_the_validated_build(state.snapshot())
            assert_bookkeeping_matches_a_walk(state)
        assert len(decompose(state.snapshot())) == len(sites)

    @pytest.mark.parametrize(
        "leaves, splits",
        [
            ("bridge", True),  # the one job spanning r0s1-r1s0: the pair empties and the component splits
            ("ring", False),  # empties s0-s1, but s0-s2-s1 still joins them
            ("twin", False),  # s2-s3 is spanned twice: no pair empties
        ],
    )
    def test_a_departure_repartitions_only_when_it_empties_a_pair(self, monkeypatch, leaves, splits):
        sites = [Site(name, 2.0) for name in ("s0", "s1", "s2", "s3", "r0s1", "r1s0")]
        state = ClusterState(sites)
        for job in (
            Job("ring", {"s0": 1.0, "s1": 1.0}),
            Job("ring2", {"s0": 1.0, "s2": 1.0}),
            Job("ring3", {"s1": 1.0, "s2": 1.0}),
            Job("twin", {"s2": 1.0, "s3": 2.0}),
            Job("twin2", {"s3": 1.0, "s2": 0.5}, demand={"s2": 0.25}),
            Job("r0", {"r0s1": 1.0}),
            Job("r1", {"r1s0": 1.0, "s3": 1.0}),
            Job("bridge", {"r0s1": 1.0, "r1s0": 3.0}),
        ):
            state.add_job(job)
        assert_bookkeeping_matches_a_walk(state)
        before = len(state._components)
        walks = []
        real = connected_components
        monkeypatch.setattr(
            "repro.service.state.connected_components", lambda *args: walks.append(1) or real(*args)
        )
        state.remove_job(leaves)
        assert len(walks) == (leaves != "twin")
        assert len(state._components) == before + splits
        assert_matches_the_validated_build(state.snapshot())
        assert_bookkeeping_matches_a_walk(state)


# ----------------------------------------------------------------------
# The ledger's streams, through the service and its HTTP renderer
# ----------------------------------------------------------------------
def ledger_events(workload: str, seed: int, n_ops: int):
    inputs = workloads.build_inputs(workload, seed, n_ops)
    events = [op.event for stream in inputs.streams for op in stream if op.event is not None]
    return inputs.cluster, events


@pytest.mark.parametrize("workload", ["churn_sharded", "churn_connected", "churn_vector", "read_mix"])
def test_ledger_streams_match_the_cold_oracles(workload):
    cluster, events = ledger_events(workload, seed=3, n_ops=40)
    service = AllocationService(ClusterState(cluster.sites, cluster.jobs), max_delay=0.0, observability=False)
    edge = AioServiceServer(service)
    for event in [None, *events]:
        if event is not None:
            service.submit(event)
        served = service.allocation(fresh=True)
        snap = served.allocation.cluster
        assert snap is service.state.snapshot()
        assert_matches_the_validated_build(snap)
        assert_bookkeeping_matches_a_walk(service.state)
        _, document = edge._rendered(served)
        assert document == json.dumps(reference_render.allocation_payload(served)).encode()
    assert served.components is not None  # the documents above were assembled per component


@pytest.mark.parametrize("workload", ["churn_connected", "churn_sharded"])
def test_snapshots_serve_the_bits_validated_rebuilds_serve(workload):
    """Two warm solvers, one fed the state's snapshots (views scattered from
    its edge arrays, networks built from them, splits moved by arrival
    number), one fed ``Cluster(sites, jobs)`` rebuilds of the same states
    (walked views, name-matched splits): the same levels, splits and
    document bytes after every op."""
    cluster, events = ledger_events(workload, seed=7, n_ops=100)
    state = ClusterState(cluster.sites, cluster.jobs)
    from_arrays, from_walks = IncrementalAmfSolver(), IncrementalAmfSolver()
    for version, event in enumerate([None, *events]):
        if event is not None:
            state.apply(event)
        snap = state.snapshot()
        cold = Cluster(snap.sites, snap.jobs)
        assert cold.arrival_numbers() is None
        assert snap.arrival_numbers() is not None or len(decompose(snap)) > 1
        answers = []
        for solver, instance in ((from_arrays, snap), (from_walks, cold)):
            alloc = solver(instance)
            served = ServedAllocation(
                alloc,
                cached=solver.replayed,
                seconds=0.0,
                version=version,
                fingerprint=instance.fingerprint(),
                components=solver.components,
            )
            answers.append((alloc.aggregates.tobytes(), alloc.matrix.tobytes(), allocation_payload(served)[1]))
        assert answers[0] == answers[1], (version, event)


# ----------------------------------------------------------------------
# Count gate: a write costs the components it touches
# ----------------------------------------------------------------------
def components_of(state: ClusterState) -> set[tuple]:
    snap = state.snapshot()
    cold = Cluster(snap.sites, snap.jobs)
    return {
        (sh.key, tuple(j.name for j in sh.cluster.jobs), tuple(s.capacity for s in sh.cluster.sites))
        for sh in decompose(cold)
    }


def test_a_sharded_write_reads_and_builds_only_the_components_it_touches(monkeypatch):
    cluster, events = ledger_events("churn_sharded", seed=5, n_ops=60)
    state = ClusterState(cluster.sites, cluster.jobs)
    service = AllocationService(state, max_delay=0.0, observability=False)
    edge = AioServiceServer(service)
    edge._rendered(service.allocation(fresh=True))  # boot: every component is built once

    recording = False
    read: set[str] = set()  # jobs whose workload a write walked
    built: list[frozenset[str]] = []  # site sets of the sub-clusters a write built

    def workload(job):
        if recording:
            read.add(job.name)
        return job.__dict__["workload"]

    def set_workload(job, value):
        job.__dict__["workload"] = value

    subset = Cluster._subset

    def counted_subset(self, site_idx, job_idx):
        sub = subset(self, site_idx, job_idx)
        if recording:
            built.append(frozenset(s.name for s in sub.sites))
        return sub

    monkeypatch.setattr(Job, "workload", property(workload, set_workload), raising=False)
    monkeypatch.setattr(Cluster, "_subset", counted_subset)
    walked = 0
    for event in events:
        before = components_of(state)
        read.clear()
        built.clear()
        recording = True
        service.submit(event)
        edge._rendered(service.allocation(fresh=True))
        recording = False
        touched = before ^ components_of(state)
        assert touched, event
        touched_jobs = {name for _, names, _ in touched for name in names}
        touched_keys = {key for key, _, _ in touched}
        assert read <= touched_jobs, (event, sorted(read - touched_jobs)[:5])
        assert set(built) <= touched_keys, event
        walked += len(read)
    # a region holds about 16 of the 384 jobs: the writes read a few regions' worth, not the federation
    assert walked <= 40 * len(events), walked
