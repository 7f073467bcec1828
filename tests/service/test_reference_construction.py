"""Faster construction, identical probe sequence — stated as a differential.

The dense ``Cluster`` views and the probe network are built from arrays in
one pass; the loops they replaced live on under ``tests/`` as reference
builders.  A seeded churn stream is replayed through the served solver twice
— as shipped, and with both reference builders patched in — and every
event's matrix must be ``np.array_equal`` and every solver counter equal.
A differential, not a committed digest: a numpy upgrade moves both sides.
"""

import dataclasses

import numpy as np
import pytest

from repro.flownet.parametric import ParametricFeasibility
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from repro.workload.generator import WorkloadSpec, generate_jobs, sites_for
from tests.flownet.reference_network import reference_init
from tests.model import reference_views

EVENTS = 30


def _region(rng, spec: WorkloadSpec, prefix: str) -> tuple[list[Site], list[Job]]:
    jobs = generate_jobs(spec, rng)
    sites = [Site(f"{prefix}{s.name}", s.capacity) for s in sites_for(spec, jobs)]
    return sites, [_renamed(job, f"{prefix}{job.name}", prefix) for job in jobs]


def _renamed(job: Job, name: str, prefix: str) -> Job:
    return Job(
        name,
        {f"{prefix}{s}": w for s, w in job.workload.items()},
        {f"{prefix}{s}": d for s, d in job.demand.items()},
        weight=job.weight,
    )


def connected(rng):
    spec = WorkloadSpec(n_jobs=40, n_sites=8, site_spread=3, theta=1.0)
    sites, jobs = _region(rng, spec, "")
    return sites, jobs, lambda name: _renamed(generate_jobs(dataclasses.replace(spec, n_jobs=1), rng)[0], name, "")


def federation(rng):
    spec = WorkloadSpec(n_jobs=8, n_sites=3, site_spread=2, theta=1.0)
    sites, jobs = [], []
    for k in range(4):
        s, j = _region(rng, spec, f"r{k}")
        sites += s
        jobs += j

    def arrival(name):
        prefix = f"r{int(rng.integers(4))}"
        return _renamed(generate_jobs(dataclasses.replace(spec, n_jobs=1), rng)[0], name, prefix)

    return sites, jobs, arrival


def two_resource(rng):
    """Irreducible cpu/mem cluster; one site offers no mem, some edges are uncapped."""
    sites = [Site(f"s{j}", {"cpu": float(rng.uniform(4, 12)), "mem": float(rng.uniform(8, 32))}) for j in range(4)]
    sites.append(Site("s4", {"cpu": 6.0}))

    def arrival(name):
        picked = [f"s{j}" for j in rng.choice(5, size=int(rng.integers(2, 4)), replace=False)]
        heavy = rng.random() < 0.5
        cpu, mem = (rng.uniform(2, 4), rng.uniform(0.5, 1))[:: 1 if heavy else -1]
        resources = {"cpu": float(cpu), "mem": float(mem)}
        if rng.random() < 0.25:
            del resources["mem"]
        demand = {s: float(rng.uniform(0.3, 2.0)) for s in picked if rng.random() < 0.6}
        return Job(name, {s: float(rng.uniform(1, 50)) for s in picked}, demand, resources=resources)

    return sites, [arrival(f"j{i}") for i in range(10)], arrival


def replay(build, seed: int):
    """Per-event matrices and the solver's counters over one seeded stream."""
    rng = np.random.default_rng(seed)
    sites, jobs, arrival = build(rng)
    state = ClusterState(sites, jobs)
    solver = IncrementalAmfSolver()
    alive = [j.name for j in jobs]
    matrices = [solver(state.snapshot()).matrix]
    for step in range(EVENTS):
        kind = rng.choice(["arrive", "depart", "capacity"], p=[0.45, 0.45, 0.10])
        if kind == "arrive" or len(alive) < 3:
            job = arrival(f"a{step}")
            alive.append(job.name)
            event = JobArrived(job)
        elif kind == "depart":
            event = JobDeparted(alive.pop(int(rng.integers(len(alive)))))
        else:
            site = sites[int(rng.integers(len(sites)))]
            scale = float(rng.uniform(0.8, 1.25))  # from the original capacity: sites never drift to 0
            event = CapacityChanged(
                site.name,
                {res: amount * scale for res, amount in site.resource_vector.items()}
                if site.is_multiresource
                else site.capacity * scale,
            )
        state.apply(event)
        matrices.append(solver(state.snapshot()).matrix)
    return matrices, dataclasses.asdict(solver.stats)


@pytest.mark.parametrize("build", [connected, federation, two_resource])
def test_stream_is_bit_identical_under_reference_construction(build, monkeypatch):
    shipped, shipped_stats = replay(build, seed=20261003)
    calls = {"views": 0, "networks": 0}

    def counted_views(self):
        calls["views"] += 1
        return reference_views.edge_views(self)

    def counted_init(self, *args, **kwargs):
        calls["networks"] += 1
        reference_init(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "_edge_views", counted_views)
    monkeypatch.setattr(ParametricFeasibility, "__init__", counted_init)
    reference, reference_stats = replay(build, seed=20261003)

    # the reference builders really were on the path (AMRF is an LP: no probe network)
    assert calls["views"] >= EVENTS // 2
    assert calls["networks"] >= EVENTS // 2 or build is two_resource
    assert len(shipped) == len(reference) == EVENTS + 1
    for step, (got, want) in enumerate(zip(shipped, reference)):
        assert np.array_equal(got, want), f"matrix differs at event {step}"
    assert shipped_stats == reference_stats
    if build is two_resource:
        assert shipped_stats["amrf_lps"] > 0  # irreducible: the LP engine ran on these views
    else:
        assert shipped_stats["feasibility_solves"] > 0 and shipped_stats["probes_warm"] > 0
    if build is federation:
        assert shipped_stats["last_shards"] == 4 and shipped_stats["shard_cache_hits"] > 0
