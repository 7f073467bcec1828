"""The block gate: one rule set, applied per component, rejects what the
full-width check rejects.

``repro.core.sharding.solve`` holds every block it solves to the
allocation rule set (``repro.core.allocation.check_matrix``) against the
component's sub-cluster, scaled by the component's own job count, and the
stitched allocation is never checked again at full width.  Each mutation
class here perturbs one cell of one block of a solved multi-component
cluster, scalar or cpu/mem, and requires the block gate to raise the same
``AllocationError`` subclass, with the same message, that
``validate_allocation`` raises on the stitched matrix.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.allocation import (
    Allocation,
    AllocationError,
    CapacityViolationError,
    DemandViolationError,
    NegativeAllocationError,
    NonFiniteAllocationError,
    SupportViolationError,
    check_matrix,
)
from repro.core.amf import solve_amf
from repro.core.policies import validate_allocation
from repro.core.sharding import decompose
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site

DRAWS = 40
CLASSES = {
    "nan": NonFiniteAllocationError,
    "negative": NegativeAllocationError,
    "off_support": SupportViolationError,
    "over_demand": DemandViolationError,
    "over_capacity": CapacityViolationError,
}


def federation(rng: np.random.Generator, *, vector: bool) -> Cluster:
    """2-4 regions of 2-4 sites; each job works at 1-3 sites of one region."""
    sites: list[Site] = []
    jobs: list[Job] = []
    for r in range(int(rng.integers(2, 5))):
        names = [f"r{r}s{j}" for j in range(int(rng.integers(2, 5)))]
        for name in names:
            cap = {"cpu": float(rng.uniform(4, 12)), "mem": float(rng.uniform(8, 32))} if vector else float(rng.uniform(1, 6))
            sites.append(Site(name, cap))
        for i in range(int(rng.integers(2, 7))):
            picked = rng.choice(names, size=int(rng.integers(1, min(3, len(names)) + 1)), replace=False)
            demand = {s: float(rng.uniform(0.2, 3.0)) for s in picked if rng.random() < 0.4}
            resources = {"cpu": float(rng.uniform(0.5, 3)), "mem": float(rng.uniform(0.5, 3))} if vector else {}
            jobs.append(Job(f"r{r}j{i}", {s: float(rng.uniform(1, 20)) for s in picked}, demand, resources=resources))
    return Cluster(sites, jobs)


def headroom(sub: Cluster, block: np.ndarray, i: int, j: int) -> float:
    """How far cell ``(i, j)`` can rise before its site is over capacity."""
    if not sub.is_multiresource:
        return float(sub.capacities[j] - block[:, j].sum())
    need = sub.job_resource_matrix[i]
    left = sub.site_resource_matrix[j] - block[:, j] @ sub.job_resource_matrix
    return float(min(left[r] / need[r] for r in np.flatnonzero(need > 0)))


def mutate(kind: str, sub: Cluster, block: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """``block`` with one cell perturbed into ``kind``, or ``None`` when this
    block has no cell that can carry it."""
    block = np.array(block)
    on, off = np.argwhere(sub.support), np.argwhere(~sub.support)
    i, j = on[rng.integers(len(on))]
    if kind == "nan":
        block[i, j] = np.nan
    elif kind == "negative":
        block[i, j] = -1e-3
    elif kind == "off_support":
        if not len(off):
            return None
        i, j = off[rng.integers(len(off))]
        block[i, j] = 0.5
    elif kind == "over_demand":
        block[i, j] = sub.demand_caps[i, j] + 0.5
    else:
        # raise a cell to its demand cap where that tips its site over by a
        # margin far above any tolerance
        tips = [(i, j) for i, j in on if sub.demand_caps[i, j] - block[i, j] > headroom(sub, block, i, j) + 1e-3]
        if not tips:
            return None
        i, j = tips[rng.integers(len(tips))]
        block[i, j] = sub.demand_caps[i, j]
    return block


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "cpu_mem"])
def test_block_gate_rejects_what_the_full_width_check_rejects(vector):
    rng = np.random.default_rng(20261018 + vector)
    seen: Counter[str] = Counter()
    for _ in range(DRAWS):
        cluster = federation(rng, vector=vector)
        alloc = solve_amf(cluster)
        shards = [sh for sh in decompose(cluster) if sh.n_jobs]
        assert len(shards) > 1
        assert validate_allocation(cluster, alloc) is alloc
        for kind, error in CLASSES.items():
            sh = shards[int(rng.integers(len(shards)))]
            rows = np.array(sh.job_indices)[:, None]
            cols = np.array(sh.site_indices)
            block = alloc.matrix[rows, cols]
            np.testing.assert_array_equal(check_matrix(sh.cluster, block), block)  # solved blocks pass, unchanged
            bad = mutate(kind, sh.cluster, block, rng)
            if bad is None:
                continue
            stitched = np.array(alloc.matrix)
            stitched[rows, cols] = bad
            with pytest.raises(AllocationError) as whole:
                validate_allocation(cluster, SimpleNamespace(matrix=stitched))
            with pytest.raises(AllocationError) as gate:
                check_matrix(sh.cluster, bad)
            assert type(whole.value) is type(gate.value) is error, (kind, whole.value, gate.value)
            assert str(gate.value) == str(whole.value)
            seen[kind] += 1
    # every class was exercised on most draws
    assert all(seen[kind] >= DRAWS // 2 for kind in CLASSES), seen


def test_a_block_is_held_at_its_own_scale():
    """A residue the whole federation's tolerance forgives fails inside its
    16-job component: the gate is never looser than the full-width check."""
    sites = [Site(f"s{k}", 1.0) for k in range(24)]
    jobs = [Job(f"j{k}", {f"s{k % 24}": 1.0}) for k in range(384)]
    cluster = Cluster(sites, jobs)
    sub = decompose(cluster)[0].cluster
    assert sub.n_jobs == 16
    block = np.zeros((16, 1))
    block[:2, 0] = 0.5, 0.5 + 5e-8  # column over c = 1 by 5e-8: inside 384 jobs' scale, outside 16's
    with pytest.raises(CapacityViolationError):
        check_matrix(sub, block)
    whole = np.zeros((384, 24))
    whole[[0, 24], 0] = block[:2, 0]  # j0 and j24 are the component's first two jobs
    check_matrix(cluster, whole)  # passes at the federation's scale


def test_allocation_keeps_its_own_capacity_bound():
    """``Allocation`` holds a site to ``fle`` alone; the serving gate also to
    ``c * (1 + ABS_TOL) + ABS_TOL * n``, the tighter one on a large site."""
    cluster = Cluster.from_matrices(capacities=[100.0], workloads=[[1.0], [1.0]])
    matrix = np.array([[50.0], [50.0 + 1.5e-7]])  # fle allows 2e-7 over c = 100; the gate 1.02e-7
    alloc = Allocation(cluster, matrix)
    with pytest.raises(CapacityViolationError, match="site 's0' over-allocated"):
        validate_allocation(cluster, alloc)
