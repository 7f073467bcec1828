"""Fairness-property checkers (Pareto, max-min, envy, SI, strategy-proofness).

The paper proves that AMF satisfies Pareto efficiency, envy-freeness and
strategy-proofness but not sharing incentive, and that enhanced AMF restores
sharing incentive.  This module provides *decision procedures* for those
properties so the claims become testable artifacts:

* Pareto efficiency and max-min fairness are decided **exactly** via
  residual-graph augmentation on the job-site network (no sampling).
* Envy-freeness and sharing incentive are direct arithmetic on the
  allocation.
* Strategy-proofness is probed by randomized manipulation attempts (the
  paper proves it; we try to falsify it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro._util import ABS_TOL, feq, flt
from repro.core.allocation import Allocation
from repro.flownet.arrayflow import ArrayFlowGraph
from repro.model.cluster import Cluster
from repro.model.job import Job

#: Relative slack used by all property predicates; fairness violations below
#: this are considered numerical noise.
PROPERTY_TOL = 1e-6


# ----------------------------------------------------------------------
# Pareto efficiency and max-min fairness (exact, flow-based)
# ----------------------------------------------------------------------


def _job_site_graph(cluster: Cluster) -> ArrayFlowGraph:
    """``src -> job_i -> site_j -> snk`` over the support, source arcs empty.

    Nodes: ``src = 0``, jobs ``1..n``, sites ``n+1..n+m``, ``snk`` last.
    Job ``i``'s source arc has forward id ``2 * i``.
    """
    n, m = cluster.n_jobs, cluster.n_sites
    rows, cols = np.nonzero(cluster.support)
    return ArrayFlowGraph(
        n + m + 2,
        np.concatenate([np.zeros(n, dtype=np.int64), 1 + rows, 1 + n + np.arange(m)]),
        np.concatenate([1 + np.arange(n), 1 + n + cols, np.full(m, n + m + 1)]),
        np.concatenate([np.zeros(n), cluster.demand_caps[rows, cols], cluster.capacities]),
    )


def _hold(graph: ArrayFlowGraph, cluster: Cluster, targets: np.ndarray) -> None:
    """Reset ``graph`` to zero flow with the source arcs at ``targets`` and
    route a max flow, which must saturate them."""
    n = cluster.n_jobs
    graph.orig[0 : 2 * n : 2] = targets
    graph.reset_flow()
    demanded = float(targets.sum())
    held = graph.max_flow(0, graph.n_nodes - 1, limit=demanded)
    if not feq(held, demanded, scale=max(1.0, float(n + cluster.n_sites))):  # pragma: no cover
        raise ValueError("held aggregates are not feasible?")


def pareto_headroom(alloc: Allocation) -> float:
    """Total aggregate increase available without decreasing any job.

    Returns 0 for Pareto-efficient allocations.  Exact: routes the current
    aggregates through saturated source arcs, raises each arc to the job's
    aggregate demand, and measures the extra max-flow continued from there
    (an augmenting path never returns flow into the source, so no job's
    aggregate falls).
    """
    cluster = alloc.cluster
    graph = _job_site_graph(cluster)
    _hold(graph, cluster, alloc.aggregates)
    extra = cluster.aggregate_demand - alloc.aggregates
    for i in np.flatnonzero(extra > ABS_TOL):
        graph.increase_capacity(2 * int(i), float(extra[i]))
    return float(graph.max_flow(0, graph.n_nodes - 1))


def is_pareto_efficient(alloc: Allocation, tol: float = PROPERTY_TOL) -> bool:
    """Whether no job's aggregate can rise with all others held fixed."""
    scale = max(1.0, alloc.cluster.total_capacity)
    return pareto_headroom(alloc) <= tol * scale


def max_min_gains(alloc: Allocation) -> np.ndarray:
    """Per job, how far its aggregate could rise at the expense of only richer jobs.

    For each job ``i``, jobs at a (weighted) level <= ``i``'s are *protected*
    at their current aggregates; richer jobs are released entirely.  The
    gain is the extra max-flow into ``i`` once its source arc is raised to
    its aggregate demand.  Demand-saturated jobs are trivially at their
    max-min level and gain 0.
    """
    cluster = alloc.cluster
    levels = alloc.normalized_aggregates()
    scale = max(1.0, cluster.total_capacity)
    graph = _job_site_graph(cluster)
    gains = np.zeros(cluster.n_jobs)
    headroom = cluster.aggregate_demand - alloc.aggregates
    for i in np.flatnonzero(headroom > ABS_TOL * scale):
        protected = levels <= levels[i] * (1 + PROPERTY_TOL) + PROPERTY_TOL
        _hold(graph, cluster, np.where(protected, alloc.aggregates, 0.0))
        graph.increase_capacity(2 * int(i), float(headroom[i]))
        gains[i] = graph.max_flow(0, graph.n_nodes - 1)
    return gains


def max_min_violations(alloc: Allocation, tol: float = PROPERTY_TOL) -> list[tuple[str, float]]:
    """Jobs whose aggregate could rise at the expense of only richer jobs,
    each with its available headroom (see :func:`max_min_gains`)."""
    cluster = alloc.cluster
    scale = max(1.0, cluster.total_capacity)
    gains = max_min_gains(alloc)
    return [(cluster.jobs[i].name, float(gains[i])) for i in np.flatnonzero(gains > tol * scale)]


def is_max_min_fair(alloc: Allocation, tol: float = PROPERTY_TOL) -> bool:
    """Whether the aggregate vector is (weighted) max-min fair."""
    return not max_min_violations(alloc, tol=tol)


# ----------------------------------------------------------------------
# Envy-freeness
# ----------------------------------------------------------------------


def usable_value(cluster: Cluster, i: int, bundle: np.ndarray) -> float:
    """Value of an arbitrary site bundle *to job i*: clipped to its support and caps."""
    caps = cluster.demand_caps[i]
    return float(np.minimum(bundle, caps).sum())


def envy_matrix(alloc: Allocation) -> np.ndarray:
    """``(n, n)`` matrix: ``envy[i, k] = usable_i(bundle_k * w_i / w_k) - A_i``.

    Positive entries mean job ``i`` strictly prefers (a weight-scaled copy
    of) job ``k``'s bundle over its own.
    """
    cluster = alloc.cluster
    n = cluster.n_jobs
    w = cluster.weights
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            scaled = alloc.matrix[k] * (w[i] / w[k])
            out[i, k] = usable_value(cluster, i, scaled) - alloc.aggregates[i]
    return out


def envy_violations(alloc: Allocation, tol: float = PROPERTY_TOL) -> list[tuple[str, str, float]]:
    """Pairs ``(envious, envied, amount)`` with envy beyond tolerance."""
    cluster = alloc.cluster
    scale = max(1.0, cluster.total_capacity)
    env = envy_matrix(alloc)
    out = []
    for i in range(cluster.n_jobs):
        for k in range(cluster.n_jobs):
            if env[i, k] > tol * scale:
                out.append((cluster.jobs[i].name, cluster.jobs[k].name, float(env[i, k])))
    return out


def is_envy_free(alloc: Allocation, tol: float = PROPERTY_TOL) -> bool:
    return not envy_violations(alloc, tol=tol)


# ----------------------------------------------------------------------
# Sharing incentive
# ----------------------------------------------------------------------


def sharing_incentive_violations(alloc: Allocation, tol: float = PROPERTY_TOL) -> list[tuple[str, float]]:
    """Jobs whose aggregate is below their equal-partition entitlement.

    Returns ``(job, shortfall)`` pairs; empty means the sharing-incentive
    property holds on this instance.
    """
    cluster = alloc.cluster
    entitlements = np.minimum(cluster.equal_partition_entitlements(), cluster.aggregate_demand)
    scale = max(1.0, cluster.total_capacity)
    short = entitlements - alloc.aggregates
    return [
        (cluster.jobs[i].name, float(short[i]))
        for i in range(cluster.n_jobs)
        if short[i] > tol * scale
    ]


def satisfies_sharing_incentive(alloc: Allocation, tol: float = PROPERTY_TOL) -> bool:
    return not sharing_incentive_violations(alloc, tol=tol)


# ----------------------------------------------------------------------
# Strategy-proofness (randomized falsification probe)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ManipulationResult:
    """One manipulation attempt: which job lied, how, and what it gained."""

    job: str
    kind: str
    truthful_utility: float
    manipulated_utility: float

    @property
    def gain(self) -> float:
        return self.manipulated_utility - self.truthful_utility


def _true_utility(cluster: Cluster, i: int, matrix_row: np.ndarray) -> float:
    """Utility of an allocated row measured against the job's *true* report."""
    return usable_value(cluster, i, matrix_row)


def _manipulations(job: Job, sites: Sequence[str], rng: np.random.Generator) -> list[tuple[str, Job]]:
    """Candidate misreports of ``job``: cap inflation/deflation, hiding and faking sites, skewing."""
    out: list[tuple[str, Job]] = []
    support = sorted(job.workload)
    # inflate every demand cap (claim more parallelism)
    out.append(("inflate-caps", job.with_workload(dict(job.workload), demand={})))
    # deflate caps at a random site
    s = support[int(rng.integers(len(support)))]
    deflated = dict(job.demand)
    deflated[s] = 0.5 * min(job.demand_at(s), max(job.workload[s], 1.0))
    out.append(("deflate-cap", job.with_workload(dict(job.workload), demand=deflated)))
    # hide a site (only if >= 2 in support)
    if len(support) >= 2:
        hidden = dict(job.workload)
        hidden.pop(s)
        demand = {k: v for k, v in job.demand.items() if k != s}
        out.append(("hide-site", job.with_workload(hidden, demand=demand)))
    # claim fake work at a site outside the support
    extra = [x for x in sites if x not in job.workload]
    if extra:
        fake = dict(job.workload)
        fake[extra[int(rng.integers(len(extra)))]] = float(job.total_work)
        out.append(("fake-site", job.with_workload(fake, demand=dict(job.demand))))
    # skew the reported workload distribution (affects CT add-on splits)
    skewed = {k: v * float(rng.uniform(0.2, 5.0)) for k, v in job.workload.items()}
    out.append(("skew-workload", job.with_workload(skewed, demand=dict(job.demand))))
    return out


def strategy_proofness_probe(
    cluster: Cluster,
    solver: Callable[[Cluster], Allocation],
    rng: np.random.Generator,
    attempts: int = 20,
    tol: float = PROPERTY_TOL,
) -> list[ManipulationResult]:
    """Try to find a profitable misreport under ``solver``.

    For each attempt a random job misreports (caps, support or workload
    skew); the resulting allocation is valued against the job's *true*
    support and caps.  Returns the successful manipulations (beyond
    tolerance) — expected empty for AMF / AMF-E / PSMF.
    """
    truthful = solver(cluster)
    scale = max(1.0, cluster.total_capacity)
    results: list[ManipulationResult] = []
    site_names = [s.name for s in cluster.sites]
    for _ in range(attempts):
        i = int(rng.integers(cluster.n_jobs))
        job = cluster.jobs[i]
        for kind, lie in _manipulations(job, site_names, rng):
            manipulated = solver(cluster.replace_job(lie))
            row = manipulated.matrix[manipulated.cluster.job_index(job.name)]
            # Map the manipulated row back onto the true cluster's site axis
            # (site order is preserved by replace_job).
            util = _true_utility(cluster, i, row)
            base = _true_utility(cluster, i, truthful.matrix[i])
            if flt(base + tol * scale, util):
                results.append(ManipulationResult(job.name, kind, base, util))
    return results


# ----------------------------------------------------------------------
# Monotonicity axioms (classic in this literature; probes, not proofs)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class MonotonicityBreach:
    """One observed monotonicity failure."""

    kind: str  # "population" or "resource"
    trigger: str  # departing job / grown site
    victim: str  # job whose aggregate decreased
    before: float
    after: float


def population_monotonicity_probe(
    cluster: Cluster,
    solver: Callable[[Cluster], Allocation],
    tol: float = PROPERTY_TOL,
) -> list[MonotonicityBreach]:
    """Does any job *lose* when another job departs?

    Population monotonicity says freeing a competitor's resources should
    never hurt the remaining jobs.  Max-min style policies usually satisfy
    it, but cross-site compensation makes it non-obvious for AMF — hence a
    probe over every single-job departure.
    """
    base = solver(cluster)
    scale = max(1.0, cluster.total_capacity)
    out: list[MonotonicityBreach] = []
    if cluster.n_jobs < 2:
        return out
    for departing in [j.name for j in cluster.jobs]:
        reduced = solver(cluster.without_job(departing))
        for job in reduced.cluster.jobs:
            before = base.aggregate_of(job.name)
            after = reduced.aggregate_of(job.name)
            if after < before - tol * scale:
                out.append(MonotonicityBreach("population", departing, job.name, before, after))
    return out


def resource_monotonicity_probe(
    cluster: Cluster,
    solver: Callable[[Cluster], Allocation],
    factor: float = 1.5,
    tol: float = PROPERTY_TOL,
) -> list[MonotonicityBreach]:
    """Does any job *lose* when a site's capacity grows?

    Resource monotonicity is known to be violable by constrained max-min
    fairness in networks; the probe grows each site by ``factor`` in turn
    and reports any job whose aggregate drops.  Finding breaches is an
    *informative* outcome, not a bug — T1's companion text discusses it.
    """
    from repro.model.cluster import Cluster as _Cluster

    base = solver(cluster)
    scale = max(1.0, cluster.total_capacity)
    out: list[MonotonicityBreach] = []
    for grown in cluster.sites:
        new_sites = [s.scaled(factor) if s.name == grown.name else s for s in cluster.sites]
        bigger = solver(_Cluster(new_sites, cluster.jobs))
        for job in cluster.jobs:
            before = base.aggregate_of(job.name)
            after = bigger.aggregate_of(job.name)
            if after < before - tol * scale:
                out.append(MonotonicityBreach("resource", grown.name, job.name, before, after))
    return out


# ----------------------------------------------------------------------
# Consolidated report (benchmark T1)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PropertyReport:
    """Property satisfaction evidence for one allocation."""

    policy: str
    pareto: bool
    max_min: bool
    envy_free: bool
    sharing_incentive: bool
    pareto_headroom: float = 0.0
    si_shortfall: float = 0.0
    details: dict = field(default_factory=dict)


def check_all(alloc: Allocation, *, expect_max_min: bool = True) -> PropertyReport:
    """Run every static property check against an allocation."""
    headroom = pareto_headroom(alloc)
    si = sharing_incentive_violations(alloc)
    scale = max(1.0, alloc.cluster.total_capacity)
    return PropertyReport(
        policy=alloc.policy,
        pareto=headroom <= PROPERTY_TOL * scale,
        max_min=is_max_min_fair(alloc) if expect_max_min else False,
        envy_free=is_envy_free(alloc),
        sharing_incentive=not si,
        pareto_headroom=headroom,
        si_shortfall=max((v for _, v in si), default=0.0),
        details={"si_violations": si},
    )
