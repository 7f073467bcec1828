"""Static batch instance generation with a controllable skew knob.

The generative model (reconstructed from the abstract's evaluation: "the
workload distribution of jobs among sites is highly skewed"):

1. Sites have a global Zipf(``theta``) popularity law — hot datacenters
   hold more data, so more jobs have more work there.
2. Each job touches ``site_spread`` sites, sampled without replacement
   proportionally to popularity.
3. The job's total work (lognormal with coefficient of variation
   ``work_cv``) is split across its sites proportionally to popularity,
   jittered by a Dirichlet factor so jobs are not clones.
4. Per-edge demand caps model runnable parallelism:
   ``d_ij = demand_scale * w_ij`` (tasks per unit work), or uncapped when
   ``demand_scale`` is ``None``.
5. Site capacities are uniform and chosen so aggregate demand over
   aggregate capacity equals ``contention`` (> 1 means the system is
   oversubscribed and fairness is binding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.workload.zipf import zipf_probabilities


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of the static batch generator (defaults follow DESIGN.md F1)."""

    n_jobs: int = 100
    n_sites: int = 20
    theta: float = 1.0  # site-popularity skew (0 = uniform)
    site_spread: int = 4  # sites per job (clipped to n_sites)
    mean_work: float = 100.0
    work_cv: float = 1.0  # lognormal coefficient of variation
    dirichlet_jitter: float = 2.0  # smaller = noisier per-job splits
    demand_scale: float | None = 0.05  # d_ij = demand_scale * w_ij; None = uncapped
    contention: float = 3.0  # aggregate demand / aggregate capacity
    weight_spread: float = 0.0  # 0 = unit weights; else weights in [1, 1+spread]

    def __post_init__(self) -> None:
        require(self.n_jobs > 0 and self.n_sites > 0, "need jobs and sites")
        require(self.site_spread >= 1, "jobs must touch at least one site")
        require(self.mean_work > 0 and self.work_cv >= 0, "invalid work distribution")
        require(self.contention > 0, "contention must be positive")
        require(self.demand_scale is None or self.demand_scale > 0, "demand_scale must be positive or None")


def _lognormal(rng: np.random.Generator, mean: float, cv: float, size: int) -> np.ndarray:
    """Lognormal samples with the requested mean and coefficient of variation."""
    if cv <= 0.0:
        return np.full(size, mean)
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return rng.lognormal(mu, np.sqrt(sigma2), size)


def generate_jobs(spec: WorkloadSpec, rng: np.random.Generator) -> list[Job]:
    """Sample the jobs of a batch instance (arrival = 0 for all)."""
    m = spec.n_sites
    popularity = zipf_probabilities(m, spec.theta)
    spread = min(spec.site_spread, m)
    totals = _lognormal(rng, spec.mean_work, spec.work_cv, spec.n_jobs)
    jobs: list[Job] = []
    for i in range(spec.n_jobs):
        chosen = rng.choice(m, size=spread, replace=False, p=popularity)
        base = popularity[chosen]
        jitter = rng.dirichlet(np.full(spread, spec.dirichlet_jitter))
        split = base * jitter
        split = split / split.sum()
        workload = {}
        demand = {}
        for k, j in enumerate(chosen):
            w = float(totals[i] * split[k])
            if w <= 0.0:
                continue
            workload[f"s{j}"] = w
            if spec.demand_scale is not None:
                demand[f"s{j}"] = spec.demand_scale * w
        if not workload:  # pragma: no cover - split always has positive mass
            workload[f"s{chosen[0]}"] = float(totals[i])
        weight = 1.0 + (float(rng.uniform(0.0, spec.weight_spread)) if spec.weight_spread > 0 else 0.0)
        jobs.append(Job(f"j{i}", workload, demand, weight=weight))
    return jobs


def sites_for(spec: WorkloadSpec, jobs: list[Job], site_capacity: float | None = None) -> list[Site]:
    """Uniform site capacities realizing ``spec.contention`` for ``jobs``.

    When ``demand_scale`` is ``None`` there is no finite aggregate demand;
    capacity then defaults to total work / (horizon of 10 time units).
    """
    if site_capacity is None:
        if spec.demand_scale is not None:
            total_demand = sum(sum(j.demand.values()) for j in jobs)
            site_capacity = total_demand / (spec.contention * spec.n_sites)
        else:
            total_work = sum(j.total_work for j in jobs)
            site_capacity = total_work / (10.0 * spec.n_sites)
    require(site_capacity > 0, "degenerate instance: zero capacity")
    return [Site(f"s{j}", float(site_capacity)) for j in range(spec.n_sites)]


def generate_cluster(spec: WorkloadSpec, rng: np.random.Generator) -> Cluster:
    """Sample a full batch instance as a :class:`~repro.model.cluster.Cluster`."""
    jobs = generate_jobs(spec, rng)
    return Cluster(sites_for(spec, jobs), jobs)
