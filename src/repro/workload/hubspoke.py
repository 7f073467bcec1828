"""Hub-and-spoke instances: the structural home of sharing-incentive failures.

Every job needs the *hub* (a shared hot dataset); each job additionally has
a demand-capped *satellite* option (private data at a nearby site).  Under
plain AMF all jobs equalize at

    lam = (c_hub + sum_k d_k) / n,

so a job whose satellite cap ``d_i`` exceeds the mean cap ends up **below**
its equal-partition entitlement ``c_hub / n + d_i`` — it subsidizes the
others with its outside option.  This is exactly the paper's motivating
sharing-incentive violation, generalized; experiment T2 uses this family
(parameterized by cap heterogeneity) and enhanced AMF repairs every case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site


@dataclass(frozen=True, slots=True)
class HubSpokeSpec:
    """Parameters of the hub-and-spoke family.

    ``satellite_capacity = None`` (default) sizes each satellite at
    ``2 * n_jobs * mean_cap`` so the equal-partition share of a satellite
    (``c_sat / n``) exceeds every demand cap — the job's entitlement there
    is its full cap ``d_i``, which is what makes violations possible.
    """

    n_jobs: int = 12
    hub_capacity: float = 1.0
    satellite_capacity: float | None = None
    mean_cap: float = 0.15  # mean satellite demand cap
    cap_spread: float = 1.0  # 0 = homogeneous caps (no violations); 1 = caps in [0, 2*mean]
    hub_work: float = 1.0

    def __post_init__(self) -> None:
        require(self.n_jobs >= 2, "need at least two jobs")
        require(self.hub_capacity > 0, "hub capacity must be positive")
        require(self.satellite_capacity is None or self.satellite_capacity > 0, "satellite capacity must be positive")
        require(self.mean_cap >= 0, "mean_cap must be non-negative")
        require(0.0 <= self.cap_spread <= 1.0, "cap_spread in [0, 1]")

    @property
    def effective_satellite_capacity(self) -> float:
        if self.satellite_capacity is not None:
            return self.satellite_capacity
        return max(2.0 * self.n_jobs * self.mean_cap, 1e-6)


def hub_and_spoke_cluster(spec: HubSpokeSpec, rng: np.random.Generator) -> Cluster:
    """Sample one hub-and-spoke instance.

    Sites: one hub plus one satellite per job (satellites are private, so
    their capacity never contends).  Job ``i`` has ``hub_work`` at the hub
    and satellite work with a demand cap drawn uniformly from
    ``mean_cap * [1 - cap_spread, 1 + cap_spread]``.
    """
    sites = [Site("hub", spec.hub_capacity)]
    jobs = []
    for i in range(spec.n_jobs):
        sat = f"sat{i}"
        sites.append(Site(sat, spec.effective_satellite_capacity))
        lo = spec.mean_cap * (1.0 - spec.cap_spread)
        hi = spec.mean_cap * (1.0 + spec.cap_spread)
        cap = float(rng.uniform(lo, hi)) if hi > lo else spec.mean_cap
        workload = {"hub": spec.hub_work}
        demand = {}
        if cap > 0.0:
            workload[sat] = max(cap, 1e-6)  # enough work to use the cap
            demand[sat] = cap
        jobs.append(Job(f"j{i}", workload, demand))
    return Cluster(sites, jobs)
