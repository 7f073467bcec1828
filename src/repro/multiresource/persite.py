"""Per-site Dominant Resource Fairness — the multi-resource baseline.

At each site independently, progressive filling on *local* dominant
shares: all present jobs raise a common share level; each resource's usage
is a capped piecewise-linear function of the level, so the level at which
a resource saturates is solved in closed form
(:func:`repro.core.waterfilling.solve_capped_level`).  When a resource
saturates, every unfrozen job consuming it freezes; jobs not touching the
saturated resource keep rising in later rounds.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL
from repro.core.allocation import Allocation
from repro.core.waterfilling import solve_capped_level
from repro.model.cluster import Cluster


def _site_drf_rates(cluster: Cluster, j: int) -> np.ndarray:
    """Task rates of DRF at site ``j`` for every job (zeros off-support)."""
    caps = cluster.demand_caps[:, j]
    present = np.flatnonzero(caps > 0.0)
    n = cluster.n_jobs
    rates = np.zeros(n)
    if present.size == 0:
        return rates
    demand = cluster.job_resource_matrix[present]  # (p, R)
    capacity = cluster.site_resource_matrix[j]  # (R,)
    n_resources = capacity.size
    # Local dominant share per task.  A site may offer a subset of the
    # federation's resources; a present job consumes none of the missing
    # ones (its demand cap here would be 0), so those columns are skipped.
    offered = capacity > 0.0
    dom = (demand[:, offered] / capacity[offered]).max(axis=1)
    share_caps = caps[present] * dom  # share level at which each job's tasks run out

    frozen = np.zeros(present.size, dtype=bool)
    levels = np.zeros(present.size)  # frozen dominant-share levels
    remaining = capacity.astype(float).copy()

    for _round in range(present.size + n_resources + 1):
        if frozen.all():
            break
        active = ~frozen
        # Usage of resource r as the common weighted level lam rises:
        # each active job contributes min(lam * w, share_cap) / dom * demand_r.
        lam_star = np.inf
        tight_resource = None
        for r in range(n_resources):
            coeff = demand[active, r] / dom[active]
            mask = coeff > 0.0
            if not mask.any():
                continue
            budget = remaining[r]
            # normalize: per-unit-level usage = coeff * w; caps scale likewise
            idx = np.flatnonzero(active)[mask]
            eff_caps = (share_caps[idx] - levels[idx]) * (demand[idx, r] / dom[idx])
            eff_w = cluster.weights[present][idx] * (demand[idx, r] / dom[idx])
            total_possible = float(eff_caps.sum())
            if total_possible <= budget + ABS_TOL:
                continue  # this resource never binds for the remaining rise
            lam_r = solve_capped_level(budget, eff_caps, eff_w)
            if lam_r < lam_star:
                lam_star, tight_resource = lam_r, r
        if tight_resource is None:
            # no resource binds: everyone saturates at task caps
            delta = share_caps[active] - levels[active]
            for r in range(n_resources):
                remaining[r] -= float((delta * demand[active, r] / dom[active]).sum())
            levels[active] = share_caps[active]
            frozen[active] = True
            break
        # advance everyone to lam_star (clipped at their caps), freeze the
        # cap-saturated and the users of the tight resource
        w_act = cluster.weights[present][active]
        rise = np.minimum(levels[active] + lam_star * w_act, share_caps[active]) - levels[active]
        idx_act = np.flatnonzero(active)
        for r in range(n_resources):
            remaining[r] -= float((rise * demand[idx_act, r] / dom[idx_act]).sum())
        levels[idx_act] += rise
        cap_sat = levels >= share_caps - ABS_TOL
        uses_tight = demand[:, tight_resource] > 0.0
        frozen |= cap_sat | uses_tight
    rates[present] = levels / dom
    return rates


def solve_persite_drf(cluster: Cluster) -> Allocation:
    """Independent per-site DRF: task rates as an :class:`Allocation` (policy ``"psdrf"``)."""
    rates = np.zeros((cluster.n_jobs, cluster.n_sites))
    for j in range(cluster.n_sites):
        rates[:, j] = _site_drf_rates(cluster, j)
    return Allocation(cluster, rates, policy="psdrf")
