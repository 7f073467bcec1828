"""PSMF — the paper's baseline: per-site max-min fairness.

Each site independently runs demand-capped water-filling among the jobs with
work there ("simply requires the resource allocation at each site to be
max-min fair", per the abstract).  Sites ignore each other, so a job whose
work is concentrated at a hot site is stuck with that site's small share
even when it could be compensated elsewhere — the imbalance AMF fixes.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.waterfilling import water_fill
from repro.model.cluster import Cluster


def solve_psmf(cluster: Cluster) -> Allocation:
    """Compute the per-site max-min fair (baseline) allocation.

    At site ``j``, the jobs with support there split ``c_j`` by weighted
    water-filling with their effective demand caps ``d_ij``.  Exact and
    ``O(m * n log n)``.

    A multi-resource cluster has no scalar ``c_j`` to split (task rates
    water-filled against a site's stand-in capacity over-commit its
    resources), so it gets per-site max-min in its multi-resource form,
    :func:`repro.multiresource.persite.solve_persite_drf`: this is what
    keeps the ``psmf`` fallback rung valid on vector clusters.
    """
    if cluster.is_multiresource:
        from repro.multiresource.persite import solve_persite_drf

        return solve_persite_drf(cluster)
    matrix = np.zeros((cluster.n_jobs, cluster.n_sites))
    caps = cluster.demand_caps
    weights = cluster.weights
    for j in range(cluster.n_sites):
        present = np.flatnonzero(cluster.support[:, j])
        if present.size == 0:
            continue
        matrix[present, j] = water_fill(
            float(cluster.capacities[j]),
            caps[present, j],
            weights[present],
        )
    return Allocation(cluster, matrix, policy="psmf")
