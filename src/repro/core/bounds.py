"""Reference bound: what locality costs.

:func:`locality_oblivious_levels` is the max-min fair allocation of one
*pooled* resource of size ``Σ_j c_j``, as if work could run anywhere.  This
relaxes every cut constraint of the real system, so its common water level
upper-bounds the minimum level any feasible policy (AMF included) can
reach.  The gap between it and AMF is the **price of locality** (extension
experiment X4).  The lower reference, the static equal partition, is
:func:`repro.core.enhanced.sharing_incentive_floors`.
"""

from __future__ import annotations

import numpy as np

from repro.core.waterfilling import water_fill
from repro.model.cluster import Cluster

__all__ = ["locality_oblivious_levels", "price_of_locality"]


def locality_oblivious_levels(cluster: Cluster) -> np.ndarray:
    """Max-min fair aggregates if all capacity were one fungible pool.

    Demand caps still apply (a job cannot use more than its aggregate
    demand), but locality support and per-site capacities are relaxed into
    ``Σ_j c_j``.  The result is the classic single-resource water-filling
    vector — an idealized upper reference, not a feasible allocation.
    """
    return water_fill(cluster.total_capacity, cluster.aggregate_demand, cluster.weights)


def price_of_locality(cluster: Cluster, levels: np.ndarray) -> float:
    """How much locality costs the poorest job under ``levels``.

    Ratio of the locality-oblivious minimum weighted level to the measured
    minimum weighted level; 1.0 means locality was free, larger means the
    poorest job pays for its data placement.  ``inf`` when some job is
    fully starved.
    """
    oblivious = locality_oblivious_levels(cluster) / cluster.weights
    measured = np.asarray(levels, dtype=float) / cluster.weights
    lo = float(measured.min())
    hi = float(oblivious.min())
    if lo <= 0.0:
        return np.inf if hi > 0.0 else 1.0
    return max(hi / lo, 1.0)
