"""Enhanced AMF — sharing-incentive guarantees (the paper's Section on AMF+).

Plain AMF equalizes aggregates, but a demand-capped job can end up *below*
what it would have banked if every site were statically split ``1/n``-ways —
a sharing-incentive violation (the abstract: "it does not necessarily
satisfy the sharing incentive property. We propose an enhanced version of
AMF to guarantee the sharing incentive property.").

The minimal failing shape (reproduced in the tests and experiment T2): a job
with a small demand cap at an idle site and work at a busy site reaches its
AMF level partly via the idle site, so progressive filling freezes it at a
*common aggregate* that is below its equal-partition entitlement.

Enhanced AMF fixes this by running progressive filling **above per-job
floors** equal to the equal-partition entitlements

    E_i = sum over job i's support of min(weight-share_i * c_j, d_ij).

The floors are always jointly feasible (the equal partition itself realizes
them), so the solver never rejects them; everything above the floors is
still filled max-min fairly, preserving Pareto efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.amf import AmfDiagnostics, solve_amf
from repro.model.cluster import Cluster


def sharing_incentive_floors(cluster: Cluster) -> np.ndarray:
    """Per-job floors: equal-partition entitlements clipped to aggregate demand."""
    return np.minimum(cluster.equal_partition_entitlements(), cluster.aggregate_demand)


def solve_amf_enhanced(cluster: Cluster, diagnostics: AmfDiagnostics | None = None) -> Allocation:
    """Compute the enhanced AMF allocation (sharing incentive guaranteed).

    Identical to :func:`repro.core.amf.solve_amf` with
    :func:`sharing_incentive_floors` installed; returned with policy name
    ``"amf-e"``.
    """
    alloc = solve_amf(cluster, floors=sharing_incentive_floors(cluster), diagnostics=diagnostics)
    return Allocation(cluster, alloc.matrix, policy="amf-e")
