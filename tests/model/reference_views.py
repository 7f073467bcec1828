"""Reference view builders: the cell-by-cell ``workloads`` / ``demand_caps``
loops ``Cluster`` used before ``Cluster._edge_views`` filled both from one
pass over the support edges.  Kept as the differential oracle (the array
version must be ``np.array_equal`` to these, not merely close); nothing
under ``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro.model.cluster import Cluster


def workloads(cluster: Cluster) -> np.ndarray:
    mat = np.zeros((cluster.n_jobs, cluster.n_sites), dtype=float)
    for i, job in enumerate(cluster.jobs):
        for site, work in job.workload.items():
            mat[i, cluster.site_index(site)] = work
    mat.flags.writeable = False
    return mat


def demand_caps(cluster: Cluster) -> np.ndarray:
    caps = np.zeros((cluster.n_jobs, cluster.n_sites), dtype=float)
    mr = cluster.is_multiresource
    for i, job in enumerate(cluster.jobs):
        vec = job.resource_vector if mr else None
        for site in job.workload:
            j = cluster.site_index(site)
            if mr:
                site_vec = cluster.sites[j].resource_vector
                alone = min(site_vec.get(res, 0.0) / amount for res, amount in vec.items())
            else:
                alone = cluster.sites[j].capacity
            caps[i, j] = min(job.demand_at(site), alone)
    caps.flags.writeable = False
    return caps


def edge_views(cluster: Cluster) -> tuple[np.ndarray, np.ndarray]:
    """Drop-in for ``Cluster._edge_views`` (patched in by the stream differential)."""
    views = workloads(cluster), demand_caps(cluster)
    cluster.__dict__["workloads"], cluster.__dict__["demand_caps"] = views
    return views
