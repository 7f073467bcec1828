"""Reference decomposition: the dense-support walk ``core.sharding.decompose``
used before it followed ``job.workload`` (two ``np.nonzero`` per job over the
full cluster's support mask).  Kept as the differential oracle; nothing under
``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro.core.sharding import Shard, _UnionFind
from repro.model.cluster import Cluster


def decompose(cluster: Cluster) -> list[Shard]:
    uf = _UnionFind(cluster.n_sites)
    support = cluster.support
    for i in range(cluster.n_jobs):
        sites = np.nonzero(support[i])[0]
        first = int(sites[0])
        for j in sites[1:]:
            uf.union(first, int(j))
    site_groups: dict[int, list[int]] = {}
    for j in range(cluster.n_sites):
        site_groups.setdefault(uf.find(j), []).append(j)
    job_groups: dict[int, list[int]] = {root: [] for root in site_groups}
    for i in range(cluster.n_jobs):
        root = uf.find(int(np.nonzero(support[i])[0][0]))
        job_groups[root].append(i)
    shards: list[Shard] = []
    for root in sorted(site_groups):
        site_idx = tuple(site_groups[root])
        job_idx = tuple(job_groups[root])
        sub = Cluster(
            tuple(cluster.sites[j] for j in site_idx),
            tuple(cluster.jobs[i] for i in job_idx),
        )
        shards.append(
            Shard(
                key=frozenset(cluster.sites[j].name for j in site_idx),
                site_indices=site_idx,
                job_indices=job_idx,
                cluster=sub,
            )
        )
    return shards
