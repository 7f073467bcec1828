"""Reference network construction: ``ParametricFeasibility.__init__`` as it
was when it appended the reduced network's edges to Python lists one at a
time.  The shipped constructor builds the same arrays from
``np.nonzero(support[multi])`` (row-major order is this loop's visiting
order); this copy is the differential oracle for every edge id and walk
list, and the stream differential patches it in as ``__init__``.  Nothing
under ``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro.flownet.arrayflow import ArrayFlowGraph
from repro.flownet.parametric import ParametricFeasibility, ProbeStats
from repro.model.cluster import Cluster


def reference_init(self, cluster: Cluster):
    self.cluster = cluster
    self.stats = ProbeStats()
    n, m = cluster.n_jobs, cluster.n_sites
    self._n, self._m = n, m
    self._scale = max(1.0, float(n + m))
    self._capacities = cluster.capacities
    support = cluster.support
    dcaps = cluster.demand_caps

    degree = support.sum(axis=1)
    folded = degree == 1
    self._folded_idx = np.flatnonzero(folded)
    self._multi_idx = np.flatnonzero(~folded)
    if self._folded_idx.size:
        self._folded_site = support[self._folded_idx].argmax(axis=1).astype(np.int64)
        self._folded_cap = dcaps[self._folded_idx, self._folded_site]
    else:
        self._folded_site = np.zeros(0, dtype=np.int64)
        self._folded_cap = np.zeros(0)
    self.stats.folded_jobs = int(self._folded_idx.size)

    # Reduced network: src=0, multi jobs 1..K, sites K+1..K+m, snk last.
    # Edge order fixes the ids: K source arcs, then support arcs, then m
    # sink arcs (forward id of the k-th edge is 2k).
    k_multi = int(self._multi_idx.size)
    self._src = 0
    self._site0 = k_multi + 1
    self._snk = k_multi + m + 1
    tails: list[int] = []
    heads: list[int] = []
    caps_e: list[float] = []
    for k in range(k_multi):
        tails.append(self._src)
        heads.append(1 + k)
        caps_e.append(0.0)
    sup_eids: list[int] = []
    sup_job: list[int] = []
    sup_site: list[int] = []
    self._job_edges: list[list[tuple[int, int]]] = [[] for _ in range(k_multi)]
    self._site_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    eid = 2 * k_multi
    for k, i in enumerate(self._multi_idx):
        for j in np.flatnonzero(support[i]):
            j = int(j)
            tails.append(1 + k)
            heads.append(self._site0 + j)
            caps_e.append(float(dcaps[i, j]))
            sup_eids.append(eid)
            sup_job.append(int(i))
            sup_site.append(j)
            self._job_edges[k].append((eid, j))
            self._site_edges[j].append((eid, k))
            eid += 2
    self._site_eids = np.arange(m, dtype=np.int64) * 2 + eid
    for j in range(m):
        tails.append(self._site0 + j)
        heads.append(self._snk)
        caps_e.append(0.0)
    self._graph = ArrayFlowGraph(self._snk + 1, tails, heads, caps_e)
    self._source_eids = np.arange(k_multi, dtype=np.int64) * 2
    self._source_eids_list = self._source_eids.tolist()
    self._site_eids_list = self._site_eids.tolist()
    self._sup_eids = np.asarray(sup_eids, dtype=np.int64)
    self._sup_job = np.asarray(sup_job, dtype=np.int64)
    self._sup_site = np.asarray(sup_site, dtype=np.int64)

    self._last_feasible: np.ndarray | None = None
    self._flow_targets: np.ndarray | None = None


def reference_oracle(cluster: Cluster) -> ParametricFeasibility:
    """A ``ParametricFeasibility`` built by :func:`reference_init`."""
    oracle = object.__new__(ParametricFeasibility)
    reference_init(oracle, cluster)
    return oracle
