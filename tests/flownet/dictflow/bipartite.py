"""Job-site feasibility networks on the dict-keyed stack.

Every static policy question in this library reduces to flows on the same
bipartite network::

    SRC --A_i--> job_i --d_ij--> site_j --c_j--> SNK

An aggregate target vector ``A`` is feasible iff the max flow equals
``sum(A)``; the min cut at an infeasible vector names the binding bottleneck.
This is the cold reference that :class:`repro.flownet.parametric
.ParametricFeasibility` and the array-built checkers are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import feq
from repro.model.cluster import Cluster
from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph

SRC = ("src",)
SNK = ("snk",)


def job_key(i: int) -> tuple[str, int]:
    return ("job", i)


def site_key(j: int) -> tuple[str, int]:
    return ("site", j)


@dataclass(slots=True)
class FeasibilityNetwork:
    """A job-site network bound to one cluster.

    ``source_edges[i]`` is the edge id of ``SRC -> job_i``.
    """

    cluster: Cluster
    graph: FlowGraph
    source_edges: list[int]
    support_edges: dict[tuple[int, int], int]

    def solve(self) -> "FeasibilityOutcome":
        """Run max-flow against the installed targets."""
        result = Dinic(self.graph).max_flow(SRC, SNK)
        demanded = sum(self.graph._orig_cap[eid] for eid in self.source_edges)
        delivered = sum(self.graph.edge_flow(eid) for eid in self.source_edges)
        cut_keys = frozenset(self.graph.key_of(n) for n in result.source_side)
        scale = max(1.0, float(self.cluster.n_jobs + self.cluster.n_sites))
        return FeasibilityOutcome(
            feasible=feq(delivered, demanded, scale=scale),
            flow_value=delivered,
            demanded=demanded,
            cut_jobs=frozenset(k[1] for k in cut_keys if isinstance(k, tuple) and k[0] == "job"),
            cut_sites=frozenset(k[1] for k in cut_keys if isinstance(k, tuple) and k[0] == "site"),
        )

    def allocation_matrix(self) -> np.ndarray:
        """Extract the ``(n, m)`` allocation carried by the current flow."""
        alloc = np.zeros((self.cluster.n_jobs, self.cluster.n_sites))
        for (i, j), eid in self.support_edges.items():
            alloc[i, j] = self.graph.edge_flow(eid)
        return alloc


@dataclass(frozen=True, slots=True)
class FeasibilityOutcome:
    """Result of one feasibility solve.

    ``cut_jobs`` / ``cut_sites`` are the job / site indices on the *source
    side* of the (minimal) min cut.
    """

    feasible: bool
    flow_value: float
    demanded: float
    cut_jobs: frozenset[int]
    cut_sites: frozenset[int]


def build_network(cluster: Cluster, targets: np.ndarray) -> FeasibilityNetwork:
    """Build the job-site network for ``cluster`` with source arcs at ``targets``."""
    g = FlowGraph()
    g.node(SRC)
    caps = cluster.demand_caps
    support = cluster.support
    source_edges = [g.add_edge(SRC, job_key(i), float(targets[i])) for i in range(cluster.n_jobs)]
    support_edges: dict[tuple[int, int], int] = {}
    for i in range(cluster.n_jobs):
        row = support[i]
        for j in np.flatnonzero(row):
            support_edges[(i, int(j))] = g.add_edge(job_key(i), site_key(int(j)), float(caps[i, j]))
    for j in range(cluster.n_sites):
        g.add_edge(site_key(j), SNK, float(cluster.capacities[j]))
    return FeasibilityNetwork(cluster, g, source_edges, support_edges)
