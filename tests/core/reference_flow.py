"""The property checkers and the completion-time circulation as they ran on
the dict-keyed flow stack (``tests/flownet/dictflow``): a fresh
``FeasibilityNetwork`` + ``Dinic`` per question, parallel source edges for
the headroom, and a ``BoundedEdge`` list keyed by node tuples.  The shipped
versions run on ``ArrayFlowGraph``; these copies are their differential
reference (tests/core/test_flow_ports.py).  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL
from repro.core.allocation import Allocation, scrub_matrix
from repro.core.properties import PROPERTY_TOL
from repro.model.cluster import Cluster
from tests.flownet.dictflow.bipartite import SNK, SRC, build_network, job_key, site_key
from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.lower_bounds import BoundedEdge, feasible_flow_with_lower_bounds


def reference_pareto_headroom(alloc: Allocation) -> float:
    cluster = alloc.cluster
    network = build_network(cluster, alloc.aggregates)
    assert network.solve().feasible
    extra = cluster.aggregate_demand - alloc.aggregates
    for i in range(cluster.n_jobs):
        if extra[i] > ABS_TOL:
            network.graph.add_edge(SRC, job_key(i), float(extra[i]))
    return float(Dinic(network.graph).max_flow(SRC, SNK).value)


def reference_max_min_gains(alloc: Allocation) -> np.ndarray:
    cluster = alloc.cluster
    levels = alloc.normalized_aggregates()
    scale = max(1.0, cluster.total_capacity)
    gains = np.zeros(cluster.n_jobs)
    for i in range(cluster.n_jobs):
        if alloc.aggregates[i] >= cluster.aggregate_demand[i] - ABS_TOL * scale:
            continue
        protected = levels <= levels[i] * (1 + PROPERTY_TOL) + PROPERTY_TOL
        network = build_network(cluster, np.where(protected, alloc.aggregates, 0.0))
        assert network.solve().feasible
        headroom = cluster.aggregate_demand[i] - alloc.aggregates[i]
        network.graph.add_edge(SRC, job_key(i), float(headroom))
        gains[i] = Dinic(network.graph).max_flow(SRC, SNK).value
    return gains


def _edges_for_targets(
    cluster: Cluster, levels: np.ndarray, deadlines: np.ndarray
) -> list[BoundedEdge] | None:
    W = cluster.workloads
    caps = cluster.demand_caps
    edges: list[BoundedEdge] = []
    for i in range(cluster.n_jobs):
        if levels[i] <= ABS_TOL:
            continue
        edges.append(BoundedEdge(SRC, job_key(i), float(levels[i]), float(levels[i])))
        lower_sum = 0.0
        for j in np.flatnonzero(cluster.support[i]):
            lower = 0.0
            if np.isfinite(deadlines[i]) and W[i, j] > 0.0:
                lower = W[i, j] / deadlines[i]
                if lower > caps[i, j] * (1 + 1e-12) + ABS_TOL:
                    return None
                lower = min(lower, float(caps[i, j]))
            lower_sum += lower
            edges.append(BoundedEdge(job_key(i), site_key(int(j)), lower, float(caps[i, j])))
        if lower_sum > levels[i] * (1 + 1e-9) + ABS_TOL:
            return None
    for j in range(cluster.n_sites):
        edges.append(BoundedEdge(site_key(j), SNK, 0.0, float(cluster.capacities[j])))
    return edges


def reference_solve_targets(
    cluster: Cluster, levels: np.ndarray, deadlines: np.ndarray
) -> np.ndarray | None:
    """Drop-in for ``repro.core.completion._solve_targets``."""
    edges = _edges_for_targets(cluster, levels, deadlines)
    if edges is None:
        return None
    flows = feasible_flow_with_lower_bounds(edges, SRC, SNK)
    if flows is None:
        return None
    matrix = np.zeros((cluster.n_jobs, cluster.n_sites))
    for i in range(cluster.n_jobs):
        for j in np.flatnonzero(cluster.support[i]):
            matrix[i, j] = flows.get((job_key(i), site_key(int(j))), 0.0)
    return scrub_matrix(cluster, matrix)
