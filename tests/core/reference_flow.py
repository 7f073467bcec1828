"""The property checkers as they ran on the dict-keyed flow stack
(``tests/flownet/dictflow``): a fresh ``FeasibilityNetwork`` + ``Dinic`` per
question and parallel source edges for the headroom.  The shipped versions
run on ``ArrayFlowGraph``; these copies are their differential reference
(tests/core/test_flow_ports.py).  The completion-time circulation is checked
against the dict-keyed stack at kernel level
(tests/flownet/test_lower_bounds.py).  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL
from repro.core.allocation import Allocation
from repro.core.properties import PROPERTY_TOL
from tests.flownet.dictflow.bipartite import SNK, SRC, build_network, job_key
from tests.flownet.dictflow.dinic import Dinic


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
