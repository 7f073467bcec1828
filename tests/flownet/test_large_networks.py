"""The kernel on job-site networks of more than 4 096 residual edges.

The hypothesis suites (``test_arrayflow``, ``test_level_graph``) draw
graphs of a few dozen edges.  Here F8's 500 x 50 instance (seed 5) and one
fixed 1000 x 100 draw are solved cold, then warm after each raise of every
source arc, as a rising λ raises them.  After every solve the shipped
kernel must match the dict-keyed Dinic (``tests/flownet/dictflow``) cold on
the same capacities in flow value and minimal min cut, and
:class:`ReferenceFlowGraph` (the full level graph) in residual capacities,
byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flownet.arrayflow import ArrayFlowGraph
from repro.workload.generator import WorkloadSpec, generate_cluster
from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph
from tests.flownet.reference_levels import ReferenceFlowGraph

LAMBDAS = (0.5, 1.0, 1.5, 2.5, 4.0)


def _f8_500x50():
    rng = np.random.default_rng(5)
    for n, m in ((50, 10), (100, 20), (200, 20), (500, 50)):  # F8's draw order
        cluster = generate_cluster(WorkloadSpec(n_jobs=n, n_sites=m, theta=1.2, site_spread=min(4, m)), rng)
    return cluster


def _fixed_1000x100():
    spec = WorkloadSpec(n_jobs=1000, n_sites=100, theta=1.2, site_spread=4, weight_spread=1.0)
    return generate_cluster(spec, np.random.default_rng(11))


def _network(cluster):
    """``src -> job -> site -> snk``; job ``i``'s source arc is edge ``i``."""
    n, m = cluster.n_jobs, cluster.n_sites
    rows, cols = np.nonzero(cluster.support)
    tails = np.concatenate([np.zeros(n, dtype=np.int64), 1 + rows, 1 + n + np.arange(m)])
    heads = np.concatenate([1 + np.arange(n), 1 + n + cols, np.full(m, n + m + 1)])
    caps = np.concatenate([LAMBDAS[0] * cluster.weights, cluster.demand_caps[rows, cols], cluster.capacities])
    return n + m + 2, tails.tolist(), heads.tolist(), caps.tolist()


def _dict_solve(n_nodes, tails, heads, caps, s, t):
    g = FlowGraph()
    for u in range(n_nodes):
        g.node(u)
    for u, v, c in zip(tails, heads, caps):
        g.add_edge(u, v, c)
    result = Dinic(g).max_flow(s, t)
    return result.value, frozenset(result.source_side)


@pytest.mark.parametrize("build", [_f8_500x50, _fixed_1000x100], ids=["f8_500x50_seed5", "1000x100_seed11"])
def test_cold_and_warm_solves_match_both_references(build):
    cluster = build()
    n_nodes, tails, heads, caps = _network(cluster)
    assert 2 * len(tails) > 4096
    s, t = 0, n_nodes - 1
    shipped = ArrayFlowGraph(n_nodes, tails, heads, caps)
    reference = ReferenceFlowGraph(n_nodes, tails, heads, caps)
    total = 0.0
    for step, lam in enumerate(LAMBDAS):
        if step:
            raises = (lam - LAMBDAS[step - 1]) * cluster.weights
            for i, delta in enumerate(raises.tolist()):
                shipped.increase_capacity(2 * i, delta)
                reference.increase_capacity(2 * i, delta)
                caps[i] += delta
        pushed = shipped.max_flow(s, t)
        assert pushed == reference.max_flow(s, t)
        assert shipped.cap.tobytes() == reference.cap.tobytes()
        total += pushed
        dict_value, dict_side = _dict_solve(n_nodes, tails, heads, caps, s, t)
        assert total == pytest.approx(dict_value, abs=1e-9)
        assert frozenset(np.flatnonzero(shipped.reachable_from(s)).tolist()) == dict_side
