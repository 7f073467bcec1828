"""Property tests: ArrayFlowGraph agrees with the pointer-based Dinic.

The array kernel is only allowed to be *faster* — every max-flow value,
every min-cut side, warm or cold, must match what the reference stack's
``FlowGraph`` + ``Dinic`` (tests/flownet/dictflow) compute on the same
edges.  Hypothesis drives random
digraphs and random bipartite job-site instances through both engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flownet.arrayflow import ArrayFlowGraph
from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph


def _reference(n_nodes, tails, heads, caps, s, t):
    """Max-flow value + source-side cut via the pointer engine."""
    g = FlowGraph()
    for u in range(n_nodes):
        g.node(u)
    for u, v, c in zip(tails, heads, caps):
        g.add_edge(u, v, c)
    result = Dinic(g).max_flow(s, t)
    return result.value, frozenset(result.source_side)


def _array_solve(n_nodes, tails, heads, caps, s, t, limit=None):
    ag = ArrayFlowGraph(n_nodes, tails, heads, caps)
    value = ag.max_flow(s, t, limit=limit)
    side = frozenset(np.flatnonzero(ag.reachable_from(s)).tolist())
    return value, side, ag


@st.composite
def digraphs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=7))
    n_edges = draw(st.integers(min_value=0, max_value=14))
    tails, heads, caps = [], [], []
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        if u == v:
            continue
        c = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        tails.append(u), heads.append(v), caps.append(c)
    return n_nodes, tails, heads, caps


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_value_and_cut_match_dinic(graph):
    n_nodes, tails, heads, caps = graph
    s, t = 0, n_nodes - 1
    ref_value, ref_side = _reference(n_nodes, tails, heads, caps, s, t)
    value, side, _ = _array_solve(n_nodes, tails, heads, caps, s, t)
    assert value == pytest.approx(ref_value, abs=1e-9)
    assert side == ref_side


@st.composite
def bipartite_instances(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    n_sites = draw(st.integers(min_value=1, max_value=4))
    site_caps = [draw(st.floats(min_value=0.1, max_value=8.0)) for _ in range(n_sites)]
    dcaps = [
        [draw(st.floats(min_value=0.0, max_value=5.0)) for _ in range(n_sites)]
        for _ in range(n_jobs)
    ]
    targets = [draw(st.floats(min_value=0.0, max_value=12.0)) for _ in range(n_jobs)]
    return site_caps, dcaps, targets


def _bipartite_edges(site_caps, dcaps, targets):
    n_jobs, n_sites = len(dcaps), len(site_caps)
    src, snk = 0, n_jobs + n_sites + 1
    tails, heads, caps = [], [], []
    for i in range(n_jobs):
        tails.append(src), heads.append(1 + i), caps.append(targets[i])
    for i in range(n_jobs):
        for j in range(n_sites):
            if dcaps[i][j] > 0.0:
                tails.append(1 + i), heads.append(1 + n_jobs + j), caps.append(dcaps[i][j])
    for j in range(n_sites):
        tails.append(1 + n_jobs + j), heads.append(snk), caps.append(site_caps[j])
    return snk + 1, tails, heads, caps, src, snk


@settings(max_examples=60, deadline=None)
@given(bipartite_instances())
def test_bipartite_value_and_cut_match_dinic(instance):
    """The exact graph shape the parametric oracle builds."""
    site_caps, dcaps, targets = instance
    n_nodes, tails, heads, caps, s, t = _bipartite_edges(site_caps, dcaps, targets)
    ref_value, ref_side = _reference(n_nodes, tails, heads, caps, s, t)
    value, side, _ = _array_solve(n_nodes, tails, heads, caps, s, t)
    assert value == pytest.approx(ref_value, abs=1e-9)
    assert side == ref_side


@settings(max_examples=40, deadline=None)
@given(bipartite_instances(), st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=5))
def test_warm_capacity_increases_match_cold(instance, deltas):
    """A warm increase_capacity sequence ends at the cold-solve optimum."""
    site_caps, dcaps, targets = instance
    n_nodes, tails, heads, caps, s, t = _bipartite_edges(site_caps, dcaps, targets)
    n_jobs = len(dcaps)
    ag = ArrayFlowGraph(n_nodes, tails, heads, caps)
    total = ag.max_flow(s, t)
    final = list(caps)
    for d in deltas:
        for i in range(n_jobs):
            ag.increase_capacity(2 * i, d)
            final[i] += d
        total += ag.max_flow(s, t)
    cold_value, cold_side = _reference(n_nodes, tails, heads, final, s, t)
    assert total == pytest.approx(cold_value, abs=1e-8)
    warm_side = frozenset(np.flatnonzero(ag.reachable_from(s)).tolist())
    assert warm_side == cold_side


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_limit_stop_is_value_consistent(graph):
    """Passing the true upper bound as ``limit`` must not change the value."""
    n_nodes, tails, heads, caps = graph
    s, t = 0, n_nodes - 1
    free_value, _, _ = _array_solve(n_nodes, tails, heads, caps, s, t)
    bound = sum(c for u, c in zip(tails, caps) if u == s)
    limited_value, _, _ = _array_solve(n_nodes, tails, heads, caps, s, t, limit=bound)
    assert limited_value == pytest.approx(free_value, abs=1e-9)


# ----------------------------------------------------------------------
# Degenerate shapes (the cases random generation rarely pins exactly)
# ----------------------------------------------------------------------
def test_empty_graph():
    ag = ArrayFlowGraph(2, [], [], [])
    assert ag.max_flow(0, 1) == 0.0
    assert ag.reachable_from(0).tolist() == [True, False]


def test_single_edge():
    ag = ArrayFlowGraph(2, [0], [1], [3.5])
    assert ag.max_flow(0, 1) == pytest.approx(3.5)
    assert ag.flows(np.array([0]))[0] == pytest.approx(3.5)


def test_zero_capacity_edge_blocks_flow():
    ag = ArrayFlowGraph(3, [0, 1], [1, 2], [5.0, 0.0])
    assert ag.max_flow(0, 2) == 0.0
    # the zero arc keeps the sink out of the source side
    assert ag.reachable_from(0).tolist() == [True, True, False]


def test_disconnected_sink():
    ag = ArrayFlowGraph(4, [0, 2], [1, 3], [1.0, 1.0])
    assert ag.max_flow(0, 3) == 0.0


def test_reset_flow_restores_capacities():
    ag = ArrayFlowGraph(3, [0, 1], [1, 2], [2.0, 1.0])
    assert ag.max_flow(0, 2) == pytest.approx(1.0)
    ag.reset_flow()
    assert ag.max_flow(0, 2) == pytest.approx(1.0)


def test_flows_vectorized_matches_edge_flow():
    ag = ArrayFlowGraph(3, [0, 0, 1], [1, 2, 2], [2.0, 1.0, 3.0])
    ag.max_flow(0, 2)
    eids = np.array([0, 2, 4])
    np.testing.assert_allclose(ag.flows(eids), [2.0, 1.0, 2.0])


def test_negative_capacity_rejected():
    with pytest.raises(Exception):
        ArrayFlowGraph(2, [0], [1], [-1.0])
    ag = ArrayFlowGraph(2, [0], [1], [1.0])
    with pytest.raises(Exception):
        ag.increase_capacity(0, -0.5)
