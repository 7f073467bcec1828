"""Dinic max-flow: hand-checked cases, a networkx oracle, and hypothesis."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import INF, FlowGraph


def solve(edges, s, t):
    g = FlowGraph()
    g.node(s)
    for u, v, c in edges:
        g.add_edge(u, v, c)
    return Dinic(g).max_flow(s, t), g


class TestHandCases:
    def test_single_edge(self):
        result, _ = solve([("s", "t", 3.0)], "s", "t")
        assert result.value == pytest.approx(3.0)

    def test_series_bottleneck(self):
        result, _ = solve([("s", "a", 3.0), ("a", "t", 1.5)], "s", "t")
        assert result.value == pytest.approx(1.5)

    def test_parallel_paths(self):
        result, _ = solve([("s", "a", 2.0), ("a", "t", 2.0), ("s", "b", 1.0), ("b", "t", 1.0)], "s", "t")
        assert result.value == pytest.approx(3.0)

    def test_classic_cross_graph(self):
        # The textbook example where augmenting must use the cross edge.
        edges = [
            ("s", "a", 10.0),
            ("s", "b", 10.0),
            ("a", "b", 1.0),
            ("a", "t", 10.0),
            ("b", "t", 10.0),
        ]
        result, _ = solve(edges, "s", "t")
        assert result.value == pytest.approx(20.0)

    def test_disconnected(self):
        g = FlowGraph()
        g.node("s")
        g.node("t")
        result = Dinic(g).max_flow("s", "t")
        assert result.value == 0.0

    def test_no_path(self):
        result, _ = solve([("a", "t", 5.0)], "s", "t")
        assert result.value == 0.0

    def test_infinite_capacity_path(self):
        result, _ = solve([("s", "a", INF), ("a", "t", 4.0)], "s", "t")
        assert result.value == pytest.approx(4.0)

    def test_flow_conservation(self):
        edges = [
            ("s", "a", 5.0),
            ("s", "b", 5.0),
            ("a", "c", 3.0),
            ("b", "c", 3.0),
            ("c", "t", 4.0),
            ("a", "t", 1.0),
        ]
        result, g = solve(edges, "s", "t")
        assert result.value == pytest.approx(5.0)
        # conservation at internal nodes: inflow == outflow
        for node in ("a", "b", "c"):
            nid = g.node(node)
            inflow = sum(
                g.edge_flow(e)
                for e in range(0, len(g.to), 2)
                if g.to[e] == nid
            )
            outflow = sum(
                g.edge_flow(e)
                for e in range(0, len(g.to), 2)
                if g.to[e ^ 1] == nid
            )
            assert inflow == pytest.approx(outflow, abs=1e-9)

    def test_source_side_is_min_cut(self):
        result, g = solve([("s", "a", 2.0), ("a", "t", 1.0)], "s", "t")
        keys = {g.key_of(i) for i in result.source_side}
        assert keys == {"s", "a"}

    def test_fractional_capacities(self):
        result, _ = solve([("s", "a", 0.3), ("a", "t", 0.7)], "s", "t")
        assert result.value == pytest.approx(0.3)

    def test_incremental_resolve(self):
        g = FlowGraph()
        e = g.add_edge("s", "a", 1.0)
        g.add_edge("a", "t", 10.0)
        d = Dinic(g)
        first = d.max_flow("s", "t")
        assert first.value == pytest.approx(1.0)
        g.increase_capacity(e, 2.0)
        second = d.max_flow("s", "t")
        # incremental solve returns only the *additional* flow
        assert second.value == pytest.approx(2.0)
        assert g.edge_flow(e) == pytest.approx(3.0)


class TestResidualQueries:
    def test_residual_path_exists(self):
        _, g = solve([("s", "a", 2.0), ("a", "t", 1.0)], "s", "t")
        d = Dinic(g)
        assert not d.residual_path_exists("s", "t")
        assert d.residual_path_exists("s", "a")

    def test_residual_path_missing_nodes(self):
        g = FlowGraph()
        assert not Dinic(g).residual_path_exists("s", "t")


def _random_graph_edges(rng: np.random.Generator, n_nodes: int, n_edges: int):
    edges = []
    for _ in range(n_edges):
        u, v = rng.integers(0, n_nodes, 2)
        if u == v:
            continue
        edges.append((int(u), int(v), float(rng.uniform(0.1, 10.0))))
    return edges


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_networkx_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        edges = _random_graph_edges(rng, n, int(rng.integers(n, 4 * n)))
        result, _ = solve(edges, 0, n - 1)
        G = nx.DiGraph()
        G.add_nodes_from(range(n))
        for u, v, c in edges:
            if G.has_edge(u, v):
                G[u][v]["capacity"] += c
            else:
                G.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(G, 0, n - 1)
        assert result.value == pytest.approx(expected, rel=1e-9, abs=1e-9)


@st.composite
def bipartite_instances(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    # Supplies are either exactly zero or bounded away from the 1e-9
    # comparison tolerance, so tiny denormal-ish draws can't make the
    # oracle comparison a pure tolerance coin-flip.
    supply = [draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0))) for _ in range(n)]
    caps = [draw(st.floats(0.1, 5.0)) for _ in range(m)]
    mask = [[draw(st.booleans()) for _ in range(m)] for _ in range(n)]
    return supply, caps, mask


class TestHypothesis:
    @given(bipartite_instances())
    @settings(max_examples=60, deadline=None)
    def test_bipartite_flow_bounds(self, inst):
        """Max-flow never exceeds either side's total, matches networkx."""
        supply, caps, mask = inst
        g = FlowGraph()
        g.node("s")
        G = nx.DiGraph()
        for i, sup in enumerate(supply):
            g.add_edge("s", ("l", i), sup)
            G.add_edge("s", ("l", i), capacity=sup)
        for j, cap in enumerate(caps):
            g.add_edge(("r", j), "t", cap)
            G.add_edge(("r", j), "t", capacity=cap)
        for i in range(len(supply)):
            for j in range(len(caps)):
                if mask[i][j]:
                    g.add_edge(("l", i), ("r", j), float("inf"))
                    G.add_edge(("l", i), ("r", j), capacity=float("inf"))
        value = Dinic(g).max_flow("s", "t").value
        assert value <= sum(supply) + 1e-9
        assert value <= sum(caps) + 1e-9
        expected = nx.maximum_flow_value(G, "s", "t") if G.has_node("s") and G.has_node("t") else 0.0
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)
