"""Unit tests for min-cut extraction."""

import numpy as np
import pytest

from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph
from tests.flownet.dictflow.mincut import cut_capacity, min_cut_partition


def build(edges):
    g = FlowGraph()
    g.node("s")
    for u, v, c in edges:
        g.add_edge(u, v, c)
    return g


class TestMinCutPartition:
    def test_simple_bottleneck(self):
        g = build([("s", "a", 5.0), ("a", "t", 2.0)])
        src, snk = min_cut_partition(g, "s", "t")
        assert src == {"s", "a"}
        assert snk == {"t"}

    def test_cut_at_source(self):
        g = build([("s", "a", 1.0), ("a", "t", 5.0)])
        src, snk = min_cut_partition(g, "s", "t")
        assert src == {"s"}
        assert "a" in snk

    def test_partition_covers_all_nodes(self):
        g = build([("s", "a", 1.0), ("a", "b", 2.0), ("b", "t", 3.0), ("s", "b", 1.0)])
        src, snk = min_cut_partition(g, "s", "t")
        assert src | snk == {"s", "a", "b", "t"}
        assert not (src & snk)

    def test_cut_capacity_equals_flow(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 8
            edges = []
            for _ in range(20):
                u, v = rng.integers(0, n, 2)
                if u != v:
                    edges.append((int(u), int(v), float(rng.uniform(0.5, 4.0))))
            g = FlowGraph()
            g.node(0)
            g.node(n - 1)
            for u, v, c in edges:
                g.add_edge(u, v, c)
            value = Dinic(g).max_flow(0, n - 1).value
            g.reset_flow()
            src, _ = min_cut_partition(g, 0, n - 1)
            assert cut_capacity(g, src) == pytest.approx(value, rel=1e-9, abs=1e-9)
