"""Stress/pathology tests for the flow engine."""

import numpy as np
import pytest

from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph


class TestDeepGraphs:
    def test_long_chain_no_recursion_limit(self):
        """A 5000-hop chain exercises the iterative DFS (recursive Dinic dies here)."""
        g = FlowGraph()
        n = 5000
        for k in range(n):
            g.add_edge(k, k + 1, 2.0)
        value = Dinic(g).max_flow(0, n).value
        assert value == pytest.approx(2.0)

    def test_wide_fanout(self):
        g = FlowGraph()
        width = 2000
        for k in range(width):
            g.add_edge("s", ("mid", k), 1.0)
            g.add_edge(("mid", k), "t", 0.5)
        value = Dinic(g).max_flow("s", "t").value
        assert value == pytest.approx(0.5 * width)

    def test_zero_capacity_edges_ignored(self):
        g = FlowGraph()
        g.add_edge("s", "a", 0.0)
        g.add_edge("a", "t", 5.0)
        g.add_edge("s", "b", 1.0)
        g.add_edge("b", "t", 1.0)
        assert Dinic(g).max_flow("s", "t").value == pytest.approx(1.0)

    def test_parallel_edges_sum(self):
        g = FlowGraph()
        for _ in range(5):
            g.add_edge("s", "t", 0.3)
        assert Dinic(g).max_flow("s", "t").value == pytest.approx(1.5)

    def test_cycle_does_not_trap(self):
        g = FlowGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "a", 1.0)  # cycle
        g.add_edge("b", "t", 1.0)
        assert Dinic(g).max_flow("s", "t").value == pytest.approx(1.0)

    def test_tiny_capacities_converge(self):
        """Capacities near the tolerance never cause an infinite phase loop."""
        g = FlowGraph()
        rng = np.random.default_rng(0)
        for k in range(50):
            g.add_edge("s", ("m", k), float(rng.uniform(1e-8, 1e-6)))
            g.add_edge(("m", k), "t", 1.0)
        value = Dinic(g).max_flow("s", "t").value
        assert 0.0 <= value <= 50e-6

    def test_repeated_solves_idempotent(self):
        g = FlowGraph()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 1.5)
        d = Dinic(g)
        first = d.max_flow("s", "t").value
        second = d.max_flow("s", "t").value  # residual is already optimal
        assert first == pytest.approx(1.5)
        assert second == pytest.approx(0.0, abs=1e-9)
