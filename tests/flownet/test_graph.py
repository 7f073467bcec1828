"""Unit tests for the reference stack's FlowGraph (tests/flownet/dictflow)."""

import pytest

from tests.flownet.dictflow.graph import INF, FlowGraph


class TestNodes:
    def test_node_creation_and_lookup(self):
        g = FlowGraph()
        a = g.node("a")
        assert g.node("a") == a  # idempotent
        assert g.key_of(a) == "a"
        assert g.has_node("a")
        assert not g.has_node("b")

    def test_tuple_keys(self):
        g = FlowGraph()
        nid = g.node(("job", 3))
        assert g.key_of(nid) == ("job", 3)

    def test_n_nodes(self):
        g = FlowGraph()
        g.node("a")
        g.node("b")
        g.node("a")
        assert g.n_nodes == 2


class TestEdges:
    def test_add_edge_creates_twin(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        assert g.residual(e) == 5.0
        assert g.residual(e ^ 1) == 0.0
        assert g.n_edges == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowGraph().add_edge("a", "b", -1.0)

    def test_infinite_capacity(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", INF)
        assert g.residual(e) == INF

    def test_edge_flow_after_manual_push(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        g.cap[e] -= 2.0
        g.cap[e ^ 1] += 2.0
        assert g.edge_flow(e) == 2.0

    def test_edge_flow_zero_initially(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        assert g.edge_flow(e) == 0.0

    def test_out_edges_iterates_both_directions(self):
        g = FlowGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "c", 1.0)
        g.add_edge("d", "a", 1.0)
        edges = list(g.out_edges(g.node("a")))
        # 2 forward + 1 residual twin of d->a
        assert len(edges) == 3

    def test_reset_flow(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        g.cap[e] -= 2.0
        g.cap[e ^ 1] += 2.0
        g.reset_flow()
        assert g.residual(e) == 5.0
        assert g.edge_flow(e) == 0.0

    def test_set_capacity_wipes_flow(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        g.cap[e] -= 2.0
        g.cap[e ^ 1] += 2.0
        g.set_capacity(e, 3.0)
        assert g.residual(e) == 3.0
        assert g.edge_flow(e) == 0.0

    def test_increase_capacity_keeps_flow(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        g.cap[e] -= 5.0
        g.cap[e ^ 1] += 5.0
        g.increase_capacity(e, 2.0)
        assert g.edge_flow(e) == 5.0
        assert g.residual(e) == 2.0
        assert g.capacity_of(e) == 7.0

    def test_increase_capacity_rejects_negative(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 5.0)
        with pytest.raises(ValueError):
            g.increase_capacity(e, -1.0)

    def test_usable_respects_tolerance(self):
        g = FlowGraph()
        e = g.add_edge("a", "b", 1e-12)
        assert not g.usable(e)
