"""Unit tests for flows with per-edge lower bounds (``bounded_flow``)."""

import numpy as np
import pytest

from repro.flownet.bounded import bounded_flow
from tests.flownet.dictflow.lower_bounds import BoundedEdge, feasible_flow_with_lower_bounds

INF = float("inf")


def solve_or_cut(edges, source, sink):
    """``bounded_flow`` over ``(tail, head, lower, upper)`` tuples on named
    nodes: ``(flows, None)``, or ``(None, cut)`` with the cut as a set of names."""
    names = {source: 0, sink: 1}
    for tail, head, *_ in edges:
        names.setdefault(tail, len(names))
        names.setdefault(head, len(names))
    flows, cut = bounded_flow(
        len(names),
        [names[e[0]] for e in edges],
        [names[e[1]] for e in edges],
        [e[2] for e in edges],
        [e[3] for e in edges],
        0,
        1,
    )
    return flows, None if cut is None else {name for name, k in names.items() if cut[k]}


def solve(edges, source, sink):
    """The flows of :func:`solve_or_cut`, ``None`` when infeasible."""
    return solve_or_cut(edges, source, sink)[0]


class TestBoundedEdge:
    def test_valid(self):
        flows = solve([("s", "t", 1.0, 2.0)], "s", "t")
        assert 1.0 <= flows[0] <= 2.0

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            solve([("s", "t", -1.0, 2.0)], "s", "t")

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            solve([("s", "t", 3.0, 2.0)], "s", "t")

    def test_equal_bounds_allowed(self):
        assert solve([("s", "t", 2.0, 2.0)], "s", "t")[0] == pytest.approx(2.0)


def flows_valid(edges, flows):
    """Every edge's flow within its bounds."""
    for (_, _, lower, upper), f in zip(edges, flows):
        assert f >= lower - 1e-7
        assert f <= upper + 1e-7


class TestFeasibleFlow:
    def test_simple_feasible(self):
        edges = [("s", "a", 1.0, 3.0), ("a", "t", 1.0, 3.0)]
        flows = solve(edges, "s", "t")
        assert flows is not None
        flows_valid(edges, flows)
        assert flows[0] == pytest.approx(flows[1], abs=1e-9)

    def test_infeasible_bottleneck(self):
        # s->a must carry >= 2 but a->t can carry at most 1
        assert solve([("s", "a", 2.0, 3.0), ("a", "t", 0.0, 1.0)], "s", "t") is None

    def test_exact_pinned_edge(self):
        flows = solve([("s", "a", 2.0, 2.0), ("a", "t", 0.0, 5.0)], "s", "t")
        assert flows is not None
        assert flows[0] == pytest.approx(2.0)

    def test_flow_value_pinned(self):
        # a pinned entry edge fixes the total value
        flows = solve([("s0", "s", 3.0, 3.0), ("s", "a", 0.0, 5.0), ("a", "t", 0.0, 5.0)], "s0", "t")
        assert flows is not None
        assert flows[1] == pytest.approx(3.0)

    def test_flow_value_infeasible(self):
        edges = [("s0", "s", 3.0, 3.0), ("s", "a", 0.0, 5.0), ("a", "t", 0.0, 2.0)]
        assert solve(edges, "s0", "t") is None

    def test_diamond_with_lower_bounds(self):
        edges = [
            ("s", "a", 1.0, 4.0),
            ("s", "b", 1.0, 4.0),
            ("a", "t", 0.0, 2.0),
            ("b", "t", 0.0, 2.0),
        ]
        flows = solve(edges, "s", "t")
        assert flows is not None
        flows_valid(edges, flows)

    def test_parallel_edges_accumulate(self):
        edges = [("s", "a", 1.0, 1.0), ("s", "a", 1.0, 1.0), ("a", "t", 0.0, 5.0)]
        flows = solve(edges, "s", "t")
        assert flows is not None
        assert flows[0] + flows[1] == pytest.approx(2.0)
        assert flows[2] == pytest.approx(2.0)

    def test_infinite_upper(self):
        flows = solve([("s", "a", 1.0, INF), ("a", "t", 0.0, INF)], "s", "t")
        assert flows is not None
        assert flows[0] >= 1.0 - 1e-9

    def test_conservation_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            # random bipartite with safe lower bounds (<= a feasible proportional flow)
            n, m = 3, 3
            edges = [("s", ("l", i), 0.0, 10.0) for i in range(n)]
            for i in range(n):
                for j in range(m):
                    edges.append((("l", i), ("r", j), float(rng.uniform(0, 0.2)), 5.0))
            edges += [(("r", j), "t", 0.0, 10.0) for j in range(m)]
            flows = solve(edges, "s", "t")
            assert flows is not None
            flow = {(e[0], e[1]): f for e, f in zip(edges, flows)}
            # conservation at every internal node
            for i in range(n):
                inflow = flow[("s", ("l", i))]
                outflow = sum(flow[(("l", i), ("r", j))] for j in range(m))
                assert inflow == pytest.approx(outflow, abs=1e-6)
            for j in range(m):
                inflow = sum(flow[(("l", i), ("r", j))] for i in range(n))
                outflow = flow[(("r", j), "t")]
                assert inflow == pytest.approx(outflow, abs=1e-6)

    def test_verdicts_match_the_reference(self):
        """Random layered graphs with random bounds: feasible exactly when
        the dict-keyed reference finds a flow, and then within bounds with
        conservation at every internal node.  Otherwise the returned node
        set violates Hoffman's condition: the lower bounds entering it
        exceed the upper bounds leaving it (the closing ``t -> s`` edge
        counts as ``[0, inf]``)."""
        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(200):
            n_mid = int(rng.integers(1, 5))
            edges = []
            for k in range(n_mid):
                edges.append(("s", k, float(rng.uniform(0, 1.0)), float(rng.uniform(1.0, 3.0))))
                edges.append((k, "t", float(rng.uniform(0, 1.5)), float(rng.uniform(1.5, 3.0))))
            for _ in range(int(rng.integers(0, 4))):
                a, b = rng.integers(0, n_mid, 2)
                if a != b:
                    edges.append((int(a), int(b), 0.0, float(rng.uniform(0, 1.0))))
            flows, cut = solve_or_cut(edges, "s", "t")
            ref = feasible_flow_with_lower_bounds([BoundedEdge(*e) for e in edges], "s", "t")
            assert (flows is None) == (ref is None) == (cut is not None)
            verdicts.add(flows is None)
            if flows is None:
                closing = [("t", "s", 0.0, INF)]
                lower_in = sum(lo for tail, head, lo, _ in edges + closing if tail not in cut and head in cut)
                upper_out = sum(up for tail, head, _, up in edges + closing if tail in cut and head not in cut)
                assert upper_out < lower_in - 1e-9
                continue
            flows_valid(edges, flows)
            net = {}
            for (tail, head, *_), f in zip(edges, flows):
                net[tail] = net.get(tail, 0.0) - f
                net[head] = net.get(head, 0.0) + f
            assert all(abs(net[k]) <= 1e-7 for k in range(n_mid))
        assert verdicts == {True, False}  # both verdicts occurred
