"""Dinic's maximum-flow algorithm on :class:`~tests.flownet.dictflow.graph.FlowGraph`.

Iterative BFS level graph + iterative DFS blocking flow (no recursion, so
instances with thousands of jobs do not hit Python's stack limit).  Float
capacities are handled with the library tolerance: an edge participates in a
phase only when its residual exceeds ``ABS_TOL``, which guarantees each
augmentation pushes a meaningful amount and the phase count stays at the
classic ``O(V)`` bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro._util import ABS_TOL
from tests.flownet.dictflow.graph import INF, FlowGraph


@dataclass(slots=True)
class MaxFlowResult:
    """Outcome of a max-flow computation."""

    value: float
    #: node ids reachable from the source in the final residual graph
    #: (the source side of a minimum cut).
    source_side: frozenset[int]


class Dinic:
    """Max-flow solver bound to one graph; reusable across capacity updates."""

    def __init__(self, graph: FlowGraph):
        self.graph = graph

    # ------------------------------------------------------------------
    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        g = self.graph
        level = [-1] * g.n_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            e = g.head[u]
            while e != -1:
                v = g.to[e]
                if level[v] < 0 and g.cap[e] > ABS_TOL:
                    level[v] = level[u] + 1
                    queue.append(v)
                e = g.nxt[e]
        return level if level[t] >= 0 else None

    def _blocking_flow(self, s: int, t: int, level: list[int], it: list[int]) -> float:
        """Push a blocking flow along the level graph; returns total pushed."""
        g = self.graph
        total = 0.0
        # Iterative DFS: stack of (node, edge-used-to-enter) plus path edges.
        path: list[int] = []  # edge indices along the current path
        u = s
        while True:
            if u == t:
                # push the bottleneck along `path`
                bottleneck = min(g.cap[e] for e in path)
                for e in path:
                    g.cap[e] -= bottleneck
                    g.cap[e ^ 1] += bottleneck
                total += bottleneck
                # retreat to the first saturated edge
                for k, e in enumerate(path):
                    if g.cap[e] <= ABS_TOL:
                        del path[k:]
                        break
                u = g.to[path[-1]] if path else s
                continue
            advanced = False
            e = it[u]
            while e != -1:
                v = g.to[e]
                if g.cap[e] > ABS_TOL and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                e = g.nxt[e]
                it[u] = e
            if advanced:
                continue
            # dead end: mark node unusable this phase and retreat
            level[u] = -1
            if not path:
                break
            last = path.pop()
            u = g.to[last ^ 1]
        return total

    # ------------------------------------------------------------------
    def max_flow(self, source: Hashable, sink: Hashable) -> MaxFlowResult:
        """Compute the maximum ``source -> sink`` flow on the current residual graph.

        The graph's residual capacities are left at the optimum, so callers
        can inspect flows via :meth:`FlowGraph.edge_flow` or continue with
        residual reachability queries.
        """
        g = self.graph
        s, t = g.node(source), g.node(sink)
        if s == t:
            return MaxFlowResult(INF, frozenset())
        value = 0.0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            it = list(g.head)
            pushed = self._blocking_flow(s, t, level, it)
            if pushed <= ABS_TOL:
                break
            value += pushed
        return MaxFlowResult(value, self.reachable_from(s))

    def reachable_from(self, node_id: int) -> frozenset[int]:
        """Nodes reachable from ``node_id`` via residual edges above tolerance."""
        g = self.graph
        seen = [False] * g.n_nodes
        seen[node_id] = True
        queue = deque([node_id])
        while queue:
            u = queue.popleft()
            e = g.head[u]
            while e != -1:
                v = g.to[e]
                if not seen[v] and g.cap[e] > ABS_TOL:
                    seen[v] = True
                    queue.append(v)
                e = g.nxt[e]
        return frozenset(i for i, f in enumerate(seen) if f)

    def residual_path_exists(self, source: Hashable, sink: Hashable) -> bool:
        """Whether an augmenting path exists in the current residual graph."""
        g = self.graph
        if not (g.has_node(source) and g.has_node(sink)):
            return False
        return g.node(sink) in self.reachable_from(g.node(source))
