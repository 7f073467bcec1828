"""Reference level graph: Dinic's BFS as ``ArrayFlowGraph._bfs_levels_py``
ran before it stopped at the sink's depth — it labels every node the
residual graph reaches.  :class:`ReferenceFlowGraph` solves on it, always
through this scalar search, and is the differential oracle for the shipped
kernel's residual capacities (``test_level_graph``); nothing under
``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL
from repro.flownet.arrayflow import ArrayFlowGraph


def full_levels(graph: ArrayFlowGraph, s: int, t: int, cap: list[float]) -> list[int] | None:
    to = graph._to_list
    adj = graph._adj_list
    indptr = graph._indptr_list
    level = [-1] * graph.n_nodes
    level[s] = 0
    frontier = [s]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for pos in range(indptr[u], indptr[u + 1]):
                e = adj[pos]
                v = to[e]
                if level[v] < 0 and cap[e] > ABS_TOL:
                    level[v] = depth
                    nxt.append(v)
        frontier = nxt
    return level if level[t] >= 0 else None


class ReferenceFlowGraph(ArrayFlowGraph):
    """An ``ArrayFlowGraph`` whose phases run on the full level graph,
    whichever path the edge count selects."""

    __slots__ = ()

    def _bfs_levels_py(self, s: int, t: int, cap: list[float]) -> list[int] | None:
        return full_levels(self, s, t, cap)

    def _bfs_levels(self, s: int, t: int) -> np.ndarray | None:
        level = full_levels(self, s, t, self.cap.tolist())
        return None if level is None else np.array(level, dtype=np.int64)
