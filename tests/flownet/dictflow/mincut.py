"""Minimum-cut extraction helpers.

After a max-flow, the nodes reachable from the source in the residual graph
form the source side of a minimum cut (max-flow/min-cut duality).
"""

from __future__ import annotations

from typing import Hashable

from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import FlowGraph


def min_cut_partition(graph: FlowGraph, source: Hashable, sink: Hashable) -> tuple[frozenset, frozenset]:
    """Run max-flow and return the min-cut partition as node *keys*.

    Returns ``(source_side, sink_side)``.  The graph is left with the
    optimal flow installed.
    """
    result = Dinic(graph).max_flow(source, sink)
    src_keys = frozenset(graph.key_of(i) for i in result.source_side)
    all_keys = frozenset(graph.key_of(i) for i in range(graph.n_nodes))
    return src_keys, all_keys - src_keys


def cut_capacity(graph: FlowGraph, source_side: frozenset) -> float:
    """Capacity of the cut induced by ``source_side`` (node keys).

    Provided for verification in tests: for a min cut this equals the
    max-flow value.
    """
    side_ids = {graph.node(k) for k in source_side}
    total = 0.0
    for u in side_ids:
        e = graph.head[u]
        while e != -1:
            # original forward edges only (even indices)
            if e % 2 == 0 and graph.to[e] not in side_ids:
                total += graph._orig_cap[e]
            e = graph.nxt[e]
    return total
