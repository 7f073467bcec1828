"""Feasible flow with per-edge lower bounds (bounded circulation).

The completion-time add-on needs flows where every job *must* send at least
``w_ij / T`` along each support edge (so no site of the job finishes later
than the makespan target ``T``) while aggregates stay fixed.  That is the
classic "circulation with lower bounds" problem, reduced to plain max-flow:

* every edge ``(u, v)`` with bounds ``[l, c]`` becomes ``(u, v)`` with
  capacity ``c - l``;
* a super-source ``S*`` supplies ``l`` into ``v`` and a super-sink ``T*``
  drains ``l`` from ``u`` (netted per node);
* an ``inf`` edge ``t -> s`` closes the original flow into a circulation;
* a feasible circulation exists iff the ``S* -> T*`` max-flow saturates all
  supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro._util import feq, require
from tests.flownet.dictflow.dinic import Dinic
from tests.flownet.dictflow.graph import INF, FlowGraph


@dataclass(frozen=True, slots=True)
class BoundedEdge:
    """A directed edge with a flow interval ``[lower, upper]``."""

    tail: Hashable
    head: Hashable
    lower: float
    upper: float

    def __post_init__(self) -> None:
        require(self.lower >= 0.0, f"lower bound must be non-negative, got {self.lower}")
        require(self.upper >= self.lower, f"edge {self.tail}->{self.head}: upper {self.upper} < lower {self.lower}")


def feasible_flow_with_lower_bounds(
    edges: list[BoundedEdge],
    source: Hashable,
    sink: Hashable,
) -> dict[tuple[Hashable, Hashable], float] | None:
    """Find an ``source -> sink`` flow respecting all edge bounds, or ``None``.

    Parallel edges are allowed; the returned mapping accumulates their flows
    under the same ``(tail, head)`` key.  The saturation check is widened by
    ``max(1, number of edges)``.

    Returns
    -------
    Mapping ``(tail, head) -> flow`` on the original edges, or ``None`` when
    no feasible flow exists.
    """
    g = FlowGraph()
    supply: dict[int, float] = {}

    def add_bounded(tail: Hashable, head: Hashable, lower: float, upper: float) -> int | None:
        u, v = g.node(tail), g.node(head)
        if lower > 0.0:
            supply[v] = supply.get(v, 0.0) + lower
            supply[u] = supply.get(u, 0.0) - lower
        if upper - lower > 0.0 or upper == INF:
            return g.add_edge(tail, head, upper - lower if upper != INF else INF)
        return None

    edge_ids: list[tuple[BoundedEdge, int | None]] = []
    for be in edges:
        edge_ids.append((be, add_bounded(be.tail, be.head, be.lower, be.upper)))
    add_bounded(sink, source, 0.0, INF)

    super_s, super_t = ("__super_source__",), ("__super_sink__",)
    total_supply = 0.0
    for nid, net in supply.items():
        if net > 0.0:
            g.add_edge(super_s, g.key_of(nid), net)
            total_supply += net
        elif net < 0.0:
            g.add_edge(g.key_of(nid), super_t, -net)

    result = Dinic(g).max_flow(super_s, super_t)
    if not feq(result.value, total_supply, scale=max(1.0, float(len(edges)))):
        return None

    flows: dict[tuple[Hashable, Hashable], float] = {}
    for be, eid in edge_ids:
        f = be.lower + (g.edge_flow(eid) if eid is not None else 0.0)
        key = (be.tail, be.head)
        flows[key] = flows.get(key, 0.0) + f
    return flows
