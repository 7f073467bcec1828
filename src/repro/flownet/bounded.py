"""Feasible flow with per-edge lower bounds (bounded circulation).

The completion-time add-on needs flows where every job *must* send at least
``w_ij / T`` along each support edge (so no site of the job finishes later
than the deadline ``T``) while aggregates stay fixed.  That is the classic
"circulation with lower bounds" problem, reduced to one max-flow on an
:class:`~repro.flownet.arrayflow.ArrayFlowGraph`:

* every edge ``(u, v)`` with bounds ``[l, c]`` becomes ``(u, v)`` with
  capacity ``c - l``;
* a super-source supplies ``l`` into ``v`` and a super-sink drains ``l``
  from ``u`` (netted per node);
* an ``inf`` edge ``sink -> source`` closes the flow into a circulation;
* a feasible flow exists iff the super max-flow saturates all supply.

When it does not, the nodes the super-source still reaches form a set
``X`` that violates Hoffman's condition: the upper bounds of the edges
leaving ``X`` sum to less than the lower bounds of the edges entering it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import feq, require
from repro.flownet.arrayflow import ArrayFlowGraph

__all__ = ["bounded_flow"]


def bounded_flow(
    n_nodes: int,
    tails: Sequence[int],
    heads: Sequence[int],
    lower: Sequence[float],
    upper: Sequence[float],
    source: int,
    sink: int,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(flows, None)`` for a ``source -> sink`` flow within ``[lower, upper]``,
    else ``(None, cut)``.

    Nodes are ``0..n_nodes-1``; ``upper`` may be ``inf``.  ``cut`` is a
    boolean node mask whose entering lower bounds exceed its leaving upper
    bounds (the ``sink -> source`` closing edge counts as ``[0, inf]``).
    The saturation check is widened by the edge count, since the supply is
    a sum of that many terms.
    """
    tails_a = np.asarray(tails, dtype=np.int64)
    heads_a = np.asarray(heads, dtype=np.int64)
    lower_a = np.asarray(lower, dtype=np.float64)
    upper_a = np.asarray(upper, dtype=np.float64)
    require(tails_a.shape == heads_a.shape == lower_a.shape == upper_a.shape, "edge arrays must align")
    require(bool((lower_a >= 0.0).all()), "lower bounds must be non-negative")
    require(bool((upper_a >= lower_a).all()), "upper bounds must not be below lower bounds")
    n_edges = tails_a.size

    # Net lower-bound supply per node; the closing edge has no lower bound.
    excess = np.bincount(heads_a, weights=lower_a, minlength=n_nodes) - np.bincount(
        tails_a, weights=lower_a, minlength=n_nodes
    )
    fed = np.flatnonzero(excess > 0.0)
    drained = np.flatnonzero(excess < 0.0)
    super_s, super_t = n_nodes, n_nodes + 1
    graph = ArrayFlowGraph(
        n_nodes + 2,
        np.concatenate([tails_a, [sink], np.full(fed.size, super_s), drained]),
        np.concatenate([heads_a, [source], fed, np.full(drained.size, super_t)]),
        np.concatenate([upper_a - lower_a, [np.inf], excess[fed], -excess[drained]]),
    )
    supply = float(excess[fed].sum())
    if not feq(graph.max_flow(super_s, super_t, limit=supply), supply, scale=max(1.0, float(n_edges))):
        return None, graph.reachable_from(super_s)[:n_nodes]
    return lower_a + graph.flows(np.arange(n_edges) * 2), None
