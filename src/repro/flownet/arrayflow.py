"""Array-native residual flow graph: the library's one max-flow kernel.

Paired-edge layout (edge ``e`` and its residual twin at ``e ^ 1``) stored
in numpy ``int32`` / ``float64`` arrays with a CSR adjacency, so the BFS
level construction of Dinic's algorithm — the phase that touches every
edge — runs vectorized.
The blocking-flow DFS is inherently sequential; it runs over plain Python
lists (scalar indexing into numpy arrays is an order of magnitude slower
than list indexing) and syncs the capacity array back once per phase.

The structure is static after construction: nodes are dense integer ids
``0..n_nodes-1`` and the edge set is fixed.  Only capacities change, which
is exactly the shape of the parametric λ-probe workload
(:mod:`repro.flownet.parametric`): the k-th added edge has forward id
``2 * k`` and callers update ``cap`` / ``orig`` between solves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import ABS_TOL, require
from repro.obs.tracing import TRACER, span

__all__ = ["ArrayFlowGraph"]

# Below this many residual edges the scalar (list-based) BFS/DFS beats the
# vectorized path: per-frontier numpy dispatch dominates on small graphs.
_VECTOR_THRESHOLD = 4096


class ArrayFlowGraph:
    """A fixed-topology residual graph with vectorized max-flow.

    Parameters
    ----------
    n_nodes:
        Number of nodes; ids are ``0..n_nodes-1``.
    tails / heads / capacities:
        The directed edges.  Edge ``k`` gets forward id ``2 * k``; its
        residual twin (capacity 0) sits at ``2 * k + 1``.
    """

    __slots__ = (
        "n_nodes",
        "to",
        "cap",
        "orig",
        "indptr",
        "adj",
        "_to_list",
        "_adj_list",
        "_indptr_list",
    )

    def __init__(
        self,
        n_nodes: int,
        tails: Sequence[int],
        heads: Sequence[int],
        capacities: Sequence[float],
    ):
        tails_a = np.asarray(tails, dtype=np.int32)
        heads_a = np.asarray(heads, dtype=np.int32)
        caps_a = np.asarray(capacities, dtype=np.float64)
        require(tails_a.shape == heads_a.shape == caps_a.shape, "edge arrays must align")
        require(bool((caps_a >= 0.0).all()) if caps_a.size else True, "edge capacities must be non-negative")
        n_edges = tails_a.size
        self.n_nodes = int(n_nodes)

        to = np.empty(2 * n_edges, dtype=np.int32)
        to[0::2] = heads_a
        to[1::2] = tails_a
        cap = np.zeros(2 * n_edges, dtype=np.float64)
        cap[0::2] = caps_a
        self.to = to
        self.cap = cap
        self.orig = cap.copy()

        # CSR adjacency over the paired-edge array: adj[indptr[u]:indptr[u+1]]
        # lists every edge id (forward or twin) whose tail is u, in
        # *descending* insertion order — the order a head/next linked list
        # yields.  The order matters for speed, not correctness: bipartite
        # builders append the site->sink arc after all job->site arcs, so a
        # DFS that scans newest-first tries the sink arc before wading
        # through residual twins, and phases find augmenting paths sooner.
        tail_of = np.empty(2 * n_edges, dtype=np.int32)
        tail_of[0::2] = tails_a
        tail_of[1::2] = heads_a
        keys = tail_of[::-1]
        if self.n_nodes <= 1 << 16:
            # the same stable order; numpy radix-sorts 16-bit keys (~3x faster)
            keys = keys.astype(np.uint16)
        rev = np.argsort(keys, kind="stable")
        self.adj = (tail_of.size - 1 - rev).astype(np.int32)
        counts = np.bincount(tail_of, minlength=self.n_nodes)
        self.indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])

        # list mirrors for the sequential blocking-flow inner loop
        self._to_list = to.tolist()
        self._adj_list = self.adj.tolist()
        self._indptr_list = self.indptr.tolist()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def reset_flow(self) -> None:
        """Restore all residual capacities to the original capacities."""
        self.cap[:] = self.orig

    def set_capacity(self, e: int, capacity: float) -> None:
        """Re-set forward edge ``e``'s capacity, discarding its flow."""
        require(capacity >= 0.0, "capacity must be non-negative")
        self.cap[e] = capacity
        self.orig[e] = capacity
        self.cap[e ^ 1] = 0.0
        self.orig[e ^ 1] = 0.0

    def increase_capacity(self, e: int, delta: float) -> None:
        """Raise forward edge ``e``'s capacity by ``delta``, keeping its flow."""
        require(delta >= 0.0, "capacity increase must be non-negative")
        self.cap[e] += delta
        self.orig[e] += delta

    def edge_flow(self, e: int) -> float:
        """Current flow on forward edge ``e`` (clamped non-negative)."""
        return float(max(self.cap[e ^ 1] - self.orig[e ^ 1], 0.0))

    def flows(self, eids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`edge_flow` over an array of forward edge ids."""
        tw = np.bitwise_xor(np.asarray(eids, dtype=np.int64), 1)
        return np.maximum(self.cap[tw] - self.orig[tw], 0.0)

    # ------------------------------------------------------------------
    # Max-flow
    # ------------------------------------------------------------------
    def _frontier_edges(self, frontier: np.ndarray) -> np.ndarray:
        """Edge ids leaving every node of ``frontier``, gathered from CSR."""
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int32)
        cum = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        return self.adj[np.repeat(starts, counts) + offsets]

    def _bfs_levels(self, s: int, t: int) -> np.ndarray | None:
        """Vectorized level construction; ``None`` when ``t`` is unreachable."""
        level = np.full(self.n_nodes, -1, dtype=np.int64)
        level[s] = 0
        frontier = np.array([s], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            eids = self._frontier_edges(frontier)
            if eids.size == 0:
                break
            heads = self.to[eids]
            usable = (self.cap[eids] > ABS_TOL) & (level[heads] < 0)
            nxt = np.unique(heads[usable])
            if nxt.size == 0:
                break
            level[nxt] = depth
            if level[t] >= 0:  # t's layer: stop there (see _bfs_levels_py)
                level[nxt] = -1
                level[t] = depth
                return level
            frontier = nxt.astype(np.int64)
        return None

    def _bfs_levels_py(self, s: int, t: int, cap: list[float]) -> list[int] | None:
        """List-based level construction for small graphs.

        Per-frontier numpy dispatch costs more than it saves below a few
        thousand edges — exactly the size of the per-probe bipartite graphs
        — so the scalar loop wins there (see _VECTOR_THRESHOLD).

        The search stops at the layer that labels ``t``, and unlabels that
        layer's other nodes: a node at or beyond ``t``'s depth has no arc to
        a deeper node that could still reach ``t``, so the blocking flow's
        DFS would only dead-end there.  It therefore pushes the same paths
        in the same order, and leaves the same residual capacities, as on
        the full level graph; it just no longer labels what it would
        discard.
        """
        to = self._to_list
        adj = self._adj_list
        indptr = self._indptr_list
        level = [-1] * self.n_nodes
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
            if level[t] >= 0:
                for v in nxt:
                    level[v] = -1
                level[t] = depth
                return level
            frontier = nxt
        return None

    def _blocking_flow(self, s: int, t: int, level: list[int], cap: list[float]) -> float:
        """Sequential DFS blocking flow over list mirrors (mutates ``cap``)."""
        to = self._to_list
        adj = self._adj_list
        indptr = self._indptr_list
        it = indptr[:-1].copy()  # per-node current-arc CSR position
        path: list[int] = []  # edge ids along the current path
        total = 0.0
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                total += bottleneck
                # retreat to the first saturated edge
                for k, e in enumerate(path):
                    if cap[e] <= ABS_TOL:
                        del path[k:]
                        break
                u = to[path[-1]] if path else s
                continue
            pos = it[u]
            limit = indptr[u + 1]
            lvl_next = level[u] + 1
            while pos < limit:
                e = adj[pos]
                v = to[e]
                if cap[e] > ABS_TOL and level[v] == lvl_next:
                    break
                pos += 1
            it[u] = pos
            if pos < limit:  # advanced along edge e
                path.append(e)
                u = v
                continue
            # dead end: mark node unusable this phase and retreat
            level[u] = -1
            if not path:
                break
            last = path.pop()
            u = to[last ^ 1]
        return total

    def max_flow(self, s: int, t: int, limit: float | None = None) -> float:
        """Maximum additional ``s -> t`` flow on the current residual graph.

        Continues from whatever flow the capacities already carry (warm
        start); residual capacities are left at the optimum so callers can
        read flows and run reachability queries.

        ``limit`` is an upper bound the caller *knows* the answer cannot
        exceed (e.g. the summed residual of the source arcs).  Reaching it
        proves optimality without the final can't-reach-``t`` BFS — the
        main saving on feasible λ-probes, where the source always
        saturates.
        """
        if not TRACER.enabled:
            return self._max_flow_impl(s, t, limit)
        with span("flow.max_flow", edges=int(self.to.size) // 2) as sp:
            value = self._max_flow_impl(s, t, limit)
            sp.args["flow"] = value
        return value

    def _max_flow_impl(self, s: int, t: int, limit: float | None) -> float:
        total = 0.0
        if limit is not None and limit <= ABS_TOL:
            return total
        small = self.to.size <= _VECTOR_THRESHOLD
        cap_list = self.cap.tolist()
        try:
            while True:
                if small:
                    level = self._bfs_levels_py(s, t, cap_list)
                else:
                    self.cap[:] = cap_list
                    lv = self._bfs_levels(s, t)
                    level = None if lv is None else lv.tolist()
                if level is None:
                    return total
                pushed = self._blocking_flow(s, t, level, cap_list)
                if pushed <= ABS_TOL:
                    return total
                total += pushed
                if limit is not None and total >= limit - ABS_TOL:
                    return total
        finally:
            self.cap[:] = cap_list

    def reachable_from(self, s: int) -> np.ndarray:
        """Boolean mask of nodes reachable from ``s`` via residual edges.

        At max flow this is the source side of the *minimal* min cut, which
        is unique across all maximum flows — the invariant that makes the
        warm-started probes of :mod:`repro.flownet.parametric` return the
        same cuts as a cold solve.
        """
        if self.to.size <= _VECTOR_THRESHOLD:
            to = self._to_list
            adj = self._adj_list
            indptr = self._indptr_list
            cap = self.cap.tolist()
            seen = bytearray(self.n_nodes)
            seen[s] = 1
            stack = [s]
            while stack:
                u = stack.pop()
                for pos in range(indptr[u], indptr[u + 1]):
                    e = adj[pos]
                    v = to[e]
                    if not seen[v] and cap[e] > ABS_TOL:
                        seen[v] = 1
                        stack.append(v)
            return np.frombuffer(bytes(seen), dtype=np.uint8).astype(bool)
        seen = np.zeros(self.n_nodes, dtype=bool)
        seen[s] = True
        frontier = np.array([s], dtype=np.int64)
        while frontier.size:
            eids = self._frontier_edges(frontier)
            if eids.size == 0:
                break
            heads = self.to[eids]
            usable = (self.cap[eids] > ABS_TOL) & ~seen[heads]
            nxt = np.unique(heads[usable])
            if nxt.size == 0:
                break
            seen[nxt] = True
            frontier = nxt.astype(np.int64)
        return seen
