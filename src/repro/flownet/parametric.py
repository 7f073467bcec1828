"""Warm-started parametric feasibility: one residual graph, many λ-probes.

One AMF solve asks the same question dozens of times — "are the aggregate
targets ``A(λ)`` feasible?" — for a λ sequence that mostly rises
(progressive filling) and occasionally falls (bisection, guard-loop
retries).  :class:`ParametricFeasibility` answers that sequence on a single
:class:`~repro.flownet.arrayflow.ArrayFlowGraph` kept alive across probes:

* **λ rises** — only the source-arc capacities grow, so the existing flow
  stays feasible and max-flow *continues* from it
  (Gallo–Grigoriadis–Tarjan-style monotone reuse) instead of restarting
  from zero.
* **λ falls** — the excess flow above the new targets is cancelled locally
  (walk each shrunk source arc's flow back along its job→site edges),
  then the solve continues warm; no rebuild, no reset.

One screen runs before the flow network is touched: **dominance
early-accept** — targets elementwise below the last verified feasible
vector are feasible by downward closure of the region.  Every other probe,
and so every infeasible verdict, is a flow solve.  (The site cuts a solve
knows are enforced analytically by the AMF fill loop's own pool,
``repro.core.amf._SiteCuts``, before it probes.)

A preprocessing pass **folds degree-1 jobs** out of the network: a
job supported by a single site must route its whole target through it, so
it becomes a capacity subtraction on that site's sink arc instead of a
node.  Min cuts of the reduced graph map back exactly (the source side of
the minimal min cut is flow-invariant), so verdicts *and* cuts match the
cold path.

Verdicts are identical to a cold job-site network solve — same tolerance,
same minimal min cut — which the hypothesis suite checks probe-by-probe
against the dict-keyed reference stack (tests/flownet/test_parametric).
A fresh oracle is also the cold path: ``ParametricFeasibility(cluster)
.probe(targets).feasible`` is the one-shot feasibility check, and
``allocation_matrix`` on a fresh oracle is a cold realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import ABS_TOL, feq
from repro.flownet.arrayflow import ArrayFlowGraph
from repro.model.cluster import Cluster
from repro.obs.tracing import TRACER, span

__all__ = ["ParametricFeasibility", "ProbeOutcome", "ProbeStats"]


@dataclass(slots=True)
class ProbeStats:
    """How the oracle answered its probes (reuse observability)."""

    probes: int = 0
    early_accepts: int = 0  # answered by the last-feasible dominance check
    warm_solves: int = 0  # flow solves continuing from existing flow
    cold_solves: int = 0  # flow solves starting from zero flow
    rollbacks: int = 0  # probes that cancelled excess flow before solving
    folded_jobs: int = 0  # degree-1 jobs folded into site capacity


@dataclass(frozen=True, slots=True)
class ProbeOutcome:
    """One feasibility verdict and the way the oracle reached it (``mode``).

    On an infeasible verdict ``cut_jobs`` / ``cut_sites`` are the job / site
    indices on the source side of the minimal min cut (mapped back through
    the degree-1 folding); a feasible verdict carries empty sets.
    """

    feasible: bool
    flow_value: float
    demanded: float
    cut_jobs: frozenset[int]
    cut_sites: frozenset[int]
    mode: str  # "early-accept" | "flow-warm" | "flow-cold"


class ParametricFeasibility:
    """Feasibility oracle bound to one cluster, warm across target probes.

    Parameters
    ----------
    cluster:
        The instance; topology and demand caps are fixed for the oracle's
        lifetime (targets are the only moving part).

    Degree-1 jobs are always folded into their site's sink-arc capacity.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.stats = ProbeStats()
        n, m = cluster.n_jobs, cluster.n_sites
        self._n, self._m = n, m
        self._scale = max(1.0, float(n + m))
        self._capacities = cluster.capacities
        support = cluster.support
        dcaps = cluster.demand_caps

        degree = support.sum(axis=1)
        folded = degree == 1
        self._folded_idx = np.flatnonzero(folded)
        self._multi_idx = np.flatnonzero(~folded)
        if self._folded_idx.size:
            self._folded_site = support[self._folded_idx].argmax(axis=1).astype(np.int64)
            self._folded_cap = dcaps[self._folded_idx, self._folded_site]
        else:
            self._folded_site = np.zeros(0, dtype=np.int64)
            self._folded_cap = np.zeros(0)
        self.stats.folded_jobs = int(self._folded_idx.size)

        # Reduced network: src=0, multi jobs 1..K, sites K+1..K+m, snk last.
        # Edge order fixes the ids: K source arcs, then support arcs, then m
        # sink arcs (forward id of the k-th edge is 2k).
        k_multi = int(self._multi_idx.size)
        self._src = 0
        self._site0 = k_multi + 1
        self._snk = k_multi + m + 1
        # The support arcs in row-major order: job by job, each job's sites
        # ascending — the order that fixes every edge id below.
        ks, js = np.nonzero(support[self._multi_idx])
        jobs_of = self._multi_idx[ks]
        sites_m = np.arange(m, dtype=np.int64)
        self._source_eids = np.arange(k_multi, dtype=np.int64) * 2
        self._sup_eids = np.arange(ks.size, dtype=np.int64) * 2 + 2 * k_multi
        self._site_eids = sites_m * 2 + 2 * (k_multi + ks.size)
        self._sup_job, self._sup_site = jobs_of.astype(np.int64), js.astype(np.int64)
        self._graph = ArrayFlowGraph(
            self._snk + 1,
            np.concatenate([np.zeros(k_multi, dtype=np.int64), 1 + ks, self._site0 + sites_m]),
            np.concatenate([1 + np.arange(k_multi), self._site0 + js, np.full(m, self._snk)]),
            np.concatenate([np.zeros(k_multi), dcaps[jobs_of, js], np.zeros(m)]),
        )
        # Rollback walks: per multi-job its (edge, site) arcs, per site its
        # (edge, job) arcs, both in edge order.
        self._job_edges: list[list[tuple[int, int]]] = [[] for _ in range(k_multi)]
        self._site_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for eid, k, j in zip(self._sup_eids.tolist(), ks.tolist(), js.tolist()):
            self._job_edges[k].append((eid, j))
            self._site_edges[j].append((eid, k))
        self._source_eids_list = self._source_eids.tolist()
        self._site_eids_list = self._site_eids.tolist()

        self._last_feasible: np.ndarray | None = None
        self._flow_targets: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Flow-state maintenance
    # ------------------------------------------------------------------
    def _cancel_at_site(self, j: int, excess: float) -> None:
        """Cancel ``excess`` flow through site ``j`` (walks incoming arcs)."""
        cap = self._graph.cap
        te = self._site_eids_list[j]
        for eid, k in self._site_edges[j]:
            if excess <= 1e-15:
                return
            f = cap[eid + 1]
            if f <= 0.0:
                continue
            r = min(f, excess)
            cap[eid] += r
            cap[eid + 1] -= r
            se = self._source_eids_list[k]
            cap[se] += r
            cap[se + 1] -= r
            cap[te] += r
            cap[te + 1] -= r
            excess -= r

    def _cancel_at_job(self, k: int, excess: float) -> None:
        """Cancel ``excess`` flow leaving multi-job ``k`` (walks its arcs)."""
        cap = self._graph.cap
        se = self._source_eids_list[k]
        for eid, j in self._job_edges[k]:
            if excess <= 1e-15:
                return
            f = cap[eid + 1]
            if f <= 0.0:
                continue
            r = min(f, excess)
            cap[eid] += r
            cap[eid + 1] -= r
            te = self._site_eids_list[j]
            cap[te] += r
            cap[te + 1] -= r
            cap[se] += r
            cap[se + 1] -= r
            excess -= r

    def _install(self, t_multi: np.ndarray, spare: np.ndarray) -> bool:
        """Install per-probe capacities, keeping all still-valid flow.

        Decreases cancel just the excess flow locally (the rollback arm of
        the parametric reuse); increases only add residual.  Returns whether
        any flow had to be rolled back.
        """
        g = self._graph
        cap = g.cap
        src_tw = self._source_eids + 1
        site_tw = self._site_eids + 1
        rolled = False
        site_flow = cap[site_tw]
        for j in np.flatnonzero(site_flow > spare + 1e-15):
            self._cancel_at_site(int(j), float(site_flow[j] - spare[j]))
            rolled = True
        src_flow = cap[src_tw]
        for k in np.flatnonzero(src_flow > t_multi + 1e-15):
            self._cancel_at_job(int(k), float(src_flow[k] - t_multi[k]))
            rolled = True
        src_flow = np.minimum(cap[src_tw], t_multi)
        g.orig[self._source_eids] = t_multi
        cap[self._source_eids] = t_multi - src_flow
        cap[src_tw] = src_flow
        site_flow = np.minimum(cap[site_tw], spare)
        g.orig[self._site_eids] = spare
        cap[self._site_eids] = spare - site_flow
        cap[site_tw] = site_flow
        return rolled

    def _map_cut(
        self,
        reach: np.ndarray,
        t_eff: np.ndarray,
        capped: np.ndarray,
        overloaded: np.ndarray,
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Min-cut source side of the reduced graph, mapped to full indices.

        A site overloaded by folded demand alone is source-side in the
        unreduced graph (some folded job keeps residual source capacity and
        an unsaturated edge into it), as is every folded job with a positive
        effective target at a source-side site — via the site's reverse arc
        when fully delivered, via its own source arc otherwise.  A *capped*
        folded job (target above its only demand cap) is source-side
        unconditionally, but its saturated edge exposes no site.
        """
        site0 = self._site0
        site_in = reach[site0 : site0 + self._m] | overloaded
        cut_sites = frozenset(int(j) for j in np.flatnonzero(site_in))
        jobs = {int(i) for i in self._multi_idx[reach[1 : 1 + self._multi_idx.size]]}
        if self._folded_idx.size:
            hit = capped | (site_in[self._folded_site] & (t_eff > ABS_TOL))
            jobs.update(int(i) for i in self._folded_idx[hit])
        return frozenset(jobs), cut_sites

    # ------------------------------------------------------------------
    # The probe
    # ------------------------------------------------------------------
    def probe(self, targets: np.ndarray) -> ProbeOutcome:
        """Feasibility verdict for one aggregate target vector.

        An infeasible verdict always comes from a flow solve and carries
        its *minimal* min cut — the cutting-plane loop relies on that to see
        each site set at most once.
        """
        if not TRACER.enabled:
            return self._probe_impl(targets)
        with span("flow.probe") as sp:
            out = self._probe_impl(targets)
            sp.args["mode"] = out.mode
            sp.args["feasible"] = out.feasible
        return out

    def _probe_impl(self, targets: np.ndarray) -> ProbeOutcome:
        targets = np.asarray(targets, dtype=float)
        st = self.stats
        st.probes += 1
        demanded = float(targets.sum())

        # Exact elementwise dominance only: the feasible region is downward
        # closed, so ``targets <= last_feasible`` is a proof.  No tolerance
        # slack — bisection probes sit ~1e-9 apart, and a fuzzy accept here
        # would flip verdicts the flow check (feq) decides the other way.
        if self._last_feasible is not None:
            if targets.shape == self._last_feasible.shape and bool(
                (targets <= self._last_feasible).all()
            ):
                st.early_accepts += 1
                return ProbeOutcome(True, demanded, demanded, frozenset(), frozenset(), "early-accept")

        delivered, t_eff, load, capped, overloaded, warm = self._flow_solve(targets)
        feasible = feq(delivered, demanded, scale=self._scale)
        if feasible:
            # A cut is promised on an *infeasible* verdict only; a feasible
            # probe's is the (near-empty) residual reach set no caller reads,
            # so skip the reachability sweep.
            cut_jobs, cut_sites = frozenset(), frozenset()
            self._last_feasible = targets.copy()
        else:
            cut_jobs, cut_sites = self._map_cut(
                self._graph.reachable_from(self._src), t_eff, capped, overloaded
            )
        return ProbeOutcome(
            feasible, delivered, demanded, cut_jobs, cut_sites, "flow-warm" if warm else "flow-cold"
        )

    def _flow_solve(self, targets: np.ndarray):
        """Install ``targets`` (warm) and run max flow; the graph is left
        holding a maximum flow for exactly this vector (``_flow_targets``).
        """
        st = self.stats
        g = self._graph
        t_multi = targets[self._multi_idx]
        # Folded jobs deliver at most min(target, demand cap) through their
        # single site; the remainder is undeliverable regardless of flow.
        t_fold = targets[self._folded_idx]
        t_eff = np.minimum(t_fold, self._folded_cap)
        capped = t_fold > self._folded_cap + ABS_TOL * np.maximum(1.0, self._folded_cap)
        if self._folded_idx.size:
            load = np.bincount(self._folded_site, weights=t_eff, minlength=self._m)
        else:
            load = np.zeros(self._m)
        spare = np.maximum(self._capacities - load, 0.0)
        overloaded = load > self._capacities + ABS_TOL * np.maximum(1.0, self._capacities)

        warm = bool((g.cap[self._source_eids + 1] > 0.0).any())
        if self._install(t_multi, spare):
            st.rollbacks += 1
        # The flow can never exceed the source arcs' forward residual;
        # reaching that bound proves optimality without the final BFS.
        limit = float(g.cap[self._source_eids].sum())
        g.max_flow(self._src, self._snk, limit=limit)
        if warm:
            st.warm_solves += 1
        else:
            st.cold_solves += 1
        self._flow_targets = targets.copy()

        folded_delivered = float(np.minimum(load, self._capacities).sum())
        delivered = float(g.flows(self._source_eids).sum()) + folded_delivered
        return delivered, t_eff, load, capped, overloaded, warm

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def allocation_matrix(self, targets: np.ndarray) -> np.ndarray | None:
        """The ``(n, m)`` split of a max flow at ``targets``, or ``None``.

        If the residual graph is not already holding a flow for exactly
        ``targets`` (a later infeasible probe may have moved it), one warm
        re-solve restores it — still far cheaper than a cold realization.
        Returns ``None`` when ``targets`` turns out not to be fully
        deliverable, or has the wrong shape.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (self._n,):
            return None
        synced = (
            self._flow_targets is not None
            and bool((targets == self._flow_targets).all())
        )
        if not synced:
            delivered, *_ = self._flow_solve(targets)
            if not feq(delivered, float(targets.sum()), scale=self._scale):
                return None
        alloc = np.zeros((self._n, self._m))
        if self._sup_eids.size:
            alloc[self._sup_job, self._sup_site] = self._graph.flows(self._sup_eids)
        if self._folded_idx.size:
            alloc[self._folded_idx, self._folded_site] = np.minimum(
                targets[self._folded_idx], self._folded_cap
            )
        return alloc
