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
* **across solves** — :meth:`~ParametricFeasibility.seed` installs a
  feasible flow read off a previous allocation (clipped to the demand
  caps, scaled to the targets and the site spare), so a re-solve of a
  slightly changed cluster routes only what changed.

Every probe is a flow solve.  The site cuts a solve knows are enforced
analytically by the AMF fill loop's own pool (``repro.core.amf._SiteCuts``)
before it probes, and the fill never probes a vector it has already
certified.

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
    """How the oracle answered its probes (reuse observability).

    The record a bare ``ParametricFeasibility(cluster)`` counts into; the
    AMF fill loops pass their :class:`~repro.core.amf.AmfDiagnostics`
    instead, which carries the same fields.
    """

    feasibility_solves: int = 0  # probes asked
    probes_warm: int = 0  # flow solves continuing from existing flow
    probes_cold: int = 0  # flow solves starting from zero flow
    probe_rollbacks: int = 0  # flow solves that cancelled excess flow first
    jobs_folded: int = 0  # degree-1 jobs folded into site capacity


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
    mode: str  # "flow-warm" | "flow-cold"


class ParametricFeasibility:
    """Feasibility oracle bound to one cluster, warm across target probes.

    Parameters
    ----------
    cluster:
        The instance; topology and demand caps are fixed for the oracle's
        lifetime (targets are the only moving part).
    stats:
        The record the oracle counts into as it works (``.stats``); a fresh
        :class:`ProbeStats` when omitted.

    Degree-1 jobs are always folded into their site's sink-arc capacity.
    """

    def __init__(self, cluster: Cluster, stats: ProbeStats | None = None):
        self.cluster = cluster
        self.stats = ProbeStats() if stats is None else stats
        n, m = cluster.n_jobs, cluster.n_sites
        self._n, self._m = n, m
        self._scale = max(1.0, float(n + m))
        self._capacities = cluster.capacities
        # every support edge, job by job with each job's sites ascending —
        # the order that fixes every edge id below
        rows, cols, dcaps = cluster.support_edges()

        folded = np.bincount(rows, minlength=n) == 1
        self._folded_idx = np.flatnonzero(folded)
        self._multi_idx = np.flatnonzero(~folded)
        on_folded = folded[rows]
        self._folded_site = cols[on_folded].astype(np.int64)
        self._folded_cap = dcaps[on_folded]
        self.stats.jobs_folded += int(self._folded_idx.size)

        # Reduced network: src=0, multi jobs 1..K, sites K+1..K+m, snk last.
        # Edge order fixes the ids: K source arcs, then support arcs, then m
        # sink arcs (forward id of the k-th edge is 2k).
        k_multi = int(self._multi_idx.size)
        self._src = 0
        self._site0 = k_multi + 1
        self._snk = k_multi + m + 1
        on_multi = ~on_folded
        jobs_of, js = rows[on_multi].astype(np.int64), cols[on_multi].astype(np.int64)
        ks = (np.cumsum(~folded) - 1)[jobs_of]  # each multi-job's position among them
        sites_m = np.arange(m, dtype=np.int64)
        self._source_eids = np.arange(k_multi, dtype=np.int64) * 2
        self._sup_eids = np.arange(ks.size, dtype=np.int64) * 2 + 2 * k_multi
        self._site_eids = sites_m * 2 + 2 * (k_multi + ks.size)
        self._sup_job, self._sup_site = jobs_of, js
        self._graph = ArrayFlowGraph(
            self._snk + 1,
            np.concatenate([np.zeros(k_multi, dtype=np.int64), 1 + ks, self._site0 + sites_m]),
            np.concatenate([1 + np.arange(k_multi), self._site0 + js, np.full(m, self._snk)]),
            np.concatenate([np.zeros(k_multi), dcaps[on_multi], np.zeros(m)]),
        )
        # the rollback walks (_walks), built by the first rollback
        self._job_edges: list[list[tuple[int, int]]] | None = None
        self._site_edges: list[list[tuple[int, int]]] | None = None

        self._flow_targets: np.ndarray | None = None

    def _walks(self) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
        """The rollback walks: per multi-job its (edge, site) arcs, per site
        its (edge, job) arcs, both in edge order.  Most oracles never roll
        back, so the first rollback builds them."""
        if self._job_edges is None:
            self._job_edges = [[] for _ in range(self._multi_idx.size)]
            self._site_edges = [[] for _ in range(self._m)]
            ks = np.searchsorted(self._multi_idx, self._sup_job)
            for eid, k, j in zip(self._sup_eids.tolist(), ks.tolist(), self._sup_site.tolist()):
                self._job_edges[k].append((eid, j))
                self._site_edges[j].append((eid, k))
            self._source_eids_list = self._source_eids.tolist()
            self._site_eids_list = self._site_eids.tolist()
        return self._job_edges, self._site_edges

    # ------------------------------------------------------------------
    # Flow-state maintenance
    # ------------------------------------------------------------------
    def _cancel_at_site(self, j: int, excess: float) -> None:
        """Cancel ``excess`` flow through site ``j`` (walks incoming arcs)."""
        site_edges = self._walks()[1][j]
        cap = self._graph.cap
        te = self._site_eids_list[j]
        for eid, k in site_edges:
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
        job_edges = self._walks()[0][k]
        cap = self._graph.cap
        se = self._source_eids_list[k]
        for eid, j in job_edges:
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

        An infeasible verdict carries its *minimal* min cut — the
        cutting-plane loop relies on that to see each site set at most once.
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
        self.stats.feasibility_solves += 1
        demanded = float(targets.sum())
        delivered, t_eff, load, capped, overloaded, warm = self._flow_solve(targets)
        feasible = feq(delivered, demanded, scale=self._scale)
        if feasible:
            # A cut is promised on an *infeasible* verdict only; a feasible
            # probe's is the (near-empty) residual reach set no caller reads,
            # so skip the reachability sweep.
            cut_jobs, cut_sites = frozenset(), frozenset()
        else:
            cut_jobs, cut_sites = self._map_cut(
                self._graph.reachable_from(self._src), t_eff, capped, overloaded
            )
        return ProbeOutcome(
            feasible, delivered, demanded, cut_jobs, cut_sites, "flow-warm" if warm else "flow-cold"
        )

    def _folded_load(self, targets: np.ndarray):
        """What the folded jobs take at ``targets``: their deliverable
        targets, which of them are capped, the per-site load and the site
        spare left for the network."""
        # Folded jobs deliver at most min(target, demand cap) through their
        # single site; the remainder is undeliverable regardless of flow.
        t_fold = targets[self._folded_idx]
        t_eff = np.minimum(t_fold, self._folded_cap)
        capped = t_fold > self._folded_cap + ABS_TOL * np.maximum(1.0, self._folded_cap)
        if self._folded_idx.size:
            load = np.bincount(self._folded_site, weights=t_eff, minlength=self._m)
        else:
            load = np.zeros(self._m)
        return t_eff, capped, load, np.maximum(self._capacities - load, 0.0)

    def seed(self, split: np.ndarray, targets: np.ndarray) -> None:
        """Replace the carried flow with one read off ``split``, an ``(n, m)``
        job-site matrix — typically the component's previous allocation
        mapped onto this cluster.

        Any non-negative matrix will do: entries are clipped to the demand
        caps (off-support entries are never read), rows scaled down to
        ``targets`` and columns to the site spare left after the folded
        jobs' load.  The installed flow is therefore feasible for
        ``targets``, and the next :meth:`probe` of ``targets`` continues
        from it instead of routing the whole demand from zero.  Verdicts
        and minimal cuts do not depend on the starting flow.
        """
        targets = np.asarray(targets, dtype=float)
        g = self._graph
        n, m = self._n, self._m
        rows_of, sites_of = self._sup_job, self._sup_site
        sup = self._sup_eids
        *_, spare = self._folded_load(targets)
        flow = np.clip(np.asarray(split, dtype=float)[rows_of, sites_of], 0.0, g.orig[sup])
        rows = np.bincount(rows_of, weights=flow, minlength=n)
        flow *= np.divide(targets, rows, out=np.ones(n), where=rows > targets)[rows_of]
        cols = np.bincount(sites_of, weights=flow, minlength=m)
        flow *= np.divide(spare, cols, out=np.ones(m), where=cols > spare)[sites_of]
        rows = np.bincount(rows_of, weights=flow, minlength=n)[self._multi_idx]
        cols = np.bincount(sites_of, weights=flow, minlength=m)
        t_multi = targets[self._multi_idx]
        for eids, carried, bound in (
            (sup, flow, g.orig[sup]),
            (self._source_eids, rows, t_multi),
            (self._site_eids, cols, spare),
        ):
            g.orig[eids] = bound
            g.cap[eids] = np.maximum(bound - carried, 0.0)
            g.cap[eids + 1] = carried
        self._flow_targets = None  # a feasible flow, not yet a maximum one

    def _flow_solve(self, targets: np.ndarray):
        """Install ``targets`` (warm) and run max flow; the graph is left
        holding a maximum flow for exactly this vector (``_flow_targets``).
        """
        st = self.stats
        g = self._graph
        t_multi = targets[self._multi_idx]
        t_eff, capped, load, spare = self._folded_load(targets)
        overloaded = load > self._capacities + ABS_TOL * np.maximum(1.0, self._capacities)

        warm = bool((g.cap[self._source_eids + 1] > 0.0).any())
        if self._install(t_multi, spare):
            st.probe_rollbacks += 1
        # The flow can never exceed the source arcs' forward residual;
        # reaching that bound proves optimality without the final BFS.
        limit = float(g.cap[self._source_eids].sum())
        g.max_flow(self._src, self._snk, limit=limit)
        if warm:
            st.probes_warm += 1
        else:
            st.probes_cold += 1
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
