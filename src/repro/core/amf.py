"""Aggregate Max-min Fairness (AMF) — the paper's core contribution.

AMF requires the vector of *aggregate* allocations ``A_i = sum_j a_ij`` to be
(weighted) max-min fair over the feasible region cut out by site capacities,
per-edge demand caps and locality support.  The feasible aggregates form a
polymatroid-like region whose facets are min cuts of the job-site network,
which suggests the exact algorithm implemented here:

**Progressive filling with cutting-plane bottleneck detection.**  Jobs start
*active* at a common normalized level ``lam`` (job ``i`` targets
``clip(lam * weight_i, floor_i, cap_i)``).  Each round finds the largest
``lam`` feasible together with the already-frozen jobs:

1. Maintain a pool of *valid site-cut constraints*: for a site set ``S``,
   ``sum_i max(0, A_i - cross_i(S)) <= cap(S)`` where ``cross_i(S)`` is
   job ``i``'s demand cap out of ``S`` (seeded with ``S`` = all sites,
   i.e. the total-capacity cut).
2. Propose ``lam = min_S max{lam : LHS_S(lam) <= cap(S)}`` — exact by one
   batched sweep over each cut's piecewise-linear LHS (:class:`_RoundPool`;
   no binary search).
3. Check feasibility at the proposal with one max-flow.  Feasible: the
   proposal is this round's max-min level, because any larger ``lam``
   violates a recorded cut.  Infeasible: the min cut yields a *new violated
   constraint*; add it and repeat (``lam`` strictly decreases, so the loop
   adds each cut at most once).
4. Freeze every active job that sits in a binding cut (``A_i >=
   cross_i(S)``) or has reached its cap.  A tight cut also bounds every job
   it does *not* freeze: ``sum_{i in J} (A_i - cross_i(S)) = cap(S)`` over
   the members ``J`` leaves no room for another term, so ``A_i <=
   cross_i(S)`` from here on.  The remaining jobs' caps are lowered to that
   value — they then saturate inside the piecewise sweep like any
   demand-capped job — and the cut, now constant, leaves the pool.

A round therefore ends only when a cut that has never bound binds: at most
``1 + pool size`` rounds (seed + warm-started + discovered cuts), however
many jobs each cut pins.  The last round's feasible probe is at the final
levels, so the oracle ends holding a max flow at exactly them and the split
is read off it; the fill pays ``rounds + new cuts`` probes, plus one for the
floors when some floor is positive.

**A warm fill defers step 3.**  When a component's pool was seeded with
cuts from an earlier solve (:class:`CutBasis`), every round ends on the
pool's proposal alone and one max-flow certifies the final levels, started
from the component's previous split.  Every round's targets lie below the
final levels and the feasible region is downward-closed, so a certified
vector is exactly the one the per-round loop would have produced; a
refuted one hands its min cut to the pool and the per-round loop runs
from round one.

The result is exact up to flow tolerance (no level is located by search) and
is verified max-min by :mod:`repro.core.properties` in the test suite, and
against the scipy-only LP oracle ``tests/oracle.py`` at 1e-9.

``floors`` implement the enhanced AMF of the paper (sharing-incentive
guarantees, :mod:`repro.core.enhanced`): progressive filling then runs
*above* per-job guaranteed aggregates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util import ABS_TOL, REL_TOL, require
from repro.core.allocation import Allocation, scrub_matrix
from repro.flownet.parametric import ParametricFeasibility
from repro.model.cluster import Cluster
from repro.obs.tracing import span

if TYPE_CHECKING:
    from repro.core.sharding import ShardBasisPool

__all__ = [
    "solve_amf",
    "amf_levels",
    "amf_levels_bisect",
    "AmfDiagnostics",
    "CutBasis",
]


@dataclass(slots=True)
class AmfDiagnostics:
    """Solver instrumentation (reported by the scalability benchmark F8).

    The parametric oracle counts straight into this record, under the field
    names of :class:`~repro.flownet.parametric.ProbeStats`:
    ``feasibility_solves`` is every probe the solver asked, and the
    ``probes_*`` fields say how each flow solve started, so warm reuse is
    observable all the way up to the service ``/stats`` endpoint.
    """

    rounds: int = 0
    feasibility_solves: int = 0
    cuts_generated: int = 0
    frozen_by_cap: int = 0  # jobs frozen at their own aggregate demand
    frozen_by_cut: int = 0  # jobs frozen in a binding cut, or at the cross_i(S) one pinned them to
    warm_cuts_seeded: int = 0  # valid cuts replayed from a CutBasis
    deferred_checks: int = 0  # warm fills certified by one probe of their final levels
    deferred_refuted: int = 0  # of those, refuted: the per-round loop ran instead
    probes_warm: int = 0  # flow solves continuing from existing flow
    probes_cold: int = 0  # flow solves starting from zero flow
    probe_rollbacks: int = 0  # probes that cancelled flow before solving
    jobs_folded: int = 0  # degree-1 jobs folded out of the flow network
    # AMRF multi-resource engine (all zero on scalar / reduced solves)
    amrf_components: int = 0  # vector components no scalar reduction took: the engine solved them
    amrf_rounds: int = 0  # progressive-filling rounds (max-t LPs)
    amrf_lps: int = 0  # LP solves paid: rounds + aggregate headroom LPs
    amrf_probes: int = 0  # aggregate headroom LPs run for jobs the round LP left undecided
    amrf_probes_skipped: int = 0  # jobs decided with no LP: by a row dual or the vertex witness


class CutBasis:
    """Persistent cutting-plane state, reusable across *related* solves.

    For a site set ``S``, max-flow duality (Gale–Hoffman) gives the
    *tightest* valid inequality induced by ``S`` on **any** cluster:

    ``sum_i max(0, A_i - cross_i(S))  <=  cap(S)``  with
    ``cross_i(S) = sum_{j not in S} d_ij``.

    The classic job-set cut ``sum_{i in J} A_i <= cap(S) + sum_{i in J,
    j not in S} d_ij`` is the relaxation obtained by freezing one job set
    ``J`` into that inequality; under churn a stored ``J`` goes stale (new
    arrivals are missing from it, so the replayed cut is valid but loose
    and buys no feasibility probes).  The site-cut form re-derives the
    maximizing job set ``J = { i : A_i > cross_i(S) }`` at every fill
    level for whatever jobs the next cluster has, so a bottleneck site set
    stays *tight* as jobs come and go.  The basis therefore stores only
    site-*name* sets and re-instantiates ``cross``/``cap`` against the
    current cluster (vanished sites are dropped; the inequality stays
    valid).

    Seeding a solve with these cuts cannot change its result — the final
    levels are still certified by max-flow (see :func:`_certified_fill`) —
    it only lets the solver skip re-discovering bottlenecks it has already
    seen, which is what makes the online service's warm-started re-solves
    cheap (:class:`repro.service.solver.IncrementalAmfSolver`).

    The pool is a bounded LRU (``max_cuts``): recently re-recorded cuts
    survive, stale ones age out, so long-lived daemons don't accrete
    constraints from clusters that no longer resemble the present one.

    The basis also keeps the component's last solved split
    (:meth:`keep_split`): the one max-flow that certifies a warm fill starts
    from it (:meth:`split_on`).
    """

    __slots__ = ("_cuts", "max_cuts", "_split")

    def __init__(self, max_cuts: int = 64):
        require(max_cuts >= 1, "max_cuts must be at least 1")
        self.max_cuts = max_cuts
        self._cuts: OrderedDict[frozenset[str], None] = OrderedDict()
        self._split: tuple[tuple, tuple[str, ...], np.ndarray | None, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._cuts)

    def keep_split(self, cluster: Cluster, matrix: np.ndarray) -> None:
        """Remember ``matrix``, a solved ``(n, m)`` split of ``cluster``."""
        self._split = (cluster.jobs, tuple(site.name for site in cluster.sites), cluster.arrival_numbers(), matrix)

    def split_on(self, cluster: Cluster) -> np.ndarray | None:
        """The kept split re-indexed onto ``cluster``: rows of departed jobs
        and columns of vanished sites dropped, new jobs and sites zero.

        Jobs are matched by name; two components of one store by their
        arrival numbers (:meth:`Cluster.arrival_numbers`), one gather, so a
        job that left and came back under its name starts from zero there.
        """
        if self._split is None:
            return None
        jobs, sites, arrivals, matrix = self._split
        numbers = cluster.arrival_numbers()
        if arrivals is not None and numbers is not None:
            # both ascending: each new number's place among the kept ones
            rows = np.searchsorted(arrivals, numbers)
            kept_rows = rows < arrivals.size
            kept_rows[kept_rows] = arrivals[rows[kept_rows]] == numbers[kept_rows]
        else:
            job_at = {job.name: i for i, job in enumerate(jobs)}
            rows = np.array([job_at.get(job.name, -1) for job in cluster.jobs], dtype=np.intp)
            kept_rows = rows >= 0
        out = np.zeros((cluster.n_jobs, cluster.n_sites))
        names = tuple(site.name for site in cluster.sites)
        if names == sites:  # the component's sites, as kept: every column stays
            out[kept_rows] = matrix[rows[kept_rows]]
            return out
        site_at = {name: j for j, name in enumerate(sites)}
        cols = np.array([site_at.get(name, -1) for name in names], dtype=np.intp)
        kept_cols = cols >= 0
        out[np.ix_(kept_rows, kept_cols)] = matrix[np.ix_(rows[kept_rows], cols[kept_cols])]
        return out

    def record(self, site_names: frozenset[str]) -> None:
        """Remember one site set ``S`` (refreshes LRU position if known)."""
        key = frozenset(site_names)
        if key in self._cuts:
            self._cuts.move_to_end(key)
            return
        self._cuts[key] = None
        while len(self._cuts) > self.max_cuts:
            self._cuts.popitem(last=False)

    def sets(self) -> tuple[frozenset[str], ...]:
        """Stored site-name sets, LRU order (oldest first).

        :class:`~repro.core.sharding.ShardBasisPool` seeds a new shard's
        basis from the sets of the stored bases whose keys it contains.
        """
        return tuple(self._cuts)

    def instantiate(self, cluster: Cluster) -> list[frozenset[int]]:
        """Stored site sets as index sets on ``cluster`` (empty sets dropped)."""
        site_idx = {s.name: j for j, s in enumerate(cluster.sites)}
        out: list[frozenset[int]] = []
        for sites in self._cuts:
            idx = frozenset(site_idx[n] for n in sites if n in site_idx)
            if idx:
                out.append(idx)
        return out


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------


class _RoundPool:
    """The live site-cut constraints of one round, over the *active* jobs.

    Row ``k`` is the site-cut LHS ``H_k(lam) = sum_i max(0, clip(lam * w_i,
    f_i, c_i) - x_ki)``: by ``max(0, t - x) = clip(lam*w, f, c) - clip(lam*w,
    min(f, x), min(c, x))`` four breakpoint events per job, all rows swept
    at once (``(K, 4a)`` events for ``a`` active jobs) so a warm-started
    solve carrying many persisted cuts does not pay K Python-level
    constructions.  The one-cut-at-a-time evaluator it replaced is the test
    reference ``tests/core/reference_fill.py``.
    Frozen jobs are constants: each row's ``base`` carries their share of
    the LHS.  A cutting-plane miss appends one row with :meth:`add`; the
    rows already swept are kept.
    """

    __slots__ = ("floors", "caps", "weights", "top_level", "per")

    def __init__(self, floors: np.ndarray, caps: np.ndarray, weights: np.ndarray):
        self.floors = np.minimum(floors, caps)
        self.caps = caps
        self.weights = weights
        self.top_level = float((caps / weights).max(initial=0.0))
        self.per = np.empty(0)  # per row: sup { lam >= 0 : H_k(lam) <= rhs_k }

    def add(self, crosses: np.ndarray, rhs: np.ndarray, base: np.ndarray) -> None:
        """Sweep ``(k, a)`` more rows: crossing capacities, ``cap(S)`` and the
        frozen jobs' contribution per row."""
        k, a = crosses.shape
        f, c, w = self.floors, self.caps, self.weights
        m_floors = np.minimum(f, crosses)  # (k, a)
        m_caps = np.minimum(c, crosses)
        # levels, consts and slopes of the four events per job and row, written
        # in place (f, c and w broadcast over the rows) and each gathered once
        ev = np.empty((3, k, 4, a))
        ev[0, :, 0], ev[0, :, 1], ev[0, :, 2], ev[0, :, 3] = f / w, c / w, m_floors / w, m_caps / w
        ev[1, :, 0], ev[1, :, 1], ev[1, :, 2], ev[1, :, 3] = -f, c, m_floors, -m_caps
        ev[2, :, 0::3], ev[2, :, 1:3] = w, -w
        levels, consts, slopes = ev.reshape(3, k, 4 * a)
        flat = np.argsort(levels, axis=1, kind="stable") + (np.arange(k) * (4 * a))[:, None]
        levels = levels.take(flat)
        start = base + (f - m_floors).sum(axis=1)  # H_k(0)
        consts = start[:, None] + np.cumsum(consts.take(flat), axis=1)
        slopes = np.cumsum(slopes.take(flat), axis=1)
        total_cap = base + (c - m_caps).sum(axis=1)  # sup of H_k
        self.per = np.concatenate([self.per, _max_levels(levels, consts, slopes, total_cap, rhs)])

    def propose(self) -> tuple[float, np.ndarray]:
        """Largest lam satisfying every row, plus the indices of the binding rows."""
        lam = float(self.per.min())
        if np.isinf(lam):  # nothing ever binds: the actives run to their caps
            return lam, np.empty(0, dtype=int)
        return lam, np.flatnonzero(self.per <= lam * (1 + 1e-12) + ABS_TOL)


def _max_levels(
    levels: np.ndarray, consts: np.ndarray, slopes: np.ndarray, total_cap: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Per-row ``sup { lam >= 0 : H_k(lam) <= rhs_k }`` (``inf`` when the row
    never binds; 0 when even ``H_k(0)`` exceeds ``rhs_k``; a plateau sitting
    at ``rhs_k`` ends at the next breakpoint).  Tests hold it to the
    one-row evaluator ``tests/core/reference_fill.py`` at 1e-12."""
    n_events = levels.shape[1]
    tol = ABS_TOL * np.maximum(1.0, np.abs(rhs))
    thr = rhs + tol
    seg_start_vals = consts + slopes * levels
    # rows are non-decreasing, so the count of starts <= thr is the
    # searchsorted(side="right") index:
    idx = (seg_start_vals <= thr[:, None]).sum(axis=1)
    rows = np.arange(levels.shape[0])
    k = np.maximum(idx - 1, 0)
    c, s = consts[rows, k], slopes[rows, k]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = (rhs - c) / s
    plateau_end = levels[rows, np.minimum(idx, n_events - 1)]
    per = np.where(s > 0.0, crossing, np.where(idx < n_events, plateau_end, np.inf))
    per = np.where(idx == 0, 0.0, per)
    return np.where(total_cap <= thr, np.inf, per)


class _SiteCuts:
    """The site-cut constraints one solve knows: per cut ``cross_i(S)`` and
    ``cap(S)`` (both depend only on the cluster, so they hold for the whole
    solve), plus which cuts have not bound yet (``live``)."""

    __slots__ = ("cluster", "seen", "crosses", "rhs", "live")

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.seen: set[frozenset[int]] = set()
        self.crosses: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.live: list[int] = []

    def add(self, sites: frozenset[int]) -> bool:
        """Record site set ``sites`` as a live cut; ``False`` when already known."""
        if sites in self.seen:
            return False
        self.seen.add(sites)
        outside = np.ones(self.cluster.n_sites, dtype=bool)
        outside[list(sites)] = False
        # crossing capacity: the job's demand caps to the complement of S
        self.crosses.append(self.cluster.demand_caps[:, outside].sum(axis=1))
        self.rhs.append(float(self.cluster.capacities[sorted(sites)].sum()))
        self.live.append(len(self.rhs) - 1)
        return True

    def revive(self) -> None:
        """Every known cut live again, in the order they were added."""
        self.live = list(range(len(self.rhs)))

    def rows(self, which: list[int], levels: np.ndarray, frozen: np.ndarray) -> tuple[np.ndarray, ...]:
        """``_RoundPool.add`` arguments for cuts ``which``: crossing capacities
        of the active jobs, ``cap(S)``, and the frozen jobs' fixed LHS share."""
        crosses = np.stack([self.crosses[k] for k in which])
        base = np.maximum(levels[frozen] - crosses[:, frozen], 0.0).sum(axis=1)
        return crosses[:, ~frozen], np.array([self.rhs[k] for k in which]), base


class _FeasibilityAdapter:
    """The shared probe state of :func:`amf_levels` and
    :func:`amf_levels_bisect`: the λ→targets map plus the warm
    :class:`ParametricFeasibility` oracle behind one interface (both solver
    variants used to carry near-identical ``targets_at`` / ``feasible``
    closures).  The oracle counts into ``diag`` as it probes.  The site cuts
    a solve knows live in the fill loop's :class:`_SiteCuts`, not here.
    """

    __slots__ = ("floors", "caps", "weights", "levels", "frozen", "oracle")

    def __init__(
        self,
        cluster: Cluster,
        floors: np.ndarray,
        caps: np.ndarray,
        diag: AmfDiagnostics,
    ):
        self.floors = floors
        self.caps = caps  # the fill loop tightens this in place as cuts bind
        self.weights = cluster.weights
        self.levels = floors.copy()  # frozen jobs keep their entry; active entries are provisional
        self.frozen = np.zeros(cluster.n_jobs, dtype=bool)
        self.oracle = ParametricFeasibility(cluster, diag)

    def restart(self, caps: np.ndarray) -> None:
        """Back to round one: nothing frozen, effective caps at ``caps``."""
        self.levels[:] = self.floors
        self.frozen[:] = False
        self.caps[:] = caps

    def targets_at(self, lam: float) -> np.ndarray:
        t = np.clip(lam * self.weights, self.floors, self.caps)
        t[self.frozen] = self.levels[self.frozen]
        return t

    def feasible(self, targets: np.ndarray) -> tuple[bool, frozenset[int], frozenset[int]]:
        """One feasibility probe; an infeasible verdict carries its minimal
        min cut (see :meth:`ParametricFeasibility.probe`)."""
        out = self.oracle.probe(targets)
        return out.feasible, out.cut_jobs, out.cut_sites


def amf_levels(
    cluster: Cluster,
    floors: np.ndarray | None = None,
    diagnostics: AmfDiagnostics | None = None,
    bases: ShardBasisPool | None = None,
) -> np.ndarray:
    """Compute the AMF aggregate vector ``(A_1..A_n)`` for ``cluster``.

    Parameters
    ----------
    cluster:
        The instance; each connected component is filled on its own
        (:mod:`repro.core.sharding`).
    floors:
        Optional per-job guaranteed aggregates (enhanced AMF).  Must be
        jointly feasible; :class:`ValueError` is raised otherwise.
    diagnostics:
        Optional mutable instrumentation record.
    bases:
        Optional :class:`~repro.core.sharding.ShardBasisPool` to warm-start
        from.  Each component's cuts are seeded into its constraint pool
        before the first round, and every cut the component's fill
        discovers is recorded back, so consecutive solves on similar
        clusters converge with fewer max-flow feasibility checks.  Purely an
        accelerator: the levels agree with a cold solve to 1e-8 absolute
        plus 1e-9 relative (docs/contracts.md), not bit for bit.
    Returns
    -------
    ``(n,)`` aggregates of the (weighted, floor-respecting) max-min fair
    allocation.  Use :func:`solve_amf` for a realized job-site matrix.

    Multi-resource clusters are accepted when they reduce exactly to the
    scalar problem (R=1 or one globally dominant resource); the returned
    levels are then in reduced units ``k_i * A_i`` with ``k_i`` the job's
    dominant-resource demand (``k_i = 1`` for unit-demand jobs, making the
    reduction a pure resource rename).  Irreducible vector clusters have
    no scalar level semantics — use :func:`solve_amf`.
    """
    if cluster.is_multiresource:
        from repro.multiresource.engine import scalar_reduction

        red = scalar_reduction(cluster)
        require(
            red is not None,
            "amf_levels needs a scalar-reducible cluster; use solve_amf for general resource vectors",
        )
        scalar, k = red
        scaled = None if floors is None else np.asarray(floors, dtype=float) * k
        return amf_levels(scalar, scaled, diagnostics, bases)
    from repro.core.sharding import solve

    return solve(cluster, None, floors=floors, bases=bases, diagnostics=diagnostics).result


def _fill_levels(
    cluster: Cluster,
    floors: np.ndarray | None,
    diag: AmfDiagnostics,
    basis: CutBasis | None,
) -> tuple[np.ndarray, ParametricFeasibility]:
    """Progressive filling over one component; returns the levels plus the
    warm oracle, which holds a max flow at exactly those levels, so the
    shard solve can read the matrix off it (:func:`_flow_split`)."""
    n = cluster.n_jobs
    caps = cluster.aggregate_demand
    if floors is None:
        floors = np.zeros(n)
    else:
        floors = np.minimum(np.asarray(floors, dtype=float), caps)
        require(float(floors.min(initial=0.0)) >= -ABS_TOL, "floors must be non-negative")
        floors = np.maximum(floors, 0.0)

    cut_sets = basis.instantiate(cluster) if basis is not None else []
    adapter = _FeasibilityAdapter(cluster, floors, caps.copy(), diag)
    # Round one starts at the floors, so they must be jointly feasible.  No
    # positive floor means the zero vector, feasible on every cluster, and
    # that probe is skipped (it would leave the oracle's flow at zero, as a
    # fresh oracle holds it).
    if adapter.floors.any():
        ok, _, _ = adapter.feasible(adapter.targets_at(0.0))
        if not ok:
            raise ValueError("floors are infeasible for this cluster")

    # Each cut is a site set S enforced in its tightest (Gale–Hoffman) form —
    # the seed S = all sites has zero crossing capacity, i.e. the plain
    # total-capacity fill.
    cuts = _SiteCuts(cluster)
    cuts.add(frozenset(range(cluster.n_sites)))
    seeded = sum(cuts.add(sites) for sites in cut_sets)
    diag.warm_cuts_seeded += seeded
    if not (seeded and _certified_fill(cluster, caps, diag, basis, cuts, adapter)):
        _fill_rounds(cluster, caps, diag, basis, cuts, adapter, probe=True)
    return adapter.levels, adapter.oracle


def _certified_fill(
    cluster: Cluster,
    caps: np.ndarray,
    diag: AmfDiagnostics,
    basis: CutBasis,
    cuts: _SiteCuts,
    adapter: _FeasibilityAdapter,
) -> bool:
    """A warm fill: every round from the cut pool alone, then one probe of
    the final levels, started from the component's previous split.

    Each round's targets are elementwise at most the final levels (frozen
    jobs keep theirs; active ones only rise).  The feasible region is
    downward-closed, so when the final vector is feasible every per-round
    probe would have answered "feasible" too, and the per-round loop would
    have produced these very levels.  ``False`` means the probe refuted
    them: its minimal min cut joins the pool and the basis, the round
    counters are rolled back, and the caller runs the per-round loop from
    round one.
    """
    tally = diag.rounds, diag.frozen_by_cap, diag.frozen_by_cut
    _fill_rounds(cluster, caps, diag, basis, cuts, adapter, probe=False)
    diag.deferred_checks += 1
    split = basis.split_on(cluster)
    if split is not None:
        adapter.oracle.seed(split, adapter.levels)
    ok, _, cut_sites = adapter.feasible(adapter.levels)
    if ok:
        return True
    diag.deferred_refuted += 1
    diag.rounds, diag.frozen_by_cap, diag.frozen_by_cut = tally
    sites = frozenset(int(j) for j in cut_sites)
    if sites and cuts.add(sites):
        diag.cuts_generated += 1
        basis.record(frozenset(cluster.sites[j].name for j in sites))
    cuts.revive()
    adapter.restart(caps)
    return False


def _fill_rounds(
    cluster: Cluster,
    caps: np.ndarray,
    diag: AmfDiagnostics,
    basis: CutBasis | None,
    cuts: _SiteCuts,
    adapter: _FeasibilityAdapter,
    *,
    probe: bool,
) -> None:
    """The progressive-filling rounds, freezing into ``adapter``'s state.

    With ``probe`` every round's proposal is checked by one max-flow and a
    violated min cut joins the pool; the last round's feasible probe is at
    the final levels, so they need no check of their own.  Without it the
    pool's proposal ends the round and the caller certifies the final
    levels (:func:`_certified_fill`).
    """
    n = cluster.n_jobs
    floors, weights = adapter.floors, adapter.weights
    targets_at = adapter.targets_at
    feasible = adapter.feasible
    levels = adapter.levels
    frozen = adapter.frozen
    # Effective caps: demand caps, lowered to ``cross_i(S)`` whenever a cut
    # ``S`` binds while job ``i`` is still active (see the freeze step).
    eff_caps = adapter.caps

    lam_done = 0.0
    while not frozen.all():
        diag.rounds += 1
        active = ~frozen
        pool = _RoundPool(floors[active], eff_caps[active], weights[active])
        pool.add(*cuts.rows(cuts.live, levels, frozen))

        guard = 0
        while True:
            guard += 1
            if guard > 10 * (n + cluster.n_sites) + 100:  # pragma: no cover
                raise RuntimeError("AMF cutting-plane loop failed to converge (numeric breakdown)")
            lam, binding = pool.propose()
            lam_eval = min(lam, max(pool.top_level, lam_done))
            lam_eval = max(lam_eval, lam_done)
            targets = targets_at(lam_eval)
            if not probe:
                break
            # an infeasible proposal must yield a *new* site set (the pool
            # already enforces every seen one analytically)
            ok, _, cut_sites = feasible(targets)
            if ok:
                break
            require(len(cut_sites) > 0, "infeasible cut without source-side sites (numeric breakdown)")
            sites = frozenset(int(j) for j in cut_sites)
            # Live cuts are enforced by the pool at their tightest and bound
            # ones by the effective caps, so a violated min cut must expose a
            # *new* site set; a repeat means the analytic LHS and the flow
            # check disagree beyond tolerance.
            require(cuts.add(sites), "rediscovered site cut (numeric breakdown)")
            pool.add(*cuts.rows(cuts.live[-1:], levels, frozen))
            diag.cuts_generated += 1
            if basis is not None:
                basis.record(frozenset(cluster.sites[j].name for j in sites))

        new_levels = targets  # certified by this round's max-flow, or by the caller's
        # Saturated actives: at the demand cap, or at the crossing capacity
        # an earlier round's binding cut pinned them to.
        to_freeze = active & (new_levels >= eff_caps - ABS_TOL * np.maximum(1.0, eff_caps))
        pinned = to_freeze & (eff_caps < caps - ABS_TOL * np.maximum(1.0, caps))
        diag.frozen_by_cut += int(pinned.sum())
        diag.frozen_by_cap += int(to_freeze.sum() - pinned.sum())
        # A tight site cut S freezes the jobs whose target meets or exceeds
        # their crossing capacity (raising one would lift the cut LHS above
        # cap(S)) and, by the same inequality, caps every other job at
        # cross_i(S) for good.  With that cap the cut's LHS is constant, so
        # the cut retires from the pool: a round never ends on it again.
        for k in [cuts.live[r] for r in binding]:
            cross = cuts.crosses[k]
            in_cut = active & (new_levels >= cross - ABS_TOL * np.maximum(1.0, cross))
            diag.frozen_by_cut += int((in_cut & ~to_freeze).sum())
            to_freeze |= in_cut
            np.minimum(eff_caps, cross, out=eff_caps)
            cuts.live.remove(k)
        # Progress: a finite ``lam`` retires at least the cut that set it, and
        # at ``lam = inf`` every active job sits at its effective cap.
        levels[to_freeze] = new_levels[to_freeze]
        frozen |= to_freeze
        lam_done = lam_eval


def solve_amf(
    cluster: Cluster,
    floors: np.ndarray | None = None,
    diagnostics: AmfDiagnostics | None = None,
    bases: ShardBasisPool | None = None,
    *,
    shards: bool = True,
) -> Allocation:
    """Compute an AMF allocation: aggregates by progressive filling, split via max-flow.

    Each connected component of the job-site graph is solved on its own and
    the blocks are stitched (:mod:`repro.core.sharding`): scalar components
    by progressive filling, vector ones by
    :func:`repro.multiresource.engine.solve_multiresource` under the
    federation's resource totals.  ``bases`` warm-starts each component's
    cutting-plane pool (:class:`~repro.core.sharding.ShardBasisPool`).

    The returned split is *an* AMF allocation; the completion-time add-on
    (:func:`repro.core.completion.optimize_completion_times`) re-splits the
    same aggregates to optimize job completion times.  The realization is
    free: the fill's last probe leaves the oracle's residual graph carrying
    a max flow at exactly the levels, so the matrix is read off that flow.
    """
    # Vestige with one reader: benchmarks/ledger/rounds.py calls
    # ``solve_amf(expected, shards=True)``.  Every solve is per component;
    # the flag selects nothing and goes when that harness may be edited.
    require(shards is True, "solve_amf always solves per connected component; shards= accepts only True")
    from repro.core.sharding import solve

    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    engine_runs = diag.amrf_components
    run = solve(cluster, floors=floors, bases=bases, diagnostics=diag)
    # a component the scalar reduction cannot take goes to the AMRF engine
    # and makes the allocation AMRF; scalar components and exactly
    # reducible vector ones are plain AMF
    policy = "amrf" if diag.amrf_components > engine_runs else "amf"
    return Allocation._trusted(cluster, run.result, policy=policy if floors is None else policy + "+floors")


def _flow_split(
    cluster: Cluster, levels: np.ndarray, oracle: ParametricFeasibility, basis: CutBasis | None
) -> np.ndarray:
    """The fill's own split, read off the warm oracle's final flow; kept in
    ``basis`` for the component's next warm fill to start its flow from."""
    matrix = oracle.allocation_matrix(levels)
    require(matrix is not None, "levels are not feasible on this cluster")
    matrix = _finalize_matrix(cluster, levels, matrix)
    if basis is not None:
        basis.keep_split(cluster, matrix)
    return matrix


def _finalize_matrix(cluster: Cluster, levels: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Rescale rows so each sums to its level exactly, then scrub the
    rescaling residue (a row scaled up by the flow-tolerance deficit can
    overshoot a demand cap by the same hair)."""
    sums = matrix.sum(axis=1)
    # the rows ``feq(sum, level)`` calls unequal, all at once
    tol = np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(sums), np.abs(levels)))
    off = (sums > 0.0) & (np.abs(sums - levels) > tol)
    matrix[off] *= (levels[off] / sums[off])[:, None]
    return scrub_matrix(cluster, matrix)


def amf_levels_bisect(
    cluster: Cluster,
    tol: float = 1e-9,
    diagnostics: AmfDiagnostics | None = None,
) -> np.ndarray:
    """Ablation variant: progressive filling with pure binary search.

    Identical freezing rule, but each round's level is located by bisection
    to ``tol`` instead of the exact cutting-plane proposal, so the levels
    carry the bisection's error: at the default ``tol=1e-9`` they sit up to
    1.08e-7 off the LP oracle (``random_cluster(cap_prob=0.6)`` seed 106,
    5 jobs x 5 sites, the worst of 300 draws), where :func:`amf_levels`
    matches it to 1e-9.  Kept for the F8 ablation ("bottleneck snapping vs
    binary search") and as an extra cross-check in tests.  Shares the
    λ→targets/probe machinery with :func:`amf_levels` via
    :class:`_FeasibilityAdapter`; bisection is the workload the parametric
    oracle accelerates hardest (descending probes cancel excess flow
    locally instead of rebuilding the network).
    """
    n = cluster.n_jobs
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    if n == 0:
        return np.zeros(0)
    with span("amf.solve", variant="bisect", jobs=cluster.n_jobs, sites=cluster.n_sites):
        return _bisect_levels(cluster, tol, diag)


def _bisect_levels(cluster: Cluster, tol: float, diag: AmfDiagnostics) -> np.ndarray:
    n = cluster.n_jobs
    caps = cluster.aggregate_demand.copy()
    weights = cluster.weights
    adapter = _FeasibilityAdapter(cluster, np.zeros(n), caps, diag)
    targets_at = adapter.targets_at
    levels = adapter.levels
    frozen = adapter.frozen

    def feasible(targets: np.ndarray) -> tuple[bool, frozenset[int]]:
        ok, cut_jobs, _ = adapter.feasible(targets)
        return ok, cut_jobs

    lam_lo = 0.0
    while not frozen.all():
        diag.rounds += 1
        hi = float(np.max(caps[~frozen] / weights[~frozen], initial=0.0))
        ok, _ = feasible(targets_at(hi))
        if ok:
            levels[~frozen] = np.minimum(hi * weights, caps)[~frozen]
            break
        lo = lam_lo
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            ok, _ = feasible(targets_at(mid))
            if ok:
                lo = mid
            else:
                hi = mid
        # the cut that pins this round's bottleneck: the minimal min cut at
        # the lowest level seen to fail
        _, cut_jobs = feasible(targets_at(hi))
        member = np.array(sorted(cut_jobs), dtype=int)
        freeze = np.zeros(n, dtype=bool)
        freeze[member] = True
        freeze |= (~frozen) & (lo * weights >= caps - ABS_TOL)
        freeze &= ~frozen
        if not freeze.any():
            freeze = ~frozen
        new = targets_at(lo)
        levels[freeze] = new[freeze]
        frozen |= freeze
        lam_lo = lo
    return levels
