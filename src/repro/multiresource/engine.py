"""Production AMRF engine: progressive filling over resource vectors.

This is the multi-resource solver behind :func:`repro.core.amf.solve_amf`
when a :class:`~repro.model.cluster.Cluster` carries non-canonical resource
vectors — the only multi-resource path in ``src/``:

* **exact scalar routing** — when a single resource exists (R=1) or one
  resource *dominates* every job at every site, the instance is an exact
  change of variables away from the scalar flow problem; it is handed to
  the scalar flow fast path and mapped back (:func:`scalar_reduction`).
* **progressive filling with one max-``t`` LP per round** — instead of a
  λ-bisection (tens of LPs) per bottleneck, one LP maximizes the common
  weighted share ``t`` directly, and the same LP says who freezes at that
  level: a job whose share row carries a positive dual is tight at every
  optimum (complementary slackness), a job whose share in the optimal
  vertex exceeds its target is not, and the few jobs neither test decides
  (a degenerate vertex can give a tight row a zero dual) share one
  aggregate headroom LP.  The per-job max-share probe this replaced is
  the test referee ``tests/oracle.py::probe_fill_shares``.  Each LP goes to
  HiGHS through scipy's bundled binding as the same ``HighsLp``, options
  and post-check ``scipy.optimize.linprog(method="highs")`` would use, so
  its answer is ``linprog``'s bit for bit without the wrapper's cost.

The engine is stateless.  Repeated states are answered above it by the
service's component memo (``IncrementalAmfSolver``'s solved component
matrices, keyed by fingerprint and resource totals).  It is called once per
connected component (:func:`repro.core.amf.solve_amf`), as for scalar
clusters — dominant-share denominators are federation-wide constants, so
each component's leximin is independent given ``resource_totals``.

Fairness-property status (see ``docs/multiresource.md``): Pareto
efficiency and envy-freeness hold as in DRF; sharing incentive holds
against the equal dominant-share partition; AMF-E floors generalize as
aggregate task-rate floors (converted to share floors internally).
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

import numpy as np

from repro._util import require
from repro.core.allocation import Allocation, scrub_matrix
from repro.core.amf import AmfDiagnostics, CutBasis, _fill_levels, _flow_split
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.obs.tracing import span

__all__ = [
    "scalar_reduction",
    "amrf_allocate",
    "solve_multiresource",
]

_FREEZE_TOL = 1e-7
_DUAL_TOL = 1e-7
_SPREAD = 100.0


# ----------------------------------------------------------------------
# Exact scalar routing
# ----------------------------------------------------------------------
def scalar_reduction(
    cluster: Cluster,
    resource_totals: Mapping[str, float] | None = None,
) -> tuple[Cluster, np.ndarray] | None:
    """Reduce an MR cluster to an *exactly equivalent* scalar instance.

    Looks for a resource ``r*`` that **dominates locally**: every site
    offers it, every job consumes it, and ``r_ir * c_jr* <= r_ir* * c_jr``
    for all jobs ``i``, sites ``j``, resources ``r`` (cross-multiplied, so
    no division tolerance).  Then with ``k_i = r_ir*`` the change of
    variables ``b_ij = k_i * a_ij`` maps the instance onto a scalar
    cluster with capacities ``c_jr*`` and demand caps ``k_i * caps_ij``:

    * feasibility is equivalent — the ``r*`` row implies every other
      site-resource row under local dominance;
    * local dominance summed over sites gives global dominance, so every
      job's dominant share is ``s_i = (sum_j b_ij) / C_r*`` — the scalar
      leximin objective up to one constant factor, hence the same
      optimum ordering (``resource_totals`` only scales that constant,
      so shard reductions stay exact).

    ``R = 1`` is the degenerate case where the single resource dominates
    trivially.  Returns ``(scalar_cluster, k)`` or ``None`` when no
    resource dominates (the progressive-filling engine takes over).
    """
    names = cluster.resource_names
    if not names:
        return None
    J = cluster.job_resource_matrix  # (n, R)
    C = cluster.site_resource_matrix  # (m, R)
    T: np.ndarray | None = None
    if resource_totals is not None:
        own = cluster.resource_totals
        T = np.array([float(resource_totals.get(res, own[res])) for res in names])
    star: int | None = None
    for r in range(len(names)):
        if not (C[:, r] > 0.0).all():
            continue
        if cluster.n_jobs and not (J[:, r] > 0.0).all():
            continue
        # r_ir * c_jr* <= r_ir* * c_jr  for all i, j, r
        lhs = J[:, None, :] * C[None, :, r : r + 1]  # (n, m, R)
        rhs = J[:, None, r : r + 1] * C[None, :, :]  # (n, m, R)
        if not (lhs <= rhs).all():
            continue
        # When solving a shard of a larger federation the dominant-share
        # denominators are the *federation* totals, which per-site
        # dominance inside the shard does not bound: r* must also be every
        # job's dominant resource under those totals (r_ir * T_r* <=
        # r_ir* * T_r), or the reduced objective would rank jobs by the
        # wrong resource.  Without external totals this is the per-site
        # inequalities summed over sites, hence automatic.
        if T is not None and cluster.n_jobs and not (J * T[r] <= J[:, r : r + 1] * T).all():
            continue
        star = r
        break
    if star is None:
        return None
    k = J[:, star] if cluster.n_jobs else np.zeros(0)
    caps = cluster.demand_caps
    sites = [
        Site(site.name, float(C[j, star]), site.tags)
        for j, site in enumerate(cluster.sites)
    ]
    jobs = []
    for i, job in enumerate(cluster.jobs):
        j_caps = {
            site: float(k[i] * caps[i, cluster.site_index(site)]) for site in job.workload
        }
        jobs.append(
            Job(
                name=job.name,
                workload=dict(job.workload),
                demand=j_caps,
                weight=job.weight,
                arrival=job.arrival,
            )
        )
    return Cluster(sites, jobs), k


# ----------------------------------------------------------------------
# The progressive-filling LP engine
# ----------------------------------------------------------------------
class _LpResult(NamedTuple):
    """What the engine reads off one LP: ``x`` and the row duals (capacity
    rows first, then the LP's own rows in order) are ``None`` unless ``ok``."""

    ok: bool
    message: str
    x: np.ndarray | None
    duals: np.ndarray | None


@functools.cache
def _highs():
    """scipy's HiGHS binding (``scipy.optimize._highspy._core``), imported on
    the engine's first LP, where ``linprog`` was: imported with this module
    it measured ~0.15 s slower on a served cold boot (the ledger's
    ``setup_s`` on ``churn_vector``, 2-core box)."""
    from scipy.optimize._highspy import _core

    return _core


@functools.cache
def _highs_options():
    """The options ``scipy.optimize.linprog(method="highs")`` passes HiGHS."""
    highs = _highs()
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


#: ``linprog``'s post-check tolerance on bounds and rows: ``sqrt(1e-9) * 10``.
_FEAS_TOL = float(np.sqrt(1e-9) * 10)


def _run_highs(model) -> tuple[object, np.ndarray | None, np.ndarray | None]:
    """One HiGHS solve of a ``HighsLp``: ``(model status, x, row duals)``,
    the last two ``None`` unless HiGHS reports an optimum."""
    core = _highs()
    highs = core._Highs()
    highs.passOptions(_highs_options())
    error = core.HighsStatus.kError
    solved = highs.passModel(model) != error and highs.run() != error
    status = highs.getModelStatus()
    if not solved or status != core.HighsModelStatus.kOptimal:
        return status, None, None
    solution = highs.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_dual)


class _EngineLP:
    """LP scaffolding over support task-rate variables plus the fill level ``t``.

    Variables are the ``n_e`` support edge rates ``x_e``, then one ``t``
    variable (bounded to 0 when unused), then any slack columns an LP's own
    rows bring.  The site-resource capacity rows are one block shared by
    every LP of a solve, kept in column-major order so each LP's CSC matrix
    is that block with its own share rows appended below.
    """

    def __init__(self, cluster: Cluster, dom: np.ndarray):
        self.cluster = cluster
        caps = cluster.demand_caps
        self.ei, self.ej = np.nonzero(caps > 0.0)  # support edges, row-major
        self.n_e = n_e = int(self.ei.size)
        self.upper = caps[self.ei, self.ej]
        e = np.arange(n_e)
        R = len(cluster.resource_names)
        # one row per (site, resource), edge e of job i at site j consuming J[i, r]
        cap_rows = np.zeros((cluster.n_sites * R, n_e))
        cap_rows[self.ej[:, None] * R + np.arange(R), e[:, None]] = cluster.job_resource_matrix[self.ei]
        used = cap_rows.any(axis=1)
        cap_block = cap_rows[used]
        self.cap_rhs = cluster.site_resource_matrix.reshape(-1)[used]
        self.cap_col, self.cap_row = np.nonzero(cap_block.T)  # sorted by column, then row
        self.cap_val = cap_block[self.cap_row, self.cap_col]
        self.share_rows = np.zeros((cluster.n_jobs, n_e))
        self.share_rows[self.ei, e] = dom[self.ei]
        self.share_caps = self.share_rows @ self.upper
        self.weights = cluster.weights
        #: job i's edges are ``first[i]:first[i + 1]``; ``-dom_i`` is each one's ``-s_i`` coefficient
        self.first = np.searchsorted(self.ei, np.arange(cluster.n_jobs + 1))
        self.neg_dom = -dom[self.ei]

    def shares_of(self, x: np.ndarray) -> np.ndarray:
        return self.share_rows @ x[: self.n_e]

    def rates_from(self, x: np.ndarray) -> np.ndarray:
        rates = np.zeros((self.cluster.n_jobs, self.cluster.n_sites))
        # HiGHS honors bounds only to its own tolerance; the model's
        # lower bound of 0 is exact, so clamping loses nothing.
        rates[self.ei, self.ej] = np.maximum(0.0, x[: self.n_e])
        return rates

    def solve(
        self,
        c: np.ndarray,
        held: np.ndarray,
        held_rhs: np.ndarray,
        *,
        t_max: float | None,
        diag: AmfDiagnostics,
        fill: np.ndarray | None = None,
        n_slack: int = 0,
        slack_max: float | None = None,
    ) -> _LpResult:
        """One LP: minimise ``c @ (x, t, slacks)`` over the capacity block plus
        ``-s_i <= held_rhs[k]`` for ``i = held[k]``, then ``-s_i + w_i t <= 0``
        for each ``i`` in ``fill``; the last ``n_slack`` of those rows each
        gain their own slack column ``+delta``.

        The matrix, bounds and options are the ones ``linprog(method="highs")``
        hands HiGHS for the same LP, and its feasibility post-check applies:
        an optimum whose ``x`` breaks a bound or row by more than
        :data:`_FEAS_TOL` (or holds a NaN) is a failure.
        """
        diag.amrf_lps += 1
        jobs = held if fill is None else np.concatenate([held, fill])
        n_cap, n_rows, n_e = self.cap_rhs.size, jobs.size, self.n_e
        n_row, n_col = n_cap + n_rows, n_e + 1 + n_slack
        # the share rows: row k holds -dom_i on each of job i = jobs[k]'s edges
        deg = self.first[jobs + 1] - self.first[jobs]
        edges = np.arange(int(deg.sum())) + np.repeat(self.first[jobs] - (np.cumsum(deg) - deg), deg)
        fill_rows = np.arange(held.size, n_rows)
        slack_rows = np.arange(n_rows - n_slack, n_rows)
        slack_cols = n_e + 1 + np.arange(n_slack)
        col = np.concatenate([self.cap_col, edges, np.full(fill_rows.size, n_e), slack_cols])
        own_row = np.concatenate([np.repeat(np.arange(n_rows), deg), fill_rows, slack_rows])
        row = np.concatenate([self.cap_row, n_cap + own_row])
        val = np.concatenate([self.cap_val, self.neg_dom[edges], self.weights[jobs[held.size :]], np.ones(n_slack)])
        # a stable sort by column keeps each column's rows ascending
        order = np.argsort(col, kind="stable")
        core = _highs()
        inf = core.kHighsInf
        t_upper = inf if t_max is None else t_max
        upper = np.concatenate([self.upper, [t_upper], np.full(n_slack, inf if slack_max is None else slack_max)])
        rhs = np.concatenate([self.cap_rhs, held_rhs, np.zeros(n_rows - held.size)])
        model = core.HighsLp()
        model.num_col_, model.num_row_ = n_col, n_row
        matrix = model.a_matrix_
        matrix.num_col_, matrix.num_row_ = n_col, n_row
        matrix.format_ = core.MatrixFormat.kColwise
        matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n_col))])
        matrix.index_ = row[order]
        matrix.value_ = val[order]
        model.col_cost_ = c
        model.col_lower_ = np.zeros(n_col)
        model.col_upper_ = upper
        model.row_lower_ = np.full(n_row, -inf)
        model.row_upper_ = rhs
        status, x, duals = _run_highs(model)
        message = f"HiGHS status {int(status)}: {status.name}"
        if x is not None:
            activity = np.bincount(row, weights=val * x[col], minlength=n_row)
            in_bounds = (x >= -_FEAS_TOL).all() and (x <= upper + _FEAS_TOL).all()
            if not (in_bounds and (activity <= rhs + _FEAS_TOL).all()):
                message += f", but x breaks a bound or row by more than {_FEAS_TOL:.2e}"
                x = duals = None
        return _LpResult(x is not None, message, x, duals)


def _amrf_fill(
    cluster: Cluster,
    lp: _EngineLP,
    share_floors: np.ndarray,
    diag: AmfDiagnostics,
) -> np.ndarray:
    """Progressive filling over weighted dominant shares; returns shares.

    Each round solves one max-``t`` LP and decides from it who freezes:
    a job whose fill or floor row carries a positive dual is tight on the
    whole optimal face (complementary slackness), a job whose witness
    share exceeds its target is not, and whoever is left shares one
    aggregate headroom LP (``docs/multiresource.md``).
    """
    n = cluster.n_jobs
    weights = cluster.weights
    share_caps = lp.share_caps
    frozen = share_caps <= 0.0  # no usable edges: the job sits at 0
    shares = np.zeros(n)
    c_t = np.zeros(lp.n_e + 1)
    c_t[-1] = -1.0
    for _round in range(n + 1):
        if frozen.all():
            break
        diag.amrf_rounds += 1
        active = ~frozen
        act = np.flatnonzero(active)
        base = np.where(frozen, shares, share_floors)  # s_i >= base_i
        held = np.flatnonzero(base > 0.0)
        # s_i >= base_i for the held, s_i >= w_i t for the active
        res = lp.solve(c_t, held, -base[held], fill=act, t_max=None, diag=diag)
        if not res.ok:
            if share_floors.any():
                raise ValueError("AMRF floors are infeasible for this cluster")
            raise ValueError(f"AMRF max-t LP failed (numeric breakdown, {res.message})")
        t_star = float(res.x[-1])
        witness = lp.shares_of(res.x)
        # Dual weight of each job's own rows.  The t column's dual
        # constraint normalises sum_i w_i y_i = 1, so the threshold is
        # scale-free.
        y = -res.duals[lp.cap_rhs.size :]
        dual = np.zeros(n)
        dual[act] = y[held.size :]
        dual[held] = np.maximum(dual[held], y[: held.size])
        target = np.maximum(weights * t_star, share_floors)
        tol = _FREEZE_TOL * np.maximum(1.0, target)
        # cap-saturated: x <= caps bounds force s_i <= share_caps[i], so
        # w_i * t_star <= share_caps[i] and the witness proves freezing at
        # the target is feasible.
        newly = active & (share_caps <= target + tol)
        # A row with positive dual is tight at every optimum, and the
        # optimal face {t = t*} is where a job's headroom is measured.
        tight = active & ~newly & (dual > _DUAL_TOL)
        newly |= tight
        roomy = active & ~newly & (witness > target + tol)
        diag.amrf_probes_skipped += int(tight.sum() + roomy.sum())
        # The undecided share one LP: maximise sum(delta) with
        # s_i - delta_i >= target_i for them and everyone else held.  Its
        # optimum is at least any one job's headroom (up to the bound on
        # delta), so if no delta clears its tolerance they all freeze;
        # otherwise the jobs that showed headroom leave and the rest ask
        # again.  Bounding each delta by _SPREAD times the summed
        # tolerance makes the objective count jobs with headroom instead of
        # piling it all on the cheapest one (one job per pass), and stays
        # above that sum, which is what the all-freeze conclusion needs.
        slack = witness - target
        hold = np.where(frozen, shares, target)
        und = np.flatnonzero(active & ~newly & ~roomy)
        while und.size:
            diag.amrf_probes += 1
            order = np.concatenate([np.setdiff1d(np.flatnonzero(hold > 0.0), und), und])
            c_u = np.concatenate([np.zeros(lp.n_e + 1), -np.ones(und.size)])
            bound = _SPREAD * float(tol[und].sum())
            res_u = lp.solve(
                c_u, order, -hold[order], t_max=0.0, diag=diag, n_slack=und.size, slack_max=bound
            )
            if not res_u.ok:
                break  # as a failed probe did: freeze at the target
            delta = res_u.x[-und.size :]
            slack[und] = np.maximum(slack[und], delta)
            if not (delta > tol[und]).any():
                break
            und = und[delta <= tol[und]]
        newly[und] = True
        if not newly.any():
            # Numeric safety: progressive filling must freeze someone each
            # round; take the active job with the least headroom seen.
            newly[act[np.argmin(slack[act])]] = True
        shares[newly] = target[newly]
        frozen |= newly
    require(bool(frozen.all()), "AMRF progressive filling failed to converge")
    return shares


def amrf_allocate(
    cluster: Cluster,
    *,
    floors: np.ndarray | None = None,
    resource_totals: Mapping[str, float] | None = None,
    diagnostics: AmfDiagnostics | None = None,
) -> Allocation:
    """Solve AMRF on a multi-resource cluster with the hardened engine.

    ``floors`` are per-job aggregate task-*rate* floors (the AMF-E
    generalization): job ``i`` is guaranteed ``sum_j a_ij >= floors[i]``,
    enforced internally as a dominant-share floor ``dom_i * floors[i]``.
    ``resource_totals`` pins the federation-wide dominant-share
    denominators when solving a sub-cluster (a shard) of a larger
    federation.
    """
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    totals = dict(resource_totals) if resource_totals is not None else cluster.resource_totals
    with span("amf.solve", variant="amrf", jobs=cluster.n_jobs, sites=cluster.n_sites):
        dom = cluster.dominant_factor(totals)
        lp = _EngineLP(cluster, dom)
        if floors is None:
            share_floors = np.zeros(cluster.n_jobs)
        else:
            f = np.asarray(floors, dtype=float)
            require(f.shape == (cluster.n_jobs,), "floors must have one entry per job")
            require(float(f.min(initial=0.0)) >= 0.0, "floors must be non-negative")
            share_floors = np.minimum(dom * f, lp.share_caps)
        shares = _amrf_fill(cluster, lp, share_floors, diag)
        # Realize a Pareto-efficient witness at the (slightly relaxed)
        # share floors: maximize total rate subject to everyone keeping
        # their fair share.
        held = np.flatnonzero(shares > 0.0)
        c_real = np.append(-np.ones(lp.n_e), 0.0)
        res = lp.solve(c_real, held, -shares[held] * (1.0 - 1e-9), t_max=0.0, diag=diag)
        require(res.ok, "AMRF shares could not be realized (numeric breakdown)")
        rates = scrub_matrix(cluster, lp.rates_from(res.x))
    return Allocation(cluster, rates, policy="amrf" if floors is None else "amrf+floors")


# ----------------------------------------------------------------------
# The solve_amf multi-resource entry
# ----------------------------------------------------------------------
def solve_multiresource(
    cluster: Cluster,
    floors: np.ndarray | None = None,
    diagnostics: AmfDiagnostics | None = None,
    basis: CutBasis | None = None,
    *,
    resource_totals: Mapping[str, float] | None = None,
) -> Allocation:
    """Route a multi-resource solve of one component: exact scalar fast
    path, else the engine.

    Called per connected component by :func:`repro.core.amf.solve_amf`
    (through :mod:`repro.core.sharding`, with the federation-wide
    ``resource_totals``).  The reduction (R=1 or a globally dominant
    resource) runs the scalar component body — the parametric oracle and
    ``basis`` — bit-identically in the reduced variables; everything else
    goes to :func:`amrf_allocate`.
    """
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    red = scalar_reduction(cluster, resource_totals)
    if red is not None:
        scalar, k = red
        scaled_floors = None
        if floors is not None:
            scaled_floors = np.asarray(floors, dtype=float) * k
        policy = "amf" if floors is None else "amf+floors"
        # validated and clamped on the scalar cluster first, as a scalar solve is
        levels, adapter = _fill_levels(scalar, scaled_floors, diag, basis)
        sub = Allocation(scalar, _flow_split(scalar, levels, adapter, basis), policy=policy)
        safe_k = np.where(k > 0.0, k, 1.0)
        if (k == 1.0).all():
            # Identity change of variables (R=1 unit-demand spellings): the
            # scalar result is already scrubbed against a float-identical
            # constraint set, and re-scrubbing here would recompute column
            # usage in a different summation order (the MR matmul) —
            # flipping low bits and breaking bit-identity with the scalar
            # solve.
            return Allocation(cluster, sub.matrix, policy=sub.policy)
        matrix = sub.matrix / safe_k[:, None]
        return Allocation(cluster, scrub_matrix(cluster, matrix), policy=sub.policy)
    return amrf_allocate(cluster, floors=floors, resource_totals=resource_totals, diagnostics=diag)
