"""Production AMRF engine: progressive filling over resource vectors.

This is the multi-resource solver behind :func:`repro.core.amf.solve_amf`
when a :class:`~repro.model.cluster.Cluster` carries non-canonical resource
vectors — the only multi-resource path in ``src/`` (the λ-bisection it
replaced lives on as the test oracle ``tests/multiresource/oracle.py``):

* **exact scalar routing** — when a single resource exists (R=1) or one
  resource *dominates* every job at every site, the instance is an exact
  change of variables away from the scalar flow problem; it is handed to
  the scalar flow fast path and mapped back (:func:`scalar_reduction`).
* **progressive filling with one max-``t`` LP per round** — instead of a
  λ-bisection (tens of LPs) per bottleneck, one LP maximizes the common
  weighted share ``t`` directly; its optimal vertex both locates the
  bottleneck level *and* witnesses which jobs are provably unblocked, so
  their per-job freezing probes are skipped.

The engine is stateless.  Repeated states are answered above it by the
service's fingerprint-keyed caches (``AllocationCache`` and
``IncrementalAmfSolver``'s shard matrices); component sharding is
:func:`repro.core.sharding.solve_amf_sharded` as for scalar clusters —
dominant-share denominators are federation-wide constants, so each
component's leximin is independent given ``resource_totals``.

Fairness-property status (see ``docs/multiresource.md``): Pareto
efficiency and envy-freeness hold as in DRF; sharing incentive holds
against the equal dominant-share partition; AMF-E floors generalize as
aggregate task-rate floors (converted to share floors internally).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro._util import require
from repro.core.allocation import Allocation, scrub_matrix
from repro.core.amf import AmfDiagnostics, CutBasis, _observed_solve
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site

__all__ = [
    "scalar_reduction",
    "amrf_allocate",
    "solve_multiresource",
]

_TOL = 1e-9
_FREEZE_TOL = 1e-7


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
class _EngineLP:
    """LP scaffolding over support task-rate variables plus the fill level ``t``.

    Variables are the ``n_e`` support edge rates ``x_e`` followed by one
    ``t`` variable (bounded to 0 when unused).  The site-resource capacity
    rows are one dense block shared by every LP of a solve; each LP adds
    its own share rows below it.
    """

    def __init__(self, cluster: Cluster, dom: np.ndarray):
        self.cluster = cluster
        caps = cluster.demand_caps
        self.edges = [
            (i, j)
            for i in range(cluster.n_jobs)
            for j in range(cluster.n_sites)
            if caps[i, j] > 0.0
        ]
        self.n_e = len(self.edges)
        self.bounds = [(0.0, float(caps[i, j])) for (i, j) in self.edges]
        J = cluster.job_resource_matrix
        names = cluster.resource_names
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        for j in range(cluster.n_sites):
            for r in range(len(names)):
                row = np.zeros(self.n_e)
                for e, (i, je) in enumerate(self.edges):
                    if je == j:
                        row[e] = J[i, r]
                if row.any():
                    rows.append(row)
                    rhs.append(float(cluster.site_resource_matrix[j, r]))
        cap_rows = np.array(rows) if rows else np.zeros((0, self.n_e))
        self.cap_block = np.hstack([cap_rows, np.zeros((len(rows), 1))])  # t column
        self.cap_rhs = np.array(rhs)
        self.share_rows = np.zeros((cluster.n_jobs, self.n_e))
        for e, (i, _j) in enumerate(self.edges):
            self.share_rows[i, e] = dom[i]
        upper = np.array([b[1] for b in self.bounds], dtype=float)
        self.share_caps = self.share_rows @ upper if self.n_e else np.zeros(cluster.n_jobs)

    def shares_of(self, x: np.ndarray) -> np.ndarray:
        return self.share_rows @ x[: self.n_e]

    def rates_from(self, x: np.ndarray) -> np.ndarray:
        rates = np.zeros((self.cluster.n_jobs, self.cluster.n_sites))
        for e, (i, j) in enumerate(self.edges):
            # HiGHS honors bounds only to its own tolerance; the model's
            # lower bound of 0 is exact, so clamping loses nothing.
            rates[i, j] = max(0.0, x[e])
        return rates

    def solve(
        self,
        c: np.ndarray,
        extra_rows: np.ndarray,
        extra_rhs: np.ndarray,
        *,
        t_max: float | None,
        diag: AmfDiagnostics,
    ):
        """One LP over the capacity block plus ``extra_rows``; returns the scipy result.

        ``c``/``extra_rows`` span ``n_e + 1`` variables (``t`` last).
        """
        # Imported here, not at module level: the perf ledger's tracer
        # patches ``scipy.optimize.linprog`` by name.
        from scipy.optimize import linprog

        diag.amrf_lps += 1
        A_ub = np.vstack([self.cap_block, extra_rows])
        b_ub = np.concatenate([self.cap_rhs, extra_rhs])
        return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[*self.bounds, (0.0, t_max)], method="highs")


def _amrf_fill(
    cluster: Cluster,
    lp: _EngineLP,
    share_floors: np.ndarray,
    diag: AmfDiagnostics,
) -> np.ndarray:
    """Progressive filling over weighted dominant shares; returns shares."""
    n = cluster.n_jobs
    weights = cluster.weights
    frozen = np.zeros(n, dtype=bool)
    shares = np.zeros(n)
    share_caps = lp.share_caps
    # Jobs with no usable edges can only sit at their floor (0).
    for i in range(n):
        if share_caps[i] <= 0.0:
            frozen[i] = True
            shares[i] = 0.0

    def extra_for(active_t: bool, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows enforcing ``s_i >= targets_i`` (+ ``s_i >= w_i t`` when filling)."""
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        for i in range(n):
            if targets[i] > 0.0:
                rows.append(np.append(-lp.share_rows[i], 0.0))
                rhs.append(-float(targets[i]))
            if active_t and not frozen[i]:
                rows.append(np.append(-lp.share_rows[i], float(weights[i])))
                rhs.append(0.0)
        if not rows:
            return np.zeros((0, lp.n_e + 1)), np.zeros(0)
        return np.array(rows), np.array(rhs)

    floors_targets = np.where(frozen, shares, share_floors)
    c_t = np.zeros(lp.n_e + 1)
    c_t[-1] = -1.0
    for _round in range(n + 1):
        if frozen.all():
            break
        diag.amrf_rounds += 1
        targets = np.where(frozen, shares, share_floors)
        rows, rhs = extra_for(True, targets)
        res = lp.solve(c_t, rows, rhs, t_max=None, diag=diag)
        if not res.success:
            raise ValueError("AMRF floors are infeasible for this cluster")
        t_star = float(res.x[-1])
        witness = lp.shares_of(res.x)
        newly: list[int] = []
        candidates: list[int] = []
        for i in np.flatnonzero(~frozen):
            target = max(weights[i] * t_star, share_floors[i])
            scale = max(1.0, target)
            if share_caps[i] <= target + _FREEZE_TOL * scale:
                # cap-saturated: x <= caps bounds force s_i <= share_caps[i],
                # so w_i * t_star <= share_caps[i] and the witness proves
                # freezing at the target is feasible.
                shares[i] = target
                frozen[i] = True
                newly.append(int(i))
            elif witness[i] > target + _FREEZE_TOL * scale:
                # the max-t vertex itself witnesses headroom — no probe
                diag.amrf_probes_skipped += 1
            else:
                candidates.append(int(i))
        probed: list[tuple[float, int, float]] = []
        for i in candidates:
            target = max(weights[i] * t_star, share_floors[i])
            diag.amrf_probes += 1
            hold = np.where(frozen, shares, np.maximum(weights * t_star, share_floors))
            hold[i] = share_floors[i]
            rows, rhs = extra_for(False, hold)
            c_probe = np.append(-lp.share_rows[i], 0.0)
            res_i = lp.solve(c_probe, rows, rhs, t_max=0.0, diag=diag)
            best = -float(res_i.fun) if res_i.success else target
            probed.append((best - target, i, target))
            if best <= target + _FREEZE_TOL * max(1.0, target):
                shares[i] = target
                frozen[i] = True
                newly.append(i)
        if not newly:
            # Numeric safety: progressive filling must freeze someone each
            # round; take the tightest probed job (or the slackest-witness
            # active job when every probe was skipped).
            if probed:
                _slack, i, target = min(probed)
            else:
                act = np.flatnonzero(~frozen)
                i = int(act[np.argmin(witness[act] - weights[act] * t_star)])
                target = max(weights[i] * t_star, share_floors[i])
            shares[int(i)] = target
            frozen[int(i)] = True
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
    with _observed_solve("amrf", cluster, diag):
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
        rows_list: list[np.ndarray] = []
        rhs_list: list[float] = []
        for i in range(cluster.n_jobs):
            if shares[i] > 0.0:
                rows_list.append(np.append(-lp.share_rows[i], 0.0))
                rhs_list.append(-float(shares[i] * (1.0 - 1e-9)))
        extra_rows = np.array(rows_list) if rows_list else np.zeros((0, lp.n_e + 1))
        extra_rhs = np.array(rhs_list) if rhs_list else np.zeros(0)
        c_real = np.append(-np.ones(lp.n_e), 0.0)
        res = lp.solve(c_real, extra_rows, extra_rhs, t_max=0.0, diag=diag)
        require(res.success, "AMRF shares could not be realized (numeric breakdown)")
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
    """Route a multi-resource solve: exact scalar fast path, else the engine.

    Called by :func:`repro.core.amf.solve_amf` when
    ``cluster.is_multiresource`` and per shard by :mod:`repro.core.sharding`
    (with the federation-wide ``resource_totals``).  The reduction (R=1 or
    a globally dominant resource) reuses the scalar machinery — the
    parametric oracle and ``basis`` — bit-identically in the reduced
    variables; everything else goes to :func:`amrf_allocate`.
    """
    diag = diagnostics if diagnostics is not None else AmfDiagnostics()
    red = scalar_reduction(cluster, resource_totals)
    if red is not None:
        from repro.core.amf import solve_amf

        scalar, k = red
        scaled_floors = None
        if floors is not None:
            scaled_floors = np.asarray(floors, dtype=float) * k
        sub = solve_amf(scalar, scaled_floors, diag, basis)
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
