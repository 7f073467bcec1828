"""AMRF bisection oracle: the independent referee for the production engine.

This is the extension study's original solver, kept out of ``src/`` as the
slow-but-trustworthy cross-check of :mod:`repro.multiresource.engine` (it
shares no code with it beyond the :class:`~repro.model.cluster.Cluster`
views).  Max-min fairness over each job's **aggregate dominant share**
``s_i = (Σ_j x_ij) * max_r r_ir / C_r``.  Unlike the single-resource case,
the feasible region of share vectors is a general polytope (per-site,
per-resource linear constraints), not a flow polytope, so feasibility is
decided by an LP (``scipy.optimize.linprog``) and progressive filling uses
bisection with per-job freezing probes — the same trustworthy-but-slow
architecture as :mod:`repro.core.reference`.  Intended scale: tens of
jobs.

:func:`probe_fill_shares` is the second referee: the engine's own
round structure (one max-``t`` LP per round) with the freeze decision the
engine used to make — one max-share probe LP per candidate job.  The
engine now reads that decision off the round LP's duals and one aggregate
headroom LP; this asks every job one by one, so it referees the *decision*
at 1e-9 where the bisection can only referee the shares at its own 1e-5.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro._util import require
from repro.model.cluster import Cluster

__all__ = ["amrf_shares", "solve_amrf", "probe_fill_shares", "check_rates"]


class _RateLP:
    """LP scaffolding over the support task-rate variables ``x_ij``."""

    def __init__(self, cluster: Cluster, resource_totals=None):
        self.cluster = cluster
        caps = cluster.demand_caps
        self.edges = [(i, j) for i in range(cluster.n_jobs) for j in range(cluster.n_sites) if caps[i, j] > 0]
        self.bounds = [(0.0, float(caps[i, j])) for (i, j) in self.edges]
        n_e = len(self.edges)
        # site-resource capacity rows
        rows = []
        rhs = []
        for j in range(cluster.n_sites):
            for r in range(len(cluster.resource_names)):
                row = np.zeros(n_e)
                for e, (i, je) in enumerate(self.edges):
                    if je == j:
                        row[e] = cluster.job_resource_matrix[i, r]
                if row.any():
                    rows.append(row)
                    rhs.append(cluster.site_resource_matrix[j, r])
        self.cap_rows = np.array(rows) if rows else np.zeros((0, n_e))
        self.cap_rhs = np.array(rhs)
        # per-job aggregate dominant-share rows
        dom = cluster.dominant_factor(resource_totals)
        self.share_rows = np.zeros((cluster.n_jobs, n_e))
        for e, (i, j) in enumerate(self.edges):
            self.share_rows[i, e] = dom[i]

    def solve(self, share_floor: np.ndarray, objective: np.ndarray | None = None):
        A_ub = np.vstack([self.cap_rows, -self.share_rows])
        b_ub = np.concatenate([self.cap_rhs, -np.asarray(share_floor, dtype=float)])
        c = np.zeros(len(self.edges)) if objective is None else objective
        return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=self.bounds, method="highs")

    def max_share_of(self, i: int, share_floor: np.ndarray):
        return self.solve(share_floor, objective=-self.share_rows[i])

    def max_level(self, share_floor: np.ndarray, fill_weights: np.ndarray):
        """Maximise ``t`` (the last variable) with ``s >= share_floor`` and
        ``s_i >= fill_weights_i * t`` on the rows where the weight is positive."""
        n, n_e = self.share_rows.shape
        fill = np.flatnonzero(fill_weights > 0)
        A_ub = np.vstack(
            [
                np.hstack([self.cap_rows, np.zeros((len(self.cap_rows), 1))]),
                np.hstack([-self.share_rows, np.zeros((n, 1))]),
                np.hstack([-self.share_rows[fill], fill_weights[fill, None]]),
            ]
        )
        b_ub = np.concatenate([self.cap_rhs, -np.asarray(share_floor, dtype=float), np.zeros(fill.size)])
        c = np.zeros(n_e + 1)
        c[-1] = -1.0
        return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[*self.bounds, (0.0, None)], method="highs")

    def rates_from(self, x: np.ndarray) -> np.ndarray:
        rates = np.zeros((self.cluster.n_jobs, self.cluster.n_sites))
        for e, (i, j) in enumerate(self.edges):
            rates[i, j] = x[e]
        return rates


def _share_caps(cluster: Cluster) -> np.ndarray:
    """Per-job upper bound on the aggregate dominant share (task caps alone)."""
    return cluster.aggregate_demand * cluster.dominant_factor()


def amrf_shares(cluster: Cluster, tol: float = 1e-9) -> np.ndarray:
    """The AMRF aggregate dominant-share vector (weighted max-min fair)."""
    n = cluster.n_jobs
    if n == 0:
        return np.zeros(0)
    lp = _RateLP(cluster)
    caps = _share_caps(cluster)
    weights = cluster.weights
    frozen = np.zeros(n, dtype=bool)
    shares = np.zeros(n)

    def floor_at(t: float) -> np.ndarray:
        req = np.minimum(t * weights, caps)
        req[frozen] = shares[frozen]
        return req

    t_lo = 0.0
    for _stage in range(n + 1):
        if frozen.all():
            break
        hi = float(np.max(caps[~frozen] / weights[~frozen], initial=0.0)) + 1.0
        if lp.solve(floor_at(hi)).success:
            shares[~frozen] = np.minimum(hi * weights, caps)[~frozen]
            break
        lo = t_lo
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if lp.solve(floor_at(mid)).success:
                lo = mid
            else:
                hi = mid
        req = floor_at(lo)
        probe_tol = max(1e-7, 100.0 * tol)
        newly = []
        for i in np.flatnonzero(~frozen):
            res = lp.max_share_of(i, req)
            if not res.success:
                # At the bottleneck the floors pin a degenerate corner whose
                # feasible sliver can fall below HiGHS' tolerance, making a
                # feasible probe report infeasible (and the job freeze too
                # early, below its true max-min share).  Relaxing the floors
                # a hair re-opens the sliver without moving the verdict.
                res = lp.max_share_of(i, req * (1.0 - 1e-7))
            best = -res.fun if res.success else req[i]
            if best <= req[i] + probe_tol * max(1.0, req[i]):
                newly.append(i)
        if not newly:
            newly = [int(np.flatnonzero(~frozen)[0])]
        for i in newly:
            shares[i] = req[i]
            frozen[i] = True
        t_lo = lo
    return shares


def probe_fill_shares(
    cluster: Cluster,
    floors: np.ndarray | None = None,
    resource_totals=None,
    *,
    tol: float = 1e-7,
) -> tuple[np.ndarray, int]:
    """Progressive filling that asks every job whether it can still rise.

    Each round one LP maximises the common weighted level ``t`` of the
    active jobs (frozen jobs held at their shares, active ones at their
    floors); then, for every active job not already at its task-cap share,
    one probe LP maximises that job's share with everyone else held at
    their round target ``max(w_k t, floor_k)``.  No headroom means frozen.
    ``floors`` are aggregate task-rate floors as in ``amrf_allocate``.
    Returns ``(shares, rounds)``.
    """
    n = cluster.n_jobs
    lp = _RateLP(cluster, resource_totals)
    weights = cluster.weights
    share_caps = lp.share_rows @ np.array([hi for _lo, hi in lp.bounds])
    share_floors = np.zeros(n)
    if floors is not None:
        dom = cluster.dominant_factor(resource_totals)
        share_floors = np.minimum(dom * np.asarray(floors, dtype=float), share_caps)
    frozen = share_caps <= 0.0
    shares = np.zeros(n)
    rounds = 0
    while not frozen.all():
        rounds += 1
        require(rounds <= n, "probe fill failed to converge")
        res = lp.max_level(np.where(frozen, shares, share_floors), np.where(frozen, 0.0, weights))
        if not res.success:
            raise ValueError("floors are infeasible for this cluster")
        target = np.maximum(weights * res.x[-1], share_floors)
        slack = tol * np.maximum(1.0, target)
        held = np.where(frozen, shares, target)
        headroom = np.full(n, np.inf)
        for i in np.flatnonzero(~frozen):
            if share_caps[i] <= target[i] + slack[i]:
                headroom[i] = 0.0
                continue
            req = held.copy()
            req[i] = share_floors[i]
            res_i = lp.max_share_of(i, req)
            headroom[i] = -res_i.fun - target[i] if res_i.success else 0.0
        newly = headroom <= slack
        if not newly.any():
            newly[np.argmin(headroom)] = True
        shares[newly] = target[newly]
        frozen |= newly
    return shares, rounds


def solve_amrf(cluster: Cluster, tol: float = 1e-9) -> np.ndarray:
    """``(n, m)`` task rates realizing the AMRF shares (one feasible witness)."""
    shares = amrf_shares(cluster, tol=tol)
    lp = _RateLP(cluster)
    res = lp.solve(shares * (1.0 - 1e-9))
    require(res.success, "AMRF shares could not be realized (numeric breakdown)")
    rates = lp.rates_from(res.x)
    check_rates(cluster, rates)
    return rates


def check_rates(cluster: Cluster, rates: np.ndarray, *, tol: float = 1e-7) -> None:
    """Assert an ``(n, m)`` task-rate matrix respects caps and capacities.

    Looser than :class:`~repro.core.allocation.Allocation`'s invariants on
    purpose: HiGHS honors rows only to its own feasibility tolerance, and
    the oracle returns the raw LP vertex unscrubbed.
    """
    caps = cluster.demand_caps
    capacity = cluster.site_resource_matrix
    assert rates.shape == caps.shape, "rate matrix shape mismatch"
    assert float(rates.min(initial=0.0)) >= -tol, "rates must be non-negative"
    assert float((rates - caps).max(initial=0.0)) <= tol * max(1.0, float(caps.max(initial=1.0))), (
        "task cap violated"
    )
    usage = np.einsum("ij,ir->jr", rates, cluster.job_resource_matrix)
    assert float((usage - capacity).max(initial=0.0)) <= tol * max(1.0, float(capacity.max())), (
        "site resource capacity violated"
    )
