"""The LP oracle: max-min fair aggregates from ``scipy.optimize.linprog`` alone.

The one referee every solver in ``src/`` is checked against, for scalar,
weighted, floored and resource-vector clusters.  It shares no code with
:mod:`repro.core.amf`, :mod:`repro.flownet` or
:mod:`repro.multiresource.engine` beyond the
:class:`~repro.model.cluster.Cluster` views: feasibility is an LP over the
raw task-rate variables ``x_ij``, each round's level is the optimum of one
max-``t`` LP (no search), and every active job is asked, by its own LP,
whether it can still rise.

Shares are aggregate dominant shares ``s_i = (sum_j x_ij) * max_r r_ir / C_r``.
On a scalar cluster every job has the same factor ``1 / C``, so the max-min
fair levels are ``shares / cluster.dominant_factor()``.

An LP that does not solve is an error, never an answer: reading a failed
probe as "cannot rise" freezes the job early and under-fills, which is how
the bisection oracles this module replaced went wrong on demand-capped
clusters.  Intended scale: tens of jobs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.model.cluster import Cluster

__all__ = ["OracleError", "probe_fill_shares", "lp_feasible", "check_rates"]


class OracleError(RuntimeError):
    """An LP the oracle relies on did not solve, so it has no answer to give."""


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

    Raises ``ValueError("floors are infeasible")`` when the first round's
    LP is infeasible, and :class:`OracleError` naming the round, the job
    and the HiGHS status when any other LP fails.
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
        if rounds > n:
            raise OracleError(f"probe fill failed to converge in {n} rounds")
        res = lp.max_level(np.where(frozen, shares, share_floors), np.where(frozen, 0.0, weights))
        if not res.success:
            if rounds == 1 and res.status == 2:
                raise ValueError("floors are infeasible")
            raise OracleError(f"round {rounds}: max-level LP failed (HiGHS status {res.status}: {res.message})")
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
            if not res_i.success:
                raise OracleError(
                    f"round {rounds}: probe LP for job {i} failed (HiGHS status {res_i.status}: {res_i.message})"
                )
            headroom[i] = -res_i.fun - target[i]
        newly = headroom <= slack
        if not newly.any():
            newly[np.argmin(headroom)] = True
        shares[newly] = target[newly]
        frozen |= newly
    return shares, rounds


def lp_feasible(cluster: Cluster, aggregates: np.ndarray) -> bool:
    """Do aggregate lower bounds ``aggregates`` admit a feasible allocation?"""
    return bool(_RateLP(cluster).solve(cluster.dominant_factor() * aggregates).success)


def check_rates(cluster: Cluster, rates: np.ndarray, *, tol: float = 1e-7) -> None:
    """Assert an ``(n, m)`` task-rate matrix respects caps and capacities.

    Looser than :class:`~repro.core.allocation.Allocation`'s invariants on
    purpose: HiGHS honors rows only to its own feasibility tolerance.
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
