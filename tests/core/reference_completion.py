"""The completion-time add-on as it ran before its stages became exact:
a doubling search and a bisection on the stage's scale ``t``, one probe
circulation per boundary job to find the critical ones, and a fallback that
pins the whole boundary when no single probe fails (a degenerate tie).  The
shipped engine (``repro.core.completion``) solves each stage exactly by
Newton steps on circulation cuts; this copy is its differential reference
(tests/core/test_flow_ports.py).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL, require
from repro.core.allocation import scrub_matrix
from repro.core.completion import _ideal_times
from repro.flownet.bounded import bounded_flow
from repro.model.cluster import Cluster

#: Relative precision of the bisections; ``stretch1`` ran at 1e-3.
SEARCH_RTOL = {"stretch": 1e-7, "stretch1": 1e-3, "makespan": 1e-7, "lexicographic": 1e-7}


def _solve_targets(cluster: Cluster, levels: np.ndarray, deadlines: np.ndarray) -> np.ndarray | None:
    """Allocation matrix meeting ``deadlines`` with aggregates ``levels``, or ``None``."""
    n, m = cluster.n_jobs, cluster.n_sites
    served = np.flatnonzero(levels > ABS_TOL)
    rows, cols = np.nonzero(cluster.support)
    keep = levels[rows] > ABS_TOL
    rows, cols = rows[keep], cols[keep]
    work = cluster.workloads[rows, cols]
    caps = cluster.demand_caps[rows, cols]
    due = deadlines[rows]
    timed = np.isfinite(due) & (work > 0.0)
    lower = np.zeros(rows.size)
    lower[timed] = work[timed] / due[timed]
    if bool((lower > caps * (1 + 1e-12) + ABS_TOL).any()):
        return None
    lower = np.minimum(lower, caps)
    lower_sum = np.bincount(rows, weights=lower, minlength=n)[served]
    if bool((lower_sum > levels[served] * (1 + 1e-9) + ABS_TOL).any()):
        return None
    snk = n + m + 1
    sites = np.arange(m)
    flows, _ = bounded_flow(
        n + m + 2,
        np.concatenate([np.zeros(served.size, dtype=np.int64), 1 + rows, 1 + n + sites]),
        np.concatenate([1 + served, 1 + n + cols, np.full(m, snk)]),
        np.concatenate([levels[served], lower, np.zeros(m)]),
        np.concatenate([levels[served], caps, cluster.capacities]),
        0,
        snk,
    )
    if flows is None:
        return None
    matrix = np.zeros((n, m))
    matrix[rows, cols] = flows[served.size : served.size + rows.size]
    return scrub_matrix(cluster, matrix)


def _scaled_lower_bound(cluster: Cluster, levels: np.ndarray, ref: np.ndarray, active: np.ndarray) -> float:
    W, caps = cluster.workloads, cluster.demand_caps
    W_tot = W.sum(axis=1)
    lo = 0.0
    for i in np.flatnonzero(active):
        lo = max(lo, (W_tot[i] / levels[i]) / ref[i])
        for j in np.flatnonzero(cluster.support[i]):
            need = np.inf if caps[i, j] <= ABS_TOL else W[i, j] / caps[i, j]
            lo = max(lo, need / ref[i])
    require(np.isfinite(lo), "unbounded completion time")
    return lo


def _minimize_scaled(cluster, levels, fixed_deadlines, active, ref, rtol):
    def deadlines(t: float) -> np.ndarray:
        d = fixed_deadlines.copy()
        d[active] = t * ref[active]
        return d

    lo = _scaled_lower_bound(cluster, levels, ref, active)
    hi = max(lo, 1.0)
    matrix = _solve_targets(cluster, levels, deadlines(hi))
    guard = 0
    while matrix is None:
        guard += 1
        require(guard <= 80, "no feasible deadline scale found")
        hi *= 2.0
        matrix = _solve_targets(cluster, levels, deadlines(hi))
    best_t, best = hi, matrix
    while best_t - lo > rtol * best_t:
        mid = 0.5 * (lo + best_t)
        got = _solve_targets(cluster, levels, deadlines(mid))
        if got is None:
            lo = mid
        else:
            best_t, best = mid, got
    return best_t, best


def _completion_of(cluster: Cluster, matrix: np.ndarray) -> np.ndarray:
    W = cluster.workloads
    with np.errstate(divide="ignore", invalid="ignore"):
        per_edge = np.where(W > 0.0, W / np.maximum(matrix, 1e-300), 0.0)
    return per_edge.max(axis=1)


def bisection_completion(cluster: Cluster, levels: np.ndarray, mode: str) -> tuple[np.ndarray, bool]:
    """``(matrix, tied)``: the split ``optimize_completion_times(mode)`` used
    to return, and whether any stage fell back to pinning its whole boundary."""
    rtol = SEARCH_RTOL[mode]
    ref = _ideal_times(cluster, levels) if mode.startswith("stretch") else np.ones(cluster.n_jobs)
    rounds = None if mode in ("stretch", "lexicographic") else 1
    n = cluster.n_jobs
    active = (levels > ABS_TOL) & np.isfinite(ref) & (ref > 0.0)
    fixed = np.full(n, np.inf)
    matrix = np.zeros((n, cluster.n_sites))
    stage, tied = 0, False
    while active.any():
        stage += 1
        t_star, matrix = _minimize_scaled(cluster, levels, fixed, active, ref, rtol)
        if rounds is not None and stage >= rounds:
            fixed[active] = t_star * ref[active]
            break
        # witness pruning: a job strictly inside the bound is not critical
        realized = _completion_of(cluster, matrix)
        boundary = active & (realized >= t_star * ref * (1.0 - 1e-4))
        critical = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(boundary):
            d = fixed.copy()
            d[active] = t_star * ref[active]
            d[i] = t_star * ref[i] * (1.0 - 1e-5)  # the probe step, 100x the bisection's 1e-7
            critical[i] = _solve_targets(cluster, levels, d) is None
        if not critical.any():
            tied = True
            critical = boundary if boundary.any() else active.copy()
        fixed[critical] = t_star * ref[critical]
        active &= ~critical
    final = _solve_targets(cluster, levels, fixed)
    return (final if final is not None else matrix), tied
