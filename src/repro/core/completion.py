"""Completion-time add-on: optimize job completion times *under* AMF.

AMF pins each job's aggregate ``A_i`` but leaves the split across sites
free; with a static allocation, job ``i`` finishes at
``T_i = max_j w_ij / a_ij``, so the split matters enormously when workload
distributions are skewed.  This module implements the paper's add-on
("an add-on to optimize the job completion times under AMF") as a family of
split optimizers over the *same* aggregate vector:

``stretch`` (default)
    Lexicographically minimize the sorted vector of per-job *stretches*
    ``T_i / (W_i / A_i)`` — minimize the worst slowdown relative to each
    job's ideal time, pin the critical jobs, recurse.  This is the natural
    completion-time analogue of max-min fairness and is robust to
    heterogeneous job sizes.

``makespan``
    Minimize the absolute makespan ``max_i T_i`` only (single round).

``lexicographic``
    Lexicographically minimize absolute completion times (min the makespan,
    pin critical jobs, recurse).

``proportional_split``
    The naive comparator: split ``a_ij ∝ w_ij`` and scale down at
    over-committed sites.  Loses aggregate mass at hot sites, which is
    exactly the behaviour the add-on exists to avoid (ablation T3).

Feasibility of a completion-time target vector reduces to a circulation:
``SRC -> job_i`` pinned to ``[A_i, A_i]``, support edges carrying lower
bounds ``w_ij / T_i`` and caps ``d_ij``, sites capped by ``c_j``
(:func:`repro.flownet.bounded.bounded_flow`), built from the cluster's
support arrays.

The lexicographic engine prunes criticality probes with a *witness*: a job
whose realized completion time at the optimum is already strictly below the
bound is witnessed non-critical, so only boundary jobs pay a probe flow.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL, require
from repro.core.allocation import Allocation, scrub_matrix
from repro.flownet.bounded import bounded_flow
from repro.model.cluster import Cluster

__all__ = ["optimize_completion_times", "proportional_split", "minimal_stretch"]

#: Relative precision of the binary searches on stretch / makespan.
CT_SEARCH_RTOL = 1e-7


# ----------------------------------------------------------------------
# Feasibility of deadline vectors
# ----------------------------------------------------------------------


def _solve_targets(cluster: Cluster, levels: np.ndarray, deadlines: np.ndarray) -> np.ndarray | None:
    """Allocation matrix meeting ``deadlines`` with aggregates ``levels``, or ``None``.

    Jobs with a positive level get ``src -> job_i`` pinned to
    ``[A_i, A_i]`` and one ``[w_ij / T_i, d_ij]`` edge per support site;
    jobs at level 0 have no split to optimize.  A deadline that is locally
    impossible (a lower bound above its edge cap, or lower bounds summing
    past the job's aggregate) is refused without running a flow.
    """
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
    # nodes: src 0, jobs 1..n, sites n+1..n+m, snk n+m+1
    snk = n + m + 1
    sites = np.arange(m)
    flows = bounded_flow(
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


def _ideal_times(cluster: Cluster, levels: np.ndarray) -> np.ndarray:
    """Per-job lower bound ``W_i / A_i`` (inf for unallocated jobs)."""
    total = cluster.workloads.sum(axis=1)
    with np.errstate(divide="ignore"):
        ideal = np.where(levels > ABS_TOL, total / np.maximum(levels, ABS_TOL), np.inf)
    return ideal


# ----------------------------------------------------------------------
# Lexicographic min-max engine over scaled deadlines
# ----------------------------------------------------------------------


def _scaled_lower_bound(cluster: Cluster, levels: np.ndarray, ref: np.ndarray, active: np.ndarray) -> float:
    """Smallest conceivable scale ``t``: per-job aggregate + per-edge cap bounds."""
    W = cluster.workloads
    caps = cluster.demand_caps
    W_tot = W.sum(axis=1)
    lo = 0.0
    for i in np.flatnonzero(active):
        lo = max(lo, (W_tot[i] / levels[i]) / ref[i])
        for j in np.flatnonzero(cluster.support[i]):
            if W[i, j] > 0.0:
                need = np.inf if caps[i, j] <= ABS_TOL else W[i, j] / caps[i, j]
                lo = max(lo, need / ref[i])
    require(
        np.isfinite(lo),
        "a job has positive work at a site with zero demand cap: unbounded completion time",
    )
    return lo


def _minimize_scaled(
    cluster: Cluster,
    levels: np.ndarray,
    fixed_deadlines: np.ndarray,
    active: np.ndarray,
    ref: np.ndarray,
    rtol: float = CT_SEARCH_RTOL,
) -> tuple[float, np.ndarray]:
    """Minimize ``t`` such that active jobs finish by ``t * ref_i`` (others keep fixed deadlines)."""

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
        require(guard <= 80, "no feasible deadline scale found — are the levels feasible?")
        hi *= 2.0
        matrix = _solve_targets(cluster, levels, deadlines(hi))
    best_t, best = hi, matrix
    lo_t = lo
    while best_t - lo_t > rtol * best_t:
        mid = 0.5 * (lo_t + best_t)
        m = _solve_targets(cluster, levels, deadlines(mid))
        if m is None:
            lo_t = mid
        else:
            best_t, best = mid, m
    return best_t, best


def _completion_of(cluster: Cluster, matrix: np.ndarray) -> np.ndarray:
    """Completion times of a raw matrix (inf where a work edge is starved)."""
    W = cluster.workloads
    with np.errstate(divide="ignore", invalid="ignore"):
        per_edge = np.where(W > 0.0, W / np.maximum(matrix, 1e-300), 0.0)
    return per_edge.max(axis=1)


def _lex_engine(
    cluster: Cluster,
    levels: np.ndarray,
    ref: np.ndarray,
    *,
    rounds: int | None = None,
    rtol: float = CT_SEARCH_RTOL,
) -> np.ndarray:
    """Lexicographically minimize sorted ``T_i / ref_i``; ``rounds`` limits stages.

    ``rounds=1`` reduces to plain min-max of the scaled deadline.
    """
    n = cluster.n_jobs
    active = (levels > ABS_TOL) & np.isfinite(ref) & (ref > 0.0)
    fixed_deadlines = np.full(n, np.inf)
    matrix = np.zeros((n, cluster.n_sites))
    stage = 0
    while active.any():
        stage += 1
        require(stage <= n + 2, "lexicographic CT optimization failed to converge")
        t_star, matrix = _minimize_scaled(cluster, levels, fixed_deadlines, active, ref, rtol=rtol)
        if rounds is not None and stage >= rounds:
            fixed_deadlines[active] = t_star * ref[active]
            active[:] = False
            break
        # Witness pruning: jobs already strictly inside the bound in the
        # realized matrix can individually beat t_star, hence non-critical.
        realized = _completion_of(cluster, matrix)
        boundary = active & (realized >= t_star * ref * (1.0 - 1e-4))
        critical = np.zeros(n, dtype=bool)
        probe_scale = 1.0 - 100.0 * CT_SEARCH_RTOL
        for i in np.flatnonzero(boundary):
            d = fixed_deadlines.copy()
            d[active] = t_star * ref[active]
            d[i] = t_star * ref[i] * probe_scale
            if _solve_targets(cluster, levels, d) is None:
                critical[i] = True
        if not critical.any():
            # Degenerate tie (every boundary job can individually improve,
            # but not jointly): pin the whole boundary to guarantee progress.
            critical = boundary if boundary.any() else active.copy()
        fixed_deadlines[critical] = t_star * ref[critical]
        active &= ~critical
    final = _solve_targets(cluster, levels, fixed_deadlines)
    return final if final is not None else matrix


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def minimal_stretch(cluster: Cluster, levels: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest uniform stretch ``sigma`` with a feasible split, and that split.

    Every job with a positive aggregate finishes by ``sigma * W_i / A_i``.
    ``sigma = 1`` means a perfectly proportional split is simultaneously
    feasible for everyone; site contention can force ``sigma > 1``.  (The
    full ``stretch`` mode continues lexicographically below the critical
    jobs; this helper exposes just the first-stage optimum.)
    """
    levels = np.asarray(levels, dtype=float)
    ideal = _ideal_times(cluster, levels)
    active = (levels > ABS_TOL) & np.isfinite(ideal)
    if not active.any():
        return 1.0, np.zeros((cluster.n_jobs, cluster.n_sites))
    fixed = np.full(cluster.n_jobs, np.inf)
    sigma, matrix = _minimize_scaled(cluster, levels, fixed, active, ideal)
    return sigma, matrix


def optimize_completion_times(
    cluster: Cluster,
    levels: np.ndarray,
    mode: str = "stretch",
    *,
    policy_suffix: str = "+ct",
) -> Allocation:
    """Re-split aggregate ``levels`` to optimize static completion times.

    Parameters
    ----------
    cluster, levels:
        The instance and a feasible aggregate vector (typically from
        :func:`repro.core.amf.amf_levels`).
    mode:
        ``"stretch"`` (default), ``"makespan"`` or ``"lexicographic"`` —
        see the module docstring.

    Returns an :class:`~repro.core.allocation.Allocation` with the same
    aggregates (up to flow tolerance) and optimized completion times.
    """
    levels = np.asarray(levels, dtype=float)
    require(levels.shape == (cluster.n_jobs,), "levels must have one entry per job")
    ideal = _ideal_times(cluster, levels)
    if mode == "stretch":
        matrix = _lex_engine(cluster, levels, ideal)
    elif mode == "stretch1":
        # Single min-max-stretch round at a loose search tolerance: much
        # cheaper, used per-event by the dynamic simulator where the
        # allocation is recomputed constantly and 0.1% precision is noise.
        matrix = _lex_engine(cluster, levels, ideal, rounds=1, rtol=1e-3)
    elif mode == "makespan":
        matrix = _lex_engine(cluster, levels, np.ones(cluster.n_jobs), rounds=1)
    elif mode == "lexicographic":
        matrix = _lex_engine(cluster, levels, np.ones(cluster.n_jobs))
    else:
        raise ValueError(f"unknown completion-time mode {mode!r}")
    return Allocation(cluster, matrix, policy=f"amf{policy_suffix}:{mode}")


def proportional_split(cluster: Cluster, levels: np.ndarray) -> Allocation:
    """Naive comparator: ``a_ij ∝ w_ij``, clipped to caps, scaled down at hot sites.

    Unlike the flow-based optimizers this may *under-deliver* aggregates at
    contended sites — it is included to quantify what the add-on buys
    (benchmark T3), not as a real policy.
    """
    levels = np.asarray(levels, dtype=float)
    W = cluster.workloads
    totals = W.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(totals[:, None] > 0, W / np.maximum(totals[:, None], ABS_TOL), 0.0)
    matrix = np.minimum(levels[:, None] * frac, cluster.demand_caps)
    usage = matrix.sum(axis=0)
    over = usage > cluster.capacities
    for j in np.flatnonzero(over):
        matrix[:, j] *= cluster.capacities[j] / usage[j]
    return Allocation(cluster, matrix, policy="amf+proportional")
