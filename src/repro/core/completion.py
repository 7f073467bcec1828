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

``stretch1``
    The first stage of ``stretch`` only, solved exactly: the smallest
    common stretch and a split that meets it, without the recursion below
    the critical jobs.  The dynamic simulator re-solves at every event, so
    ``amf-ct-quick`` runs this mode.

``makespan``
    Minimize the absolute makespan ``max_i T_i`` only (single stage).

``lexicographic``
    Lexicographically minimize absolute completion times (min the makespan,
    pin critical jobs, recurse).

``proportional_split``
    The naive comparator: split ``a_ij ∝ w_ij`` and scale down at
    over-committed sites.  Loses aggregate mass at hot sites, which is
    exactly the behaviour the add-on exists to avoid (ablation T3).

Feasibility of a deadline vector is a bounded circulation: ``SRC -> job_i``
pinned to ``[A_i, A_i]``, support edges carrying lower bounds
``w_ij / T_i`` and caps ``d_ij``, sites capped by ``c_j``
(:func:`repro.flownet.bounded.bounded_flow`).  A stage asks every active job
to finish by ``t * ref_i``; with ``λ = 1 / t`` its lower bounds
``λ * w_ij / ref_i`` are linear in ``λ``, so by Hoffman's condition every
node set ``X`` is one affine constraint ``a_X - λ b_X >= 0``.  The stage
runs discrete Newton (Dinkelbach) on those cuts: start at the local bound
``t_0``; while the circulation is infeasible, jump to the root ``a_X / b_X``
of the violated cut it returns.  ``t`` rises strictly and lands on the
stage optimum exactly.  The active jobs with an edge into the last violated
cut are critical (raising any one alone re-violates it) and are pinned; if
``t_0`` was already feasible, the jobs attaining it are.  A violated cut
that is tight at zero lower bounds starves its entering edges in every
split with these aggregates: those jobs are pinned at ``T_i = inf``.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL, feq, fle, require
from repro.core.allocation import Allocation, scrub_matrix
from repro.flownet.bounded import bounded_flow
from repro.model.cluster import Cluster

__all__ = ["optimize_completion_times", "proportional_split", "minimal_stretch"]


def _checked_levels(cluster: Cluster, levels: np.ndarray) -> np.ndarray:
    levels = np.asarray(levels, dtype=float)
    require(levels.shape == (cluster.n_jobs,), "levels must have one entry per job")
    require(bool((np.isfinite(levels) & (levels >= 0.0)).all()), "levels must be finite and non-negative")
    return levels


def _ideal_times(cluster: Cluster, levels: np.ndarray) -> np.ndarray:
    """Per-job lower bound ``W_i / A_i`` (inf for unallocated jobs)."""
    total = cluster.workloads.sum(axis=1)
    with np.errstate(divide="ignore"):
        ideal = np.where(levels > ABS_TOL, total / np.maximum(levels, ABS_TOL), np.inf)
    return ideal


# ----------------------------------------------------------------------
# Lexicographic min-max engine over scaled deadlines
# ----------------------------------------------------------------------


def _lex_engine(
    cluster: Cluster, levels: np.ndarray, ref: np.ndarray, *, rounds: int | None = None
) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Lexicographically minimize sorted ``T_i / ref_i``; ``rounds`` limits stages.

    Returns the last stage's split and the pins in order: ``(t, jobs)``
    per stage, and ``(inf, jobs)`` for jobs found starved.
    """
    n, m = cluster.n_jobs, cluster.n_sites
    served = np.flatnonzero(levels > 0.0)
    rows, cols = np.nonzero(cluster.support & (levels > 0.0)[:, None])
    work = cluster.workloads[rows, cols]
    caps = cluster.demand_caps[rows, cols]
    # nodes: src 0, jobs 1..n, sites n+1..n+m, snk n+m+1
    snk = n + m + 1
    tails = np.concatenate([np.zeros(served.size, dtype=np.int64), 1 + rows, 1 + n + np.arange(m)])
    heads = np.concatenate([1 + served, 1 + n + cols, np.full(m, snk)])
    upper = np.concatenate([levels[served], caps, cluster.capacities])
    scale = max(1.0, float(tails.size))
    on_work = slice(served.size, served.size + rows.size)

    active = (levels > ABS_TOL) & np.isfinite(ref) & (ref > 0.0)
    rate = work / np.where(active, ref, 1.0)[rows]
    # local bound on t: a job cannot beat W_i / A_i, nor w_ij / d_ij at any edge
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(active, cluster.workloads.sum(axis=1) / levels, 0.0)
        np.maximum.at(bound, rows, work / caps)
        bound = np.where(active, bound / ref, 0.0)
    const = np.concatenate([levels[served], np.zeros(rows.size + m)])  # lower bounds pinned so far
    stages: list[tuple[float, np.ndarray]] = []
    starved = active & np.isinf(bound)  # a zero demand cap on a work edge
    if starved.any():
        stages.append((np.inf, starved))
        active &= ~starved

    flows, lam, rounds_done = None, None, 0
    while True:
        if lam is None:  # a stage starts at the local bound
            if not active.any() or rounds_done == rounds:
                break
            t0 = bound[active].max()
            lam, tight = 1.0 / t0, active & (bound >= t0)
        coef = np.where(active[rows], rate, 0.0)
        lower = const.copy()
        lower[on_work] = np.minimum(const[on_work] + lam * coef, caps)
        flows, cut = bounded_flow(snk + 1, tails, heads, lower, upper, 0, snk)
        if flows is not None:
            stages.append((1.0 / lam, tight))
            const[on_work] = np.where(tight[rows], lower[on_work], const[on_work])
            active &= ~tight
            lam, rounds_done = None, rounds_done + 1
            continue
        entering = ~cut[tails] & cut[heads]
        upper_out = float(upper[cut[tails] & ~cut[heads]].sum())
        const_in = float(const[entering].sum())
        slope = float(coef[entering[on_work]].sum())
        require(slope > 0.0 and fle(const_in, upper_out, scale=scale), "the levels are not feasible")
        hit = active & (np.bincount(rows[entering[on_work]], minlength=n) > 0)
        if feq(upper_out, const_in, scale=scale):  # tight at zero lower bounds: starved
            stages.append((np.inf, hit))
            active &= ~hit
            lam = None
            continue
        step = (upper_out - const_in) / slope
        require(step < lam, "the stage search stalled")
        lam, tight = step, hit
    if flows is None:  # no job was active, or the last ones starved
        flows, _ = bounded_flow(snk + 1, tails, heads, const, upper, 0, snk)
    matrix = np.zeros((n, m))
    matrix[rows, cols] = flows[on_work]
    return scrub_matrix(cluster, matrix), stages


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def minimal_stretch(cluster: Cluster, levels: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest uniform stretch ``sigma`` with a feasible split, and that split.

    Every job with a positive aggregate finishes by ``sigma * W_i / A_i``,
    except a job whose aggregates starve one of its work edges in every
    split (its stretch is ``inf``).  ``sigma = 1`` means a perfectly
    proportional split is simultaneously feasible for everyone; site
    contention can force ``sigma > 1``.  (The full ``stretch`` mode
    continues lexicographically below the critical jobs; this helper
    exposes just the first-stage optimum.)
    """
    levels = _checked_levels(cluster, levels)
    matrix, stages = _lex_engine(cluster, levels, _ideal_times(cluster, levels), rounds=1)
    return next((t for t, _ in stages if np.isfinite(t)), 1.0), matrix


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
        ``"stretch"`` (default), ``"stretch1"``, ``"makespan"`` or
        ``"lexicographic"`` — see the module docstring.

    Returns an :class:`~repro.core.allocation.Allocation` with the same
    aggregates and optimized completion times.
    """
    levels = _checked_levels(cluster, levels)
    ideal = _ideal_times(cluster, levels)
    ones = np.ones(cluster.n_jobs)
    engines = {
        "stretch": (ideal, None),
        "stretch1": (ideal, 1),
        "makespan": (ones, 1),
        "lexicographic": (ones, None),
    }
    require(mode in engines, f"unknown completion-time mode {mode!r}")
    ref, rounds = engines[mode]
    matrix, _ = _lex_engine(cluster, levels, ref, rounds=rounds)
    return Allocation(cluster, matrix, policy=f"amf{policy_suffix}:{mode}")


def proportional_split(cluster: Cluster, levels: np.ndarray) -> Allocation:
    """Naive comparator: ``a_ij ∝ w_ij``, clipped to caps, scaled down at hot sites.

    Unlike the flow-based optimizers this may *under-deliver* aggregates at
    contended sites — it is included to quantify what the add-on buys
    (benchmark T3), not as a real policy.
    """
    levels = _checked_levels(cluster, levels)
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
