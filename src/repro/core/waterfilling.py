"""Single-resource weighted max-min fairness (water-filling).

The classic building block: divide one capacity among agents with demand
caps so that the capped-share vector is max-min fair.  Exact (closed-form
per round, no search): sort agents by ``cap / weight`` and peel off the ones
that saturate below the common level.

:func:`water_fill` is the per-site max-min split of PSMF
(:mod:`repro.core.persite`) and the single-pool bound of
:mod:`repro.core.bounds`; :func:`solve_capped_level`, the piecewise-linear
"solve for the level" primitive, sets each resource's level in per-site
DRF (:mod:`repro.multiresource.persite`).  The AMF solver does not use
either: its levels come from ``repro.core.amf`` (``_RoundPool``,
``_max_levels``).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_float_array, require


def water_fill(
    capacity: float,
    caps: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Max-min fair split of ``capacity`` under ``caps`` and ``weights``.

    Returns the allocation vector ``a`` with ``a_i = min(level * w_i, cap_i)``
    where ``level`` is the water level: the unique value making
    ``sum(a) = min(capacity, sum(caps))``.

    Parameters
    ----------
    capacity:
        Non-negative amount to divide.
    caps:
        Per-agent demand caps (non-negative; ``inf`` allowed, meaning the
        agent can absorb anything).
    weights:
        Optional positive fairness weights (default: all ones).  The
        max-min ordering is on ``a_i / w_i``.
    """
    require(capacity >= 0.0, f"capacity must be non-negative, got {capacity}")
    caps = np.asarray(caps, dtype=float)
    require(caps.ndim == 1, "caps must be a vector")
    require(not bool(np.isnan(caps).any()), "caps must not contain NaN")
    require(float(np.where(np.isinf(caps), 0.0, caps).min(initial=0.0)) >= 0.0, "caps must be non-negative")
    n = caps.size
    if n == 0:
        return np.zeros(0)
    if weights is None:
        weights = np.ones(n)
    else:
        weights = as_float_array(weights, "weights")
        require(weights.shape == caps.shape, "weights shape mismatch")
        require(float(weights.min()) > 0.0, "weights must be positive")
    level = fill_level(capacity, caps, weights)
    return np.minimum(level * weights, caps)


def fill_level(capacity: float, caps: np.ndarray, weights: np.ndarray) -> float:
    """The water level ``level`` such that ``sum(min(level * w, cap)) = min(capacity, sum(caps))``.

    When every agent saturates below ``capacity`` the level is ``inf``
    conceptually; we return the largest finite level actually needed
    (``max(cap / w)``), which yields the same allocation.
    """
    total_cap = float(np.where(np.isinf(caps), np.inf, caps).sum())
    if total_cap <= capacity:
        # Everyone saturates; if someone has an infinite cap this branch is
        # unreachable (total_cap == inf > capacity).
        finite = caps[np.isfinite(caps) & (weights > 0)]
        if finite.size == 0:
            return 0.0
        with np.errstate(divide="ignore"):
            ratios = caps / weights
        return float(np.max(ratios[np.isfinite(ratios)], initial=0.0))
    return solve_capped_level(capacity, caps, weights)


def solve_capped_level(target: float, caps: np.ndarray, weights: np.ndarray) -> float:
    """Solve ``sum_i min(level * w_i, cap_i) = target`` exactly for ``level``.

    Assumes ``0 <= target <= sum(caps)`` (the piecewise-linear LHS is
    non-decreasing from 0 to ``sum(caps)``); with ``target`` above the
    total cap the result saturates everyone.  Runs in ``O(n log n)``.

    Per-site DRF (:mod:`repro.multiresource.persite`) solves each
    resource's level with it.
    """
    require(target >= 0.0, "target must be non-negative")
    caps = np.asarray(caps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if caps.size == 0:
        return 0.0
    with np.errstate(divide="ignore"):
        breakpoints = caps / weights  # level at which each agent saturates
    order = np.argsort(breakpoints)
    # Below the k-th breakpoint, LHS(level) = sat_sum + level * active_weight.
    sat_sum = 0.0
    active_weight = float(weights.sum())
    prev_bp = 0.0
    for idx in order:
        bp = breakpoints[idx]
        if not np.isfinite(bp):
            break
        # LHS value at this breakpoint:
        lhs_at_bp = sat_sum + bp * active_weight
        if lhs_at_bp >= target:
            if active_weight <= 0.0:
                return prev_bp
            return (target - sat_sum) / active_weight
        sat_sum += caps[idx]
        active_weight -= weights[idx]
        prev_bp = bp
    if active_weight > 0.0:
        return (target - sat_sum) / active_weight
    # Fully saturated below target: return the last breakpoint.
    finite = breakpoints[np.isfinite(breakpoints)]
    return float(finite.max(initial=0.0))
