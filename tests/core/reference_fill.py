"""The one-cut-at-a-time fill evaluators: exact ``sup { lam : G(lam) <= rhs }``
for one piecewise-linear fill function, built by an event sweep.

The solver sweeps every site cut of a round at once
(``repro.core.amf._RoundPool`` / ``_max_levels``); these per-function
evaluators are its differential reference (tests/core/test_amf.py) and the
propose step of the test-local one-job-per-round fill
(tests/core/test_amf_rounds.py).  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from repro._util import ABS_TOL, require


class _PiecewiseEvaluator:
    """Segment-sweep machinery shared by :class:`PiecewiseFill` and
    :class:`SiteCutFill`: a continuous, non-decreasing piecewise-linear
    function built from ``(level, const_jump, slope_jump)`` event rows.
    """

    __slots__ = ("base", "levels", "consts", "slopes", "total_cap", "top_level")

    def _build(self, events: np.ndarray, base: float, total_cap: float, top_level: float) -> None:
        order = np.argsort(events[:, 0], kind="stable")
        events = events[order]
        self.base = base  # value before any breakpoint
        self.levels = events[:, 0]
        self.consts = base + np.cumsum(events[:, 1])
        self.slopes = np.cumsum(events[:, 2])
        self.total_cap = total_cap  # sup of the function (value as lam -> inf)
        self.top_level = top_level

    def value(self, lam: float) -> float:
        """Evaluate the function at ``lam`` (``lam`` must be >= 0)."""
        k = int(np.searchsorted(self.levels, lam, side="right")) - 1
        if k < 0:
            return self.base
        return float(self.consts[k] + self.slopes[k] * lam)

    def max_level(self, rhs: float) -> float:
        """``sup { lam >= 0 : value(lam) <= rhs }`` (``inf`` when never binding; 0 when even the base exceeds ``rhs``)."""
        tol = ABS_TOL * max(1.0, abs(rhs))
        if self.total_cap <= rhs + tol:
            return np.inf
        # values at each segment's *start* (== end of previous segment, by continuity):
        seg_start_vals = self.consts + self.slopes * self.levels
        # first segment whose start value exceeds rhs — with float slack: a
        # constraint frozen exactly tight in an earlier round can have its
        # base land an ulp above rhs, and must read as a plateau, not as
        # "already violated at lam = 0".
        idx = int(np.searchsorted(seg_start_vals, rhs + tol, side="right"))
        if idx == 0:
            # even the base value is above rhs (only possible with infeasible
            # floors, which the solver rejects up front) — degenerate answer.
            return 0.0
        k = idx - 1  # value(segment start of k) <= rhs + tol < value(segment start of k+1)
        c, s = self.consts[k], self.slopes[k]
        if s <= 0.0:
            # Plateau sitting at ~rhs: the sup is where the function finally
            # climbs past it, i.e. the next breakpoint.
            return float(self.levels[idx]) if idx < len(self.levels) else np.inf
        return float((rhs - c) / s)


class PiecewiseFill(_PiecewiseEvaluator):
    """Exact evaluator for ``G(lam) = sum_i clip(lam * w_i, f_i, c_i)``.

    ``G`` is continuous, non-decreasing and piecewise linear; this class
    precomputes its segment structure (event sweep over the per-job
    breakpoints ``f_i / w_i`` and ``c_i / w_i``) so that

    * :meth:`value` evaluates ``G`` in ``O(log n)``, and
    * :meth:`max_level` solves ``sup { lam : G(lam) <= rhs }`` exactly.

    Frozen jobs are modelled by ``f_i = c_i = level_i`` (constant terms).
    """

    __slots__ = ()

    def __init__(self, floors: np.ndarray, caps: np.ndarray, weights: np.ndarray):
        caps = np.asarray(caps, dtype=float)
        floors = np.minimum(np.asarray(floors, dtype=float), caps)
        weights = np.asarray(weights, dtype=float)
        require(bool((weights > 0).all()), "weights must be positive")
        require(bool(np.isfinite(caps).all()), "caps must be finite (clip to site capacity first)")
        starts = floors / weights
        ends = caps / weights
        # Event sweep: +w slope when a job starts rising, -w / +c when it caps.
        events = np.concatenate(
            [
                np.stack([starts, -floors, weights], axis=1),
                np.stack([ends, caps, -weights], axis=1),
            ]
        )
        self._build(events, float(floors.sum()), float(caps.sum()), float(ends.max(initial=0.0)))


class SiteCutFill(_PiecewiseEvaluator):
    """Exact evaluator for the site-cut constraint LHS

    ``H(lam) = sum_i max(0, clip(lam * w_i, f_i, c_i) - x_i)``

    where ``x_i`` is job ``i``'s *crossing capacity* out of a site set
    ``S`` (its demand caps to sites outside ``S``).  ``H(lam) <= cap(S)``
    is the tightest valid inequality induced by ``S`` (Gale–Hoffman): the
    maximizing job set ``J = { i : t_i(lam) > x_i }`` is implied at every
    level rather than frozen in, which is what lets :class:`CutBasis`
    persist bottleneck *site sets* across job churn.

    Sweep identity: ``max(0, t - x) = clip(lam*w, f, c) -
    clip(lam*w, min(f, x), min(c, x))`` — a difference of two
    :class:`PiecewiseFill`-style terms, i.e. four events per job.  With
    ``x = 0`` this degenerates to :class:`PiecewiseFill` exactly.
    """

    __slots__ = ()

    def __init__(self, floors: np.ndarray, caps: np.ndarray, weights: np.ndarray, cross: np.ndarray):
        caps = np.asarray(caps, dtype=float)
        floors = np.minimum(np.asarray(floors, dtype=float), caps)
        weights = np.asarray(weights, dtype=float)
        cross = np.asarray(cross, dtype=float)
        require(bool((weights > 0).all()), "weights must be positive")
        require(bool(np.isfinite(caps).all()), "caps must be finite (clip to site capacity first)")
        require(bool((cross >= 0).all()), "crossing capacities must be non-negative")
        m_floors = np.minimum(floors, cross)
        m_caps = np.minimum(caps, cross)
        events = np.concatenate(
            [
                np.stack([floors / weights, -floors, weights], axis=1),
                np.stack([caps / weights, caps, -weights], axis=1),
                np.stack([m_floors / weights, m_floors, -weights], axis=1),
                np.stack([m_caps / weights, -m_caps, weights], axis=1),
            ]
        )
        self._build(
            events,
            float((floors - m_floors).sum()),
            float((caps - m_caps).sum()),
            float((caps / weights).max(initial=0.0)),
        )
