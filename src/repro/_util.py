"""Shared numeric tolerances and validation helpers.

Everything in the library compares fluid allocations (floats) against
capacities and demands, so a single, consistent notion of "equal up to
rounding" matters: the AMF progressive-filling solver snaps levels that were
located by binary search, and the property checkers must not flag 1e-12
residue as a fairness violation.  All modules import :data:`ABS_TOL` /
:data:`REL_TOL` from here instead of hard-coding their own epsilons.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

#: Absolute tolerance used when comparing allocation quantities.
ABS_TOL: float = 1e-9

#: Relative tolerance used when comparing allocation quantities.
REL_TOL: float = 1e-9

#: Tolerance for binary searches over levels / makespans (they are snapped to
#: exact bottlenecks afterwards, so this only bounds the number of probes).
SEARCH_TOL: float = 1e-11


def feq(a: float, b: float, *, scale: float = 1.0) -> bool:
    """Return True when ``a`` and ``b`` are equal up to library tolerance.

    ``scale`` lets callers widen the comparison for quantities that are sums
    of many terms (e.g. total flow over thousands of edges).
    """
    tol = scale * max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))
    return abs(a - b) <= tol


def fle(a: float, b: float, *, scale: float = 1.0) -> bool:
    """Return True when ``a <= b`` up to library tolerance."""
    return a <= b + scale * max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def flt(a: float, b: float, *, scale: float = 1.0) -> bool:
    """Return True when ``a`` is strictly below ``b`` beyond tolerance."""
    return not fle(b, a, scale=scale)


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def as_float_array(values: Iterable[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float array, validating finiteness."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    require(arr.ndim == 1, f"{name} must be one-dimensional, got shape {arr.shape}")
    require(bool(np.isfinite(arr).all()), f"{name} must contain only finite values")
    return arr


def as_float_matrix(values, name: str) -> np.ndarray:
    """Convert ``values`` to a 2-D float array, validating finiteness."""
    arr = np.asarray(values, dtype=float)
    require(arr.ndim == 2, f"{name} must be two-dimensional, got shape {arr.shape}")
    require(bool(np.isfinite(arr).all()), f"{name} must contain only finite values")
    return arr


def nonneg(arr: np.ndarray, name: str) -> np.ndarray:
    """Validate that every entry of ``arr`` is non-negative (up to tolerance)."""
    if arr.size and float(arr.min()) < -ABS_TOL:
        raise ValueError(f"{name} must be non-negative, found {float(arr.min())}")
    return np.maximum(arr, 0.0)
