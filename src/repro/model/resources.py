"""Resource-vector primitives shared by the model, schema, and service layers.

A *resource vector* maps resource names (``"cpu"``, ``"mem"``, ...) to
positive finite amounts.  The production model keeps the historical scalar
world as the canonical representation of the single-resource case: a vector
of exactly ``{"slots": x}`` *is* the scalar ``x``.  Canonicalizing at
construction time means slots-only clusters built through the new vector
API are indistinguishable — fingerprints, wire bytes, cache keys — from
clusters built through the original scalar API, which is what makes the
back-compat and bit-identity guarantees of the v1 resource API free.

This module is dependency-free (stdlib only) so that every layer — model
dataclasses, wire schema, service state — can raise the same typed errors
without import cycles.
"""

from __future__ import annotations

import math
from typing import Mapping

#: Name of the canonical single resource of the scalar world.
SLOTS = "slots"

__all__ = [
    "SLOTS",
    "ResourceError",
    "UnknownResourceError",
    "ResourceMismatchError",
    "normalize_resources",
    "scalar_equivalent",
]


class ResourceError(ValueError):
    """Base class for resource-vector validation failures."""


class UnknownResourceError(ResourceError):
    """A vector references a resource name the cluster does not offer."""


class ResourceMismatchError(ResourceError):
    """A vector's resource-name set disagrees with the cluster's."""


def normalize_resources(
    values: Mapping[str, object] | None,
    context: str,
    *,
    allow_zero: bool = False,
) -> dict[str, float]:
    """Validate and canonicalize a resource vector.

    Returns a plain ``{name: float}`` dict with deterministic (sorted-name)
    iteration order.  Every amount must be finite; amounts must be strictly
    positive unless ``allow_zero`` (zero entries are then dropped, matching
    the workload-support convention).  Raises :class:`ResourceError` on any
    violation, with the offending resource named in the message.
    """
    if values is None:
        return {}
    out: dict[str, float] = {}
    for key in sorted(values):
        require = bool(key) and isinstance(key, str)
        if not require:
            raise ResourceError(f"{context}: resource names must be non-empty strings, got {key!r}")
        raw = values[key]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ResourceError(f"{context}: amount of {key!r} must be a number, got {type(raw).__name__}")
        fval = float(raw)
        if math.isnan(fval):
            raise ResourceError(f"{context}: amount of {key!r} must not be NaN")
        if not math.isfinite(fval):
            raise ResourceError(f"{context}: amount of {key!r} must be finite, got {fval}")
        if fval < 0.0 or (fval == 0.0 and not allow_zero):
            bound = "non-negative" if allow_zero else "strictly positive"
            raise ResourceError(f"{context}: amount of {key!r} must be {bound}, got {fval}")
        if fval > 0.0:
            out[key] = fval
    if not out and values:
        raise ResourceError(f"{context}: resource vector must have at least one positive entry")
    return out


def scalar_equivalent(vector: Mapping[str, float]) -> float | None:
    """Return the scalar value when ``vector`` is canonically single-resource.

    A vector of exactly ``{"slots": x}`` is the scalar ``x``; anything else
    (other names, or several resources) has no scalar equivalent and returns
    ``None``.
    """
    if len(vector) == 1 and SLOTS in vector:
        return float(vector[SLOTS])
    return None
