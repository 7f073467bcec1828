"""Site: one machine cluster / datacenter offering congestible resources."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro._util import require
from repro.model.resources import SLOTS, normalize_resources, scalar_equivalent


@dataclass(frozen=True, slots=True)
class Site:
    """A resource site (machine cluster or datacenter).

    Parameters
    ----------
    name:
        Human-readable identifier, unique within a cluster.
    capacity:
        Amount of the congestible resource the site offers.  Either a
        scalar (the historical single-resource form, canonically the
        ``"slots"`` resource) or a resource-name → amount mapping.  A
        mapping of exactly ``{"slots": x}`` canonicalizes to the scalar
        ``x``, so slots-only sites are identical objects however they
        were constructed.  All amounts must be strictly positive and
        finite.
    tags:
        Optional free-form labels (region, tier, ...) carried through to
        traces and reports; they never affect allocation.
    """

    name: str
    capacity: float
    tags: tuple[str, ...] = field(default=())
    # Sorted (resource, amount) pairs when multi-resource; None for the
    # canonical scalar site.  A tuple keeps the frozen dataclass hashable.
    resources: tuple[tuple[str, float], ...] | None = field(default=None)
    # This site's share of the byte stream Cluster.fingerprint hashes, built
    # once: a snapshot hashes every site on every version.
    fingerprint_lines: bytes = field(default=b"", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require(bool(self.name), "site name must be non-empty")
        cap = self.capacity
        if isinstance(cap, Mapping):
            vec = normalize_resources(cap, f"site {self.name!r} capacity")
            require(bool(vec), f"site {self.name!r}: capacity vector must be non-empty")
            scalar = scalar_equivalent(vec)
            if scalar is not None:
                object.__setattr__(self, "capacity", scalar)
                object.__setattr__(self, "resources", None)
            else:
                # Representative scalar: the slots entry if offered, else the
                # largest amount.  Multi-resource solver paths never read it;
                # it only keeps scalar-shaped reporting (utilization, stats)
                # well defined.
                rep = vec.get(SLOTS, max(vec.values()))
                object.__setattr__(self, "capacity", float(rep))
                object.__setattr__(self, "resources", tuple(sorted(vec.items())))
        else:
            require(
                isinstance(cap, (int, float)) and not isinstance(cap, bool),
                f"site {self.name!r}: capacity must be a number or a resource mapping, got {type(cap).__name__}",
            )
            object.__setattr__(self, "capacity", float(cap))
            require(self.resources is None, f"site {self.name!r}: pass vector capacities via `capacity`")
        require(
            math.isfinite(self.capacity) and self.capacity > 0.0,
            f"site {self.name!r}: capacity must be positive and finite, got {self.capacity}",
        )
        # Vector capacities get extra lines; canonical scalar sites emit
        # none, keeping pre-vector fingerprints byte-for-byte stable.
        lines = [f"S|{self.name}|{self.capacity.hex()}\n"]
        if self.resources is not None:
            lines += [f"R|{self.name}|{res}|{amount.hex()}\n" for res, amount in self.resources]
        object.__setattr__(self, "fingerprint_lines", "".join(lines).encode())

    @property
    def is_multiresource(self) -> bool:
        """True when this site offers a non-canonical resource vector."""
        return self.resources is not None

    @property
    def resource_vector(self) -> dict[str, float]:
        """The site's capacity as a resource vector (scalar → ``{"slots": x}``)."""
        if self.resources is None:
            return {SLOTS: self.capacity}
        return dict(self.resources)

    def scaled(self, factor: float) -> "Site":
        """Return a copy of this site with all capacities multiplied by ``factor``."""
        require(factor > 0.0, "scale factor must be positive")
        if self.resources is None:
            return Site(self.name, self.capacity * factor, self.tags)
        return Site(self.name, {res: amount * factor for res, amount in self.resources}, self.tags)
