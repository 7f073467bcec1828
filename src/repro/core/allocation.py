"""Allocation: a concrete job-site resource assignment plus derived views.

The module also owns the one rule set every allocation is held to
(:func:`check_matrix`) and the allocation-error taxonomy it raises: a
bad matrix — NaN, negative, off-support, over a demand cap or over a
site — is a typed :class:`AllocationError` instead of silent NaN
propagation (docs/robustness.md).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro._util import ABS_TOL, REL_TOL, require
from repro.model.cluster import Cluster


# ----------------------------------------------------------------------
# Allocation-error taxonomy
# ----------------------------------------------------------------------


class AllocationError(ValueError):
    """Base of the allocation-failure taxonomy (a solve that cannot be used)."""


class SolverError(AllocationError):
    """The solver raised (or returned something that is not an allocation);
    the original exception, if any, is chained as ``__cause__``."""


class NonFiniteAllocationError(AllocationError):
    """The returned matrix contains NaN or infinite entries."""


class NegativeAllocationError(AllocationError):
    """The returned matrix has entries below zero beyond tolerance."""


class SupportViolationError(AllocationError):
    """Resource was allocated outside a job's workload support."""


class DemandViolationError(AllocationError):
    """A job-site entry exceeds its effective demand cap beyond tolerance."""


class CapacityViolationError(AllocationError):
    """A site's usage (of some resource, on a vector site) exceeds its capacity beyond tolerance."""


def check_matrix(cluster: Cluster, matrix: np.ndarray, *, gate: bool = True) -> np.ndarray:
    """The allocation rule set: ``matrix`` (shaped like ``cluster``) checked
    and normalized; returns a new read-only array.

    In order, raising the first violation as its :class:`AllocationError`
    subclass: entries are finite; none is below ``-ABS_TOL`` (the rest are
    clipped to 0); none outside a job's support exceeds ``ABS_TOL`` (they
    are zeroed); none exceeds its effective demand cap by more than
    ``ABS_TOL * scale``; and no site is over capacity, a vector site per
    resource.  ``scale`` is ``max(1, n_jobs)`` of ``cluster``, so a
    component checked against its own sub-cluster is held at least as
    tight as inside any cluster containing it.

    Capacity holds each site to ``fle(used, cap, scale=scale)``; with
    ``gate`` (the serving gate: :func:`repro.core.policies.validate_allocation`
    and every block :func:`repro.core.sharding.solve` solves) also to
    ``cap * (1 + ABS_TOL) + ABS_TOL * scale``, the tighter bound on large
    sites.  :class:`Allocation` itself holds only the first.
    """
    if not bool(np.isfinite(matrix).all()):
        raise NonFiniteAllocationError("allocation contains NaN or infinite entries")
    lowest = float(matrix.min(initial=0.0))
    if lowest < -ABS_TOL:
        raise NegativeAllocationError(f"allocation must be non-negative, found {lowest:g}")
    matrix = np.maximum(matrix, 0.0)
    off_support = matrix[~cluster.support]
    if off_support.size and float(off_support.max()) > ABS_TOL:
        raise SupportViolationError(
            f"allocation of {float(off_support.max()):g} outside a job's workload support"
        )
    matrix[~cluster.support] = 0.0
    scale = max(1.0, float(cluster.n_jobs))
    over_demand = float((matrix - cluster.demand_caps).max(initial=0.0))
    if over_demand > ABS_TOL * scale:
        raise DemandViolationError(f"allocation exceeds a demand cap by {over_demand:g}")
    if cluster.is_multiresource:
        used = matrix.T @ cluster.job_resource_matrix  # (m, R)
        caps = cluster.site_resource_matrix
    else:
        used, caps = matrix.sum(axis=0), cluster.capacities
    # ``fle(used, caps, scale=scale)`` on every site (and resource) at once
    over = used > caps + scale * np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(used), np.abs(caps)))
    if gate:
        over |= used > caps * (1.0 + ABS_TOL) + ABS_TOL * scale
    if over.any():
        at = tuple(np.argwhere(over)[0])  # (site[, resource]) of the first offender
        on = f" on {cluster.resource_names[at[1]]!r}" if len(at) > 1 else ""
        raise CapacityViolationError(
            f"site {cluster.sites[at[0]].name!r} over-allocated{on}: {float(used[at]):g} > {float(caps[at]):g}"
        )
    matrix.flags.writeable = False
    return matrix


def scrub_matrix(cluster: Cluster, matrix: np.ndarray) -> np.ndarray:
    """Scrub flow-tolerance residue so the strict Allocation invariants hold.

    Solvers reconstruct matrices from float flows (and sometimes rescale
    rows to hit exact aggregates), which can overshoot a demand cap or a
    site capacity by the flow tolerance.  Clip to caps and rescale
    over-committed site columns; the relative change is bounded by that
    same tolerance, far below anything the experiments can see.
    """
    matrix = np.minimum(matrix, cluster.demand_caps)
    if cluster.is_multiresource:
        # Per-site *per-resource* usage: rescale a column by the tightest
        # resource it overshoots.
        usage = matrix.T @ cluster.job_resource_matrix  # (m, R)
        caps = cluster.site_resource_matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(usage > caps, caps / usage, 1.0)
        shrink = np.nanmin(np.where(np.isfinite(ratio), ratio, 1.0), axis=1)
        for j in np.flatnonzero(shrink < 1.0):
            matrix[:, j] *= shrink[j]
        return matrix
    usage = matrix.sum(axis=0)
    for j in np.flatnonzero(usage > cluster.capacities):
        matrix[:, j] *= cluster.capacities[j] / usage[j]
    return matrix


class Allocation:
    """An ``(n, m)`` allocation matrix bound to its cluster.

    Construction holds the matrix to :func:`check_matrix` (non-negative,
    zero outside each job's support, within the demand caps and the site
    capacities, up to library tolerance) and normalizes it.  The private
    :meth:`_trusted` does not check: the per-component pipeline
    (:func:`repro.core.sharding.solve`) stitches it from blocks that each
    passed :func:`check_matrix` against their component's sub-cluster, so
    a solve checks the component, not the federation (and never builds
    the whole cluster's dense views).  Blocks replayed from a memo that
    are no longer known-good are carried on the allocation, and
    :func:`~repro.core.policies.validate_allocation` checks exactly those.

    The matrix is defensively copied and frozen; policies return new
    ``Allocation`` objects rather than mutating.
    """

    #: ``None`` for an allocation checked whole at construction; for one
    #: stitched by :meth:`_trusted`, the ``(component, entry)`` pairs whose
    #: block is not known-good (empty when every block passed the rule set).
    _unchecked: tuple | None = None

    def __init__(self, cluster: Cluster, matrix: np.ndarray, *, policy: str = "custom"):
        matrix = np.asarray(matrix, dtype=float)
        require(
            matrix.shape == (cluster.n_jobs, cluster.n_sites),
            f"allocation shape {matrix.shape} != ({cluster.n_jobs}, {cluster.n_sites})",
        )
        self.cluster = cluster
        self.matrix = check_matrix(cluster, matrix, gate=False)
        self.policy = policy

    @classmethod
    def _trusted(cls, cluster: Cluster, matrix: np.ndarray, *, policy: str, unchecked: tuple = ()) -> "Allocation":
        """An allocation over ``matrix``, a fresh ``(n, m)`` array stitched from
        per-component blocks, without checking it: every block passed
        :func:`check_matrix` against its component, except the
        ``(component, entry)`` pairs in ``unchecked`` (a component has
        ``job_indices``, ``site_indices`` and its sub-``cluster``; an entry
        has the block as ``matrix`` and a ``checked`` record)."""
        self = object.__new__(cls)
        matrix.flags.writeable = False
        self.cluster = cluster
        self.matrix = matrix
        self.policy = policy
        self._unchecked = tuple(unchecked)
        return self

    # ------------------------------------------------------------------
    @cached_property
    def aggregates(self) -> np.ndarray:
        """``(n,)`` aggregate allocation ``A_i = sum_j a_ij``."""
        arr = self.matrix.sum(axis=1)
        arr.flags.writeable = False
        return arr

    @cached_property
    def site_usage(self) -> np.ndarray:
        """``(m,)`` total allocation per site."""
        arr = self.matrix.sum(axis=0)
        arr.flags.writeable = False
        return arr

    @property
    def utilization(self) -> float:
        """Fraction of total capacity allocated."""
        return float(self.site_usage.sum() / self.cluster.total_capacity)

    def aggregate_of(self, job_name: str) -> float:
        return float(self.aggregates[self.cluster.job_index(job_name)])

    # ------------------------------------------------------------------
    def completion_times(self) -> np.ndarray:
        """``(n,)`` static completion times ``T_i = max_j w_ij / a_ij``.

        A job with positive work at a site but zero allocation there never
        finishes (``inf``).  This is the fluid model of DESIGN.md §1; the
        dynamic simulator in :mod:`repro.sim` refines it with reallocation
        at every event.
        """
        W = self.cluster.workloads
        out = np.zeros(self.cluster.n_jobs)
        for i in range(self.cluster.n_jobs):
            worst = 0.0
            for j in np.flatnonzero(W[i] > 0.0):
                a = self.matrix[i, j]
                if a <= ABS_TOL:
                    worst = np.inf
                    break
                worst = max(worst, W[i, j] / a)
            out[i] = worst
        return out

    def normalized_aggregates(self) -> np.ndarray:
        """Aggregates divided by fairness weights (the quantity AMF equalizes)."""
        return self.aggregates / self.cluster.weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ags = self.aggregates
        return (
            f"Allocation(policy={self.policy!r}, jobs={self.cluster.n_jobs}, "
            f"min={ags.min():.4g}, max={ags.max():.4g}, util={self.utilization:.3f})"
        )

    def pretty(self, max_rows: int = 12) -> str:
        """Small human-readable table (used by examples and the CLI)."""
        lines = [f"policy={self.policy} utilization={self.utilization:.3f}"]
        header = "job".ljust(12) + "".join(s.name.rjust(10) for s in self.cluster.sites[:8]) + "  aggregate"
        lines.append(header)
        for i, job in enumerate(self.cluster.jobs[:max_rows]):
            row = job.name.ljust(12)
            row += "".join(f"{self.matrix[i, j]:10.3f}" for j in range(min(8, self.cluster.n_sites)))
            row += f"  {self.aggregates[i]:9.3f}"
            lines.append(row)
        if self.cluster.n_jobs > max_rows:
            lines.append(f"... ({self.cluster.n_jobs - max_rows} more jobs)")
        return "\n".join(lines)
