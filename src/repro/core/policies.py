"""Policy registry: name -> solver, shared by the simulator, CLI and benchmarks.

Every policy is a callable ``Cluster -> Allocation``.  The registry names
match the labels used in EXPERIMENTS.md:

* ``psmf`` — the paper's baseline (per-site max-min fairness),
* ``amf`` — Aggregate Max-min Fairness (max-flow split),
* ``amf-e`` — enhanced AMF (sharing-incentive floors),
* ``amf-ct`` — AMF + completion-time add-on (uniform-stretch split),
* ``amf-ct-quick`` / ``amf-ct-makespan`` / ``amf-ct-lex`` — add-on
  variants (ablation T3),
* ``amf-e-ct`` — AMF-E + the add-on,
* ``amf-prop`` — AMF aggregates with the naive proportional split,
* ``amf-resilient`` — AMF behind the solver fallback chain
  (:class:`ResilientPolicy`: AMF -> per-site max-min -> proportional).

Every policy but ``psmf`` runs per connected component
(:func:`repro.core.sharding.solve`); the add-on entries are
:class:`Pipeline` values naming a floors choice and a split rule.

The module also owns the **allocation-error taxonomy** and the
**fallback chain** of the fault-tolerance subsystem (docs/robustness.md):
:func:`validate_allocation` turns a bad solve — a raise, a NaN matrix, an
over-committed site — into a typed :class:`AllocationError` instead of
silent NaN propagation, and :class:`ResilientPolicy` catches those errors
and falls back to progressively simpler (but infallible) policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro._util import ABS_TOL, require
from repro.core.allocation import Allocation, scrub_matrix
from repro.core.amf import solve_amf
from repro.core.enhanced import sharing_incentive_floors, solve_amf_enhanced
from repro.core.persite import solve_psmf
from repro.core.sharding import solve
from repro.model.cluster import Cluster

PolicyFn = Callable[[Cluster], Allocation]


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
    """A site's column sum exceeds its capacity beyond tolerance."""


def validate_allocation(cluster: Cluster, alloc) -> Allocation:
    """Check ``alloc`` against the cluster invariants; return it as an
    :class:`~repro.core.allocation.Allocation`.

    Accepts any object with a ``matrix`` attribute (so broken third-party
    policies can be diagnosed), raising the matching
    :class:`AllocationError` subclass on the first violated invariant.
    Violations within the library float tolerance are *not* errors — they
    are scrubbed exactly like :class:`Allocation` itself does.
    """
    matrix = getattr(alloc, "matrix", None)
    if matrix is None:
        raise SolverError(f"policy returned {type(alloc).__name__!r}, not an allocation")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (cluster.n_jobs, cluster.n_sites):
        raise SolverError(
            f"allocation shape {matrix.shape} != ({cluster.n_jobs}, {cluster.n_sites})"
        )
    if not bool(np.isfinite(matrix).all()):
        raise NonFiniteAllocationError("allocation contains NaN or infinite entries")
    scale = max(1.0, float(cluster.n_jobs))
    lowest = float(matrix.min(initial=0.0))
    if lowest < -ABS_TOL * scale:
        raise NegativeAllocationError(f"allocation has negative entry {lowest:g}")
    off_support = matrix[~cluster.support]
    if off_support.size and float(off_support.max()) > ABS_TOL * scale:
        raise SupportViolationError(
            f"allocation of {float(off_support.max()):g} outside a job's workload support"
        )
    over_demand = float((matrix - cluster.demand_caps).max(initial=0.0))
    if over_demand > ABS_TOL * scale:
        raise DemandViolationError(f"allocation exceeds a demand cap by {over_demand:g}")
    usage = matrix.sum(axis=0)
    for j in np.flatnonzero(usage > cluster.capacities * (1.0 + ABS_TOL) + ABS_TOL * scale):
        raise CapacityViolationError(
            f"site {cluster.sites[j].name!r} over-allocated: {float(usage[j]):g} > {float(cluster.capacities[j]):g}"
        )
    if isinstance(alloc, Allocation) and alloc.cluster is cluster:
        return alloc
    return Allocation(
        cluster,
        scrub_matrix(cluster, np.maximum(matrix, 0.0)),
        policy=str(getattr(alloc, "policy", "custom")),
    )


# ----------------------------------------------------------------------
# Plain policies
# ----------------------------------------------------------------------


class Pipeline:
    """A policy that is one run of the per-component pipeline
    (:func:`repro.core.sharding.solve`): AMF levels above ``floors``
    (a function of the cluster, or none), re-split by the ``split`` rule,
    labelled ``policy``."""

    def __init__(self, split: str, policy: str, floors: Callable[[Cluster], np.ndarray] | None = None):
        self.split, self.policy, self.floors = split, policy, floors
        self.__name__ = policy

    def __call__(self, cluster: Cluster) -> Allocation:
        floors = None if self.floors is None else self.floors(cluster)
        return Allocation(cluster, solve(cluster, self.split, floors=floors).result, policy=self.policy)


def proportional_fallback(cluster: Cluster) -> Allocation:
    """Last-resort degraded-mode allocation that cannot fail.

    Each site is split among the jobs with work there in proportion to
    their fairness weights, capped by demand; no flows, no iteration, no
    feasibility search.  It is neither max-min fair nor work-maximizing —
    it exists so :class:`ResilientPolicy` always has a floor to stand on.
    """
    matrix = np.zeros((cluster.n_jobs, cluster.n_sites))
    caps = cluster.demand_caps
    weights = cluster.weights
    for j in range(cluster.n_sites):
        present = np.flatnonzero(cluster.support[:, j])
        if present.size == 0:
            continue
        w = weights[present]
        share = float(cluster.capacities[j]) * w / w.sum()
        matrix[present, j] = np.minimum(share, caps[present, j])
    return Allocation(cluster, scrub_matrix(cluster, matrix), policy="proportional-fallback")


POLICIES: dict[str, PolicyFn] = {
    "psmf": solve_psmf,
    "amf": solve_amf,
    "amf-e": solve_amf_enhanced,
    "amf-ct": Pipeline("stretch", "amf+ct:stretch"),
    "amf-ct-quick": Pipeline("stretch1", "amf+ct:stretch1"),
    "amf-ct-makespan": Pipeline("makespan", "amf+ct:makespan"),
    "amf-ct-lex": Pipeline("lexicographic", "amf+ct:lexicographic"),
    "amf-e-ct": Pipeline("stretch", "amf-e+ct:stretch", floors=sharing_incentive_floors),
    "amf-prop": Pipeline("proportional", "amf+proportional"),
}


def get_policy(name: str) -> PolicyFn:
    """Look up a policy by registry name (raises ``KeyError`` with choices)."""
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; choices: {sorted(POLICIES)}") from None


# ----------------------------------------------------------------------
# Solver fallback chain
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ResilienceStats:
    """Counters accumulated by a :class:`ResilientPolicy` across solves."""

    solves: int = 0
    fallback_activations: int = 0  # solves the primary policy did not serve
    served_by: dict[str, int] = field(default_factory=dict)  # policy -> solves served
    errors: list[str] = field(default_factory=list)  # bounded log of failures
    max_errors: int = 200

    def record_error(self, policy: str, exc: BaseException) -> None:
        if len(self.errors) < self.max_errors:
            self.errors.append(f"{policy}: {type(exc).__name__}: {exc}")

    def record_served(self, policy: str, *, fallback: bool) -> None:
        self.served_by[policy] = self.served_by.get(policy, 0) + 1
        if fallback:
            self.fallback_activations += 1


class ResilientPolicy:
    """Wrap a policy so a bad solve degrades instead of crashing the run.

    Each solve walks the chain ``primary -> *fallbacks -> proportional``:
    a policy that raises, or whose result fails
    :func:`validate_allocation` (NaN levels, an over-committed site, ...),
    is recorded in :attr:`stats` and the next link is tried.  The final
    :func:`proportional_fallback` is closed-form and cannot fail, so the
    chain always returns a valid :class:`Allocation` — this is the
    degraded-mode guarantee the dynamic simulator relies on.

    The default chain is the one from docs/robustness.md:
    AMF -> per-site max-min (``psmf``) -> proportional split.
    """

    def __init__(
        self,
        primary: str | PolicyFn = "amf",
        fallbacks: Sequence[str | PolicyFn] = ("psmf",),
        *,
        stats: ResilienceStats | None = None,
    ):
        def resolve(p: str | PolicyFn) -> tuple[str, PolicyFn]:
            if isinstance(p, str):
                return p, get_policy(p)
            return getattr(p, "__name__", "custom"), p

        self._chain: list[tuple[str, PolicyFn]] = [resolve(primary)]
        self._chain.extend(resolve(p) for p in fallbacks)
        require(len(self._chain) >= 1, "need at least a primary policy")
        self.stats = stats if stats is not None else ResilienceStats()
        self.__name__ = f"resilient:{self._chain[0][0]}"

    def __call__(self, cluster: Cluster) -> Allocation:
        self.stats.solves += 1
        for idx, (name, fn) in enumerate(self._chain):
            try:
                alloc = validate_allocation(cluster, fn(cluster))
            except Exception as exc:  # noqa: BLE001 - recorded, then degraded
                self.stats.record_error(name, exc)
                continue
            self.stats.record_served(name, fallback=idx > 0)
            return alloc
        self.stats.record_served("proportional-fallback", fallback=True)
        return proportional_fallback(cluster)


POLICIES["amf-resilient"] = ResilientPolicy("amf", ("psmf",))
