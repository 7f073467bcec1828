"""Job: a distributed computation with work pinned at multiple sites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro._util import require
from repro.model.resources import SLOTS, normalize_resources


def _frozen_mapping(values: Mapping[str, float], name: str, *, allow_zero: bool) -> Mapping[str, float]:
    out: dict[str, float] = {}
    for key, value in values.items():
        require(bool(key), f"{name}: site names must be non-empty")
        fval = float(value)
        # isfinite: inf satisfies >= 0 but poisons every solver downstream
        # (aggregate demands, flow capacities); NaN fails both checks.
        require(
            math.isfinite(fval) and fval >= 0.0,
            f"{name}[{key!r}] must be finite and non-negative, got {fval}",
        )
        if fval > 0.0 or allow_zero:
            out[key] = fval
    return MappingProxyType(out)


@dataclass(frozen=True)
class Job:
    """A job requiring distributed execution across sites.

    Parameters
    ----------
    name:
        Unique identifier within a cluster.
    workload:
        ``{site_name: work}`` — the amount of work (task-seconds) the job
        must execute at each site, pinned there by data locality.  Zero
        entries are dropped; the remaining keys form the job's *support*.
    demand:
        Optional ``{site_name: rate}`` — the maximum rate at which the job
        can usefully consume resource at a site (its runnable parallelism
        there).  Sites absent from ``demand`` are uncapped (bounded only by
        site capacity).  Demand caps are what make the sharing-incentive
        property non-trivial for AMF (see DESIGN.md §3.2).
    weight:
        Fairness weight; progressive filling equalizes ``A_i / weight``.
        Defaults to 1 (the unweighted fairness of the paper).
    arrival:
        Arrival time for dynamic simulation; ignored by static solvers.
    resources:
        Optional per-task resource demand vector ``{resource: amount}``
        (uniform across sites, DRF-style): running the job at rate ``a``
        at a site consumes ``a * amount`` of each resource there.  An
        empty mapping — or the canonical ``{"slots": 1.0}`` — is the
        historical scalar world where one unit of rate consumes one slot.
        All amounts must be strictly positive and finite.
    """

    name: str
    workload: Mapping[str, float]
    demand: Mapping[str, float] = field(default_factory=dict)
    weight: float = 1.0
    arrival: float = 0.0
    resources: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(bool(self.name), "job name must be non-empty")
        require(
            math.isfinite(self.weight) and self.weight > 0.0,
            f"job {self.name!r}: weight must be positive and finite, got {self.weight}",
        )
        require(
            math.isfinite(self.arrival) and self.arrival >= 0.0,
            f"job {self.name!r}: arrival must be non-negative and finite, got {self.arrival}",
        )
        workload = _frozen_mapping(self.workload, f"job {self.name!r} workload", allow_zero=False)
        require(len(workload) > 0, f"job {self.name!r}: workload must be positive at >= 1 site")
        object.__setattr__(self, "workload", workload)
        demand = _frozen_mapping(self.demand, f"job {self.name!r} demand", allow_zero=True)
        for site in demand:
            require(site in workload, f"job {self.name!r}: demand cap at {site!r} without workload there")
        object.__setattr__(self, "demand", demand)
        vec = normalize_resources(self.resources, f"job {self.name!r} resources")
        if len(vec) == 1 and SLOTS in vec and vec[SLOTS] == 1.0:
            vec = {}  # canonical scalar job
        object.__setattr__(self, "resources", MappingProxyType(vec))

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from plain dicts so a
        # job (and the ShardResult holding it) can cross a process pool.
        return (
            Job,
            (self.name, dict(self.workload), dict(self.demand), self.weight, self.arrival, dict(self.resources)),
        )

    @cached_property
    def fingerprint_lines(self) -> bytes:
        """This job's share of the byte stream :meth:`Cluster.fingerprint`
        hashes.  Memoised per instance (a job is immutable; every copy is
        built through ``__init__`` and starts without it)."""
        lines = [f"J|{self.name}|{self.weight.hex()}\n"]
        lines += [f"w|{site}|{work.hex()}\n" for site, work in sorted(self.workload.items())]
        lines += [f"d|{site}|{rate.hex()}\n" for site, rate in sorted(self.demand.items())]
        lines += [f"r|{res}|{amount.hex()}\n" for res, amount in sorted(self.resources.items())]
        return "".join(lines).encode()

    @property
    def is_multiresource(self) -> bool:
        """True when this job declares a non-canonical per-task resource vector."""
        return len(self.resources) > 0

    @property
    def resource_vector(self) -> dict[str, float]:
        """Per-task demand as a resource vector (scalar → ``{"slots": 1.0}``)."""
        if not self.resources:
            return {SLOTS: 1.0}
        return dict(self.resources)

    @property
    def support(self) -> frozenset[str]:
        """Names of the sites where this job has work."""
        return frozenset(self.workload)

    @property
    def total_work(self) -> float:
        """Total work across all sites."""
        return sum(self.workload.values())

    def demand_at(self, site: str, default: float = float("inf")) -> float:
        """Demand cap at ``site`` (``default`` when uncapped)."""
        if site not in self.workload:
            return 0.0
        return self.demand.get(site, default)

    def with_workload(self, workload: Mapping[str, float], demand: Mapping[str, float] | None = None) -> "Job":
        """Return a copy with a different workload distribution.

        Used by the strategy-proofness prober, which explores misreports.
        """
        return Job(
            name=self.name,
            workload=dict(workload),
            demand=dict(self.demand if demand is None else demand),
            weight=self.weight,
            arrival=self.arrival,
            resources=dict(self.resources),
        )

    def scaled(self, factor: float) -> "Job":
        """Return a copy with workload (not demand) multiplied by ``factor``."""
        require(factor > 0.0, "scale factor must be positive")
        return Job(
            name=self.name,
            workload={s: w * factor for s, w in self.workload.items()},
            demand=dict(self.demand),
            weight=self.weight,
            arrival=self.arrival,
            resources=dict(self.resources),
        )
