"""Task-level job descriptions and fluid-to-discrete conversion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro._util import require
from repro.model.job import Job


@dataclass(frozen=True)
class DiscreteJob:
    """A job made of site-pinned tasks.

    ``tasks[site] = (count, duration)``: ``count`` identical tasks, each
    occupying one slot at ``site`` for ``duration`` time units,
    non-preemptively.  The site-``j`` work equals ``count * duration``
    slot-time, which is what the fluid model calls ``w_ij``.
    """

    name: str
    tasks: Mapping[str, tuple[int, float]]
    weight: float = 1.0
    arrival: float = 0.0

    def __post_init__(self) -> None:
        require(bool(self.name), "job name must be non-empty")
        require(self.weight > 0.0, "weight must be positive")
        require(self.arrival >= 0.0, "arrival must be non-negative")
        cleaned: dict[str, tuple[int, float]] = {}
        for site, (count, duration) in self.tasks.items():
            require(count >= 0 and count == int(count), f"task count at {site!r} must be a non-negative int")
            require(duration > 0.0 or count == 0, f"task duration at {site!r} must be positive")
            if count > 0:
                cleaned[site] = (int(count), float(duration))
        require(bool(cleaned), f"job {self.name!r} needs at least one task")
        object.__setattr__(self, "tasks", MappingProxyType(cleaned))

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from a plain dict.
        return (DiscreteJob, (self.name, dict(self.tasks), self.weight, self.arrival))

    @property
    def total_tasks(self) -> int:
        return sum(c for c, _ in self.tasks.values())

    @property
    def total_work(self) -> float:
        return sum(c * d for c, d in self.tasks.values())


def discretize_jobs(jobs: Sequence[Job], granularity: float) -> list[DiscreteJob]:
    """Work-preserving discretization of fluid jobs.

    Each fluid workload ``w_ij`` becomes ``ceil(w_ij * granularity)`` tasks
    of duration ``w_ij / count`` (total slot-time preserved exactly).
    Larger ``granularity`` means more, shorter tasks — and discrete
    behaviour converging to the fluid model (experiment X6).

    In the discrete world a job's parallelism limit at a site *is* its
    remaining task count there (each task needs one slot), so fluid demand
    caps are not carried over separately.
    """
    require(granularity > 0.0, "granularity must be positive")
    out = []
    for job in jobs:
        tasks = {}
        for site, work in job.workload.items():
            count = max(1, math.ceil(work * granularity))
            tasks[site] = (count, work / count)
        out.append(DiscreteJob(job.name, tasks, weight=job.weight, arrival=job.arrival))
    return out
