"""Synthetic workload generation.

The paper's experiments sweep the *skewness of the workload distribution of
jobs among sites* — the more a job's work concentrates on a few (popular)
sites, the more AMF's cross-site compensation matters.  This package
provides:

* :mod:`~repro.workload.zipf` — bounded Zipf site-popularity laws (the
  skew knob, ``theta = 0`` uniform, larger = more skewed),
* :mod:`~repro.workload.generator` — static batch instances
  (:class:`~repro.workload.generator.WorkloadSpec`) with contention control,
* :mod:`~repro.workload.arrivals` — Poisson arrival processes over the same
  spatial law, for the dynamic experiments (load sweep F7),
* :mod:`~repro.workload.traces` — a trace-like generator with heavy-tailed
  job sizes and diurnal modulation, substituting for proprietary cluster
  traces (DESIGN.md, substitution note),
* :mod:`~repro.workload.failures` — seeded Poisson MTBF/MTTR site-failure
  traces for the fault-tolerance experiments (X8, docs/robustness.md).
"""

from repro.workload.zipf import zipf_probabilities
from repro.workload.generator import (
    WorkloadSpec,
    generate_cluster,
    generate_jobs,
)
from repro.workload.arrivals import ArrivalSpec, generate_arrival_jobs
from repro.workload.traces import TraceSpec, generate_trace_jobs
from repro.workload.scenarios import SCENARIOS, get_scenario
from repro.workload.failures import FailureSpec, generate_failure_trace

__all__ = [
    "zipf_probabilities",
    "WorkloadSpec",
    "generate_cluster",
    "generate_jobs",
    "ArrivalSpec",
    "generate_arrival_jobs",
    "TraceSpec",
    "generate_trace_jobs",
    "SCENARIOS",
    "get_scenario",
    "FailureSpec",
    "generate_failure_trace",
]
