"""Multi-resource extension: AMF meets Dominant Resource Fairness.

The paper's model has one congestible resource per site; production
schedulers allocate vectors (CPU, memory, ...).  The model is the
vector-bearing :class:`~repro.model.cluster.Cluster` (``Site`` capacity
vectors, ``Job.resources`` per-task demand vectors, ``Job.demand`` per-site
task bounds); this package holds the two policies over it:

* :mod:`repro.multiresource.engine` — **AMRF**, max-min fairness over each
  job's *aggregate dominant share* across all sites, the multi-resource
  analogue of the paper's AMF.  It is what
  :func:`repro.core.amf.solve_amf` runs on a vector cluster: an exact
  scalar reduction that routes R=1 (and dominant-resource-degenerate)
  clusters to the flow fast path bit-identically, else progressive filling
  with one max-t LP per round.
* :mod:`repro.multiresource.persite` — the per-site **DRF** baseline
  (Ghodsi et al.'s dominant-resource fairness, run independently at every
  site).

Experiment X7 compares the two on dominant-share balance under skew; the
engine is refereed by the repo's one LP oracle, ``tests/oracle.py``.
"""

from repro.multiresource.persite import solve_persite_drf
from repro.multiresource.engine import (
    amrf_allocate,
    scalar_reduction,
    solve_multiresource,
)

__all__ = [
    "solve_persite_drf",
    "amrf_allocate",
    "scalar_reduction",
    "solve_multiresource",
]
