"""Core contribution: fairness policies over multi-site clusters.

* :func:`~repro.core.persite.solve_psmf` — the paper's baseline
  (independent per-site max-min fairness).
* :func:`~repro.core.amf.solve_amf` — Aggregate Max-min Fairness.
* :func:`~repro.core.enhanced.solve_amf_enhanced` — AMF with
  sharing-incentive floors.
* :func:`~repro.core.completion.optimize_completion_times` — the
  completion-time add-on (split optimization under fixed aggregates).
* :mod:`~repro.core.properties` — Pareto / envy-freeness /
  strategy-proofness / sharing-incentive checkers.

The LP oracle every solver here is tested against lives outside the
package, in ``tests/oracle.py``.
"""

from repro.core.allocation import Allocation
from repro.core.waterfilling import water_fill
from repro.core.persite import solve_psmf
from repro.core.amf import solve_amf, amf_levels
from repro.core.sharding import ShardBasisPool, decompose
from repro.core.enhanced import solve_amf_enhanced
from repro.core.completion import optimize_completion_times, proportional_split
from repro.core.policies import POLICIES, get_policy
from repro.core import properties

__all__ = [
    "Allocation",
    "water_fill",
    "solve_psmf",
    "solve_amf",
    "amf_levels",
    "decompose",
    "ShardBasisPool",
    "solve_amf_enhanced",
    "optimize_completion_times",
    "proportional_split",
    "POLICIES",
    "get_policy",
    "properties",
]
