"""Flow-network substrate: one max-flow kernel.

Every flow question in the library runs on :class:`ArrayFlowGraph`, a
from-scratch Dinic with one level search, over numpy capacity arrays and a
CSR adjacency:

* :class:`ParametricFeasibility` answers the AMF solver's aggregate-target
  probes warm on one residual graph, and realizes the final split from it;
* the property checkers (:mod:`repro.core.properties`) solve the job-site
  network at the held aggregates and continue warm from there;
* :func:`bounded_flow` reduces the completion-time add-on's flows with
  per-edge lower bounds to one max-flow.

``networkx`` is deliberately *not* used here, and neither is a second
kernel: the dict-keyed ``FlowGraph``/``Dinic`` stack lives under
``tests/flownet/dictflow`` as the reference the kernel is checked against.
"""

from repro.flownet.arrayflow import ArrayFlowGraph
from repro.flownet.bounded import bounded_flow
from repro.flownet.parametric import ParametricFeasibility

__all__ = ["ArrayFlowGraph", "ParametricFeasibility", "bounded_flow"]
