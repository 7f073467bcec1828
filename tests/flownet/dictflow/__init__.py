"""The dict-keyed max-flow stack, kept as the test reference.

``FlowGraph`` (hashable node keys, linked adjacency lists) plus ``Dinic``,
the job-site ``FeasibilityNetwork``, min-cut extraction and the bounded
circulation.  Every max-flow in ``src/`` runs on
:class:`repro.flownet.arrayflow.ArrayFlowGraph`; this independent
implementation is what the kernel, the parametric oracle, the property
checkers and the completion-time add-on are compared against.  Its own
correctness is checked against networkx (``test_dinic``, ``test_mincut``).
"""
