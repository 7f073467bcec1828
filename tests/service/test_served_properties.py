"""The paper's properties hold on allocations as the service serves them.

``tests/core`` checks Pareto efficiency, max-min fairness and envy-freeness
on cold ``solve_amf``.  Here the same checkers run on what
:class:`~repro.service.daemon.AllocationService` answers after each op of
the ledger's ``churn_connected`` stream (one connected Zipf component of 200
jobs x 20 sites), where the warm solver's certified fill serves every write.

Scalar only: the checkers do not model resource vectors, so AMRF's served
check is the LP-oracle comparison in ``tests/multiresource``.
"""

from benchmarks.ledger import workloads
from repro.core import properties
from repro.service.daemon import AllocationService
from repro.service.state import ClusterState


def test_warm_served_allocations_satisfy_the_properties():
    inputs = workloads.build_inputs("churn_connected", seed=7, n_ops=8)
    service = AllocationService(ClusterState(inputs.cluster.sites, inputs.cluster.jobs), observability=False)
    checked = 0
    for op in inputs.streams[0][:8]:
        service.submit(op.event)
        served = service.allocation()
        if served.cached:
            continue
        alloc = served.allocation
        assert properties.is_pareto_efficient(alloc), op.kind
        assert properties.is_max_min_fair(alloc), op.kind
        assert properties.is_envy_free(alloc), op.kind
        checked += 1
    assert checked >= 5
    # the warm certified fill is what answered, not a cold re-solve
    assert service.incremental.stats.deferred_checks >= 5
    service.close()
