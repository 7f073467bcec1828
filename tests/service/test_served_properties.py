"""The paper's properties hold on allocations as the service serves them.

``tests/core`` checks Pareto efficiency, max-min fairness and envy-freeness
on cold ``solve_amf``.  Here the same checkers run on what
:class:`~repro.service.daemon.AllocationService` answers after each op of
the ledger's ``churn_connected`` stream (one connected Zipf component of 200
jobs x 20 sites), where the warm solver's certified fill serves every write.

Scalar only: the checkers do not model resource vectors, so AMRF's served
check is the LP-oracle comparison in ``tests/multiresource``.
"""

import numpy as np
import pytest

from benchmarks.ledger import workloads
from repro.core import properties
from repro.model.job import Job
from repro.model.site import Site
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


@pytest.mark.parametrize(
    "capacity",
    [
        # served as amf-incremental aggregates [0, 1e-300]: s1 sits idle
        pytest.param(1e-300, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 25")),
        # the capacity sum overflows and the service falls back to psmf
        pytest.param(1e308, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 25")),
    ],
)
def test_extreme_capacity_units_are_served_amf_and_pareto(capacity):
    """Two sites of capacity ``c``, job ``a`` on both and job ``b`` on
    ``s0``: the answer is AMF's at any unit, and uses every site.  Each
    site carries a job without a demand cap, so Pareto efficiency means
    every site is full, which is checked relative to ``c``."""
    state = ClusterState(
        [Site("s0", capacity), Site("s1", capacity)],
        [Job("a", {"s0": 1.0, "s1": 1.0}), Job("b", {"s0": 1.0})],
    )
    service = AllocationService(state, observability=False)
    alloc = service.allocation().allocation
    service.close()
    assert alloc.policy in ("amf", "amf-incremental")
    assert service.resilience.fallback_activations == 0
    assert properties.is_pareto_efficient(alloc)
    np.testing.assert_allclose(alloc.matrix.sum(axis=0), [capacity, capacity], rtol=1e-9, atol=0.0)
