"""A warm fill is certified by one max-flow of its final levels.

When a component's cut pool holds cuts seeded from an earlier solve, every
round ends on the pool's proposal alone and one probe certifies the final
vector (``repro.core.amf._certified_fill``).  The contract: whenever that
probe accepts, the levels are ``np.array_equal`` to the per-round loop run
on the same seeded pool; when it refutes, its min cut joins the pool and
the basis, the per-round loop runs instead, and the levels agree with a
cold solve at 1e-12.  The per-round reference is the same solver with the
deferred pass switched off (``_certified_fill`` answering "not certified"
before touching anything).
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import given, settings

from repro.core import amf
from repro.core.amf import AmfDiagnostics, amf_levels
from repro.core.sharding import ShardBasisPool, decompose
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.state import ClusterState
from repro.workload.generator import WorkloadSpec
from tests.service.test_incremental import churn_scripts, connected_stream


def per_round_levels(cluster: Cluster, pool: ShardBasisPool) -> np.ndarray:
    """``amf_levels`` on ``pool`` with every round probed (nothing deferred)."""
    with mock.patch.object(amf, "_certified_fill", return_value=False):
        return amf_levels(cluster, bases=pool)


def check_component(cluster: Cluster, pool: ShardBasisPool) -> AmfDiagnostics:
    """Solve one component warm and compare it with the per-round loop run
    on a copy of the same seeded pool; returns the warm solve's counters."""
    reference = per_round_levels(cluster, copy.deepcopy(pool))
    d = AmfDiagnostics()
    warm = amf_levels(cluster, diagnostics=d, bases=pool)
    if d.deferred_checks and not d.deferred_refuted:
        assert np.array_equal(warm, reference)
    else:
        np.testing.assert_allclose(warm, reference, rtol=0, atol=1e-12 * max(1.0, float(reference.max())))
    # the diagnostics describe the pass that produced the levels
    assert d.rounds <= 2 + d.warm_cuts_seeded + d.cuts_generated
    assert d.frozen_by_cap + d.frozen_by_cut == cluster.n_jobs
    return d


def components(cluster: Cluster) -> list[Cluster]:
    return [shard.cluster for shard in decompose(cluster) if shard.n_jobs]


class TestCertifiedFillEqualsPerRoundLoop:
    @given(churn_scripts())
    @settings(max_examples=60, deadline=None)
    def test_churn_scripts(self, script):
        sites, jobs, events = script
        state = ClusterState(sites, jobs)
        pool = ShardBasisPool()
        for event in [None, *events]:
            if event is not None:
                state.apply(event)
            for component in components(state.snapshot()):
                check_component(component, pool)

    def test_seeded_connected_stream(self):
        """Not vacuous: a 40 x 8 Zipf component under churn defers every
        warm solve, and every deferred check but the refuted ones is
        compared bit for bit."""
        spec = WorkloadSpec(n_jobs=40, n_sites=8, site_spread=3, theta=1.0)
        pool = ShardBasisPool()
        checks = refuted = 0
        for cluster in connected_stream(spec, seed=20261016, events=25):
            for component in components(cluster):
                d = check_component(component, pool)
                checks += d.deferred_checks
                refuted += d.deferred_refuted
        assert checks - refuted >= 20


def refutation_jobs() -> list[Job]:
    """``wide`` reaches all three sites, capped on a and c; ``narrow``
    shares b and c with it."""
    return [
        Job("wide", {"a": 1.0, "b": 1.0, "c": 1.0}, {"a": 0.5, "c": 1.0}),
        Job("narrow", {"b": 1.0, "c": 1.0}, {"b": 1.0, "c": 0.5}),
    ]


class TestRefutation:
    def test_capacity_drop_refutes_the_seeded_pool(self):
        """The first solve learns the cut {b}.  Dropping c from 4 to 1 makes
        {b, c} the bottleneck: the pool alone proposes wide = 4.5, the one
        certifying probe refutes it, {b, c} is recorded, and the per-round
        loop lands on the cold levels."""
        jobs = refutation_jobs()
        pool = ShardBasisPool()
        amf_levels(Cluster([Site("a", 4.0), Site("b", 4.0), Site("c", 4.0)], jobs), bases=pool)
        ((_, basis),) = pool.items()
        assert basis.sets() == (frozenset({"b"}),)

        dropped = Cluster([Site("a", 4.0), Site("b", 4.0), Site("c", 1.0)], jobs)
        d = AmfDiagnostics()
        warm = amf_levels(dropped, diagnostics=d, bases=pool)
        assert (d.deferred_checks, d.deferred_refuted) == (1, 1)
        assert d.cuts_generated == 1
        assert frozenset({"b", "c"}) in basis.sets()
        cold = amf_levels(dropped)
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12)
        np.testing.assert_allclose(warm, [4.0, 1.5], atol=1e-12)
        # the counters describe the per-round pass alone, not both passes
        assert d.rounds == 1 and d.frozen_by_cap + d.frozen_by_cut == 2

    def test_a_cold_pool_never_defers(self):
        d = AmfDiagnostics()
        amf_levels(Cluster([Site("a", 4.0), Site("b", 4.0), Site("c", 1.0)], refutation_jobs()), diagnostics=d)
        assert d.deferred_checks == d.deferred_refuted == d.warm_cuts_seeded == 0
