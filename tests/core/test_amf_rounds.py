"""The fill loop's round bound: a tight site cut pins the remaining jobs.

Once a site cut ``S`` is tight, every still-active job is capped at its
crossing capacity ``cross_i(S)``; the solver applies that cap in closed
form instead of ending one round per job.  So a round ends only when a cut
that has never bound binds: ``rounds <= 1 + pool size`` per connected
component, i.e. ``rounds <= 2 k + seeded + generated`` over a solve of
``k`` job-bearing components.  The old rule —
freeze a job only in the round whose level reaches its ``cross_i(S)`` —
lives on here as :func:`one_job_per_round_levels`, the oracle the new
levels are compared against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger import workloads
from repro._util import ABS_TOL
from repro.core import properties
from repro.core.amf import (
    AmfDiagnostics,
    amf_levels,
    solve_amf,
)
from repro.core.enhanced import sharing_incentive_floors
from repro.core.sharding import ShardBasisPool, decompose
from repro.flownet.parametric import ParametricFeasibility
from repro.model.cluster import Cluster
from repro.model.site import Site
from repro.service.state import ClusterState
from repro.workload.generator import WorkloadSpec, generate_cluster, generate_jobs, sites_for
from tests.core.reference_fill import SiteCutFill
from tests.oracle import lp_feasible


def one_job_per_round_levels(cluster, floors=None):
    """Progressive filling with the pre-pinning freeze rule; ``(levels, rounds)``."""
    n, w, caps = cluster.n_jobs, cluster.weights, cluster.aggregate_demand
    floors = np.zeros(n) if floors is None else np.minimum(floors, caps)
    oracle = ParametricFeasibility(cluster)
    levels, frozen = floors.copy(), np.zeros(n, dtype=bool)
    cuts = [frozenset(range(cluster.n_sites))]

    def cross(sites):
        outside = np.ones(cluster.n_sites, dtype=bool)
        outside[list(sites)] = False
        return cluster.demand_caps[:, outside].sum(axis=1)

    def targets(lam):
        return np.where(frozen, levels, np.clip(lam * w, floors, caps))

    lam_done, rounds = 0.0, 0
    while not frozen.all():
        rounds += 1
        f, c = np.where(frozen, levels, floors), np.where(frozen, levels, caps)
        while True:
            per = [SiteCutFill(f, c, w, cross(s)).max_level(cluster.capacities[sorted(s)].sum()) for s in cuts]
            lam = max(min(min(per), max((c / w).max(), lam_done)), lam_done)
            out = oracle.probe(targets(lam))
            if out.feasible:
                break
            cuts.append(frozenset(out.cut_sites))
        new = targets(lam)
        freeze = ~frozen & (new >= caps - ABS_TOL * np.maximum(1.0, caps))
        for s, p in zip(cuts, per):
            if p <= min(per) * (1 + 1e-12) + ABS_TOL:  # a binding cut freezes its members
                freeze |= ~frozen & (new >= cross(s) - ABS_TOL * np.maximum(1.0, cross(s)))
        assert freeze.any()
        levels[freeze] = new[freeze]
        frozen |= freeze
        lam_done = lam
    return levels, rounds


def plateau_cluster() -> Cluster:
    """Cut ``{A, B}`` goes tight at level 1 (jobs p, q fill it); five jobs
    also reach the roomy site C, each under its own demand cap there —
    their crossing capacities out of ``{A, B}``."""
    cross = [1.5, 2.0, 2.5, 3.0, 3.5]
    inf = np.inf
    return Cluster.from_matrices(
        capacities=[1.0, 1.0, 100.0],
        workloads=[[1, 1, 0], [1, 1, 0], *([1, 0, 1] for _ in cross)],
        demand_caps=[[inf, inf, inf], [inf, inf, inf], *([inf, inf, x] for x in cross)],
    )


class TestPlateauInstance:
    def test_two_rounds_closed_form_levels_and_cut_attribution(self):
        c = plateau_cluster()
        d = AmfDiagnostics()
        lv = amf_levels(c, diagnostics=d)
        assert np.allclose(lv, [1.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], atol=1e-9)
        assert d.rounds <= 2
        # p, q sit in the tight cut; the five are pinned by it, none by demand
        assert (d.frozen_by_cut, d.frozen_by_cap) == (7, 0)

    def test_old_rule_needs_a_round_per_pinned_job(self):
        """The instance is not vacuous: the oracle agrees on the levels and
        spends one round on the cut plus one on each of the five."""
        c = plateau_cluster()
        lv, rounds = one_job_per_round_levels(c)
        assert rounds == 6
        assert np.abs(lv - amf_levels(c)).max() < 1e-9


@st.composite
def weighted_floored_warm(draw):
    """Zipf-skewed clusters (the paper's and the ledger's shape: uniform
    random ones bind on total capacity alone and finish in one round), with
    weights, sharing-incentive floors and a warm basis each on or off."""
    spec = WorkloadSpec(
        n_jobs=draw(st.integers(6, 24)),
        n_sites=draw(st.integers(2, 6)),
        site_spread=draw(st.integers(2, 3)),
        weight_spread=draw(st.sampled_from([0.0, 2.0])),
    )
    jobs = generate_jobs(spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    cluster = Cluster(sites_for(spec, jobs), jobs)
    floors = sharing_incentive_floors(cluster) if draw(st.booleans()) else None
    bases = ShardBasisPool()
    if draw(st.booleans()):  # warm: cuts learnt on the cluster with two sites rescaled
        k = draw(st.sampled_from([0.5, 0.8, 1.5]))
        sites = [Site(s.name, s.capacity * (k if j < 2 else 1.0)) for j, s in enumerate(cluster.sites)]
        amf_levels(Cluster(sites, jobs), bases=bases)
    return cluster, floors, bases


class TestRoundBound:
    @given(weighted_floored_warm())
    @settings(max_examples=80, deadline=None)
    def test_rounds_bounded_by_pool_and_levels_match_references(self, inst):
        cluster, floors, bases = inst
        d = AmfDiagnostics()
        alloc = solve_amf(cluster, floors, d, bases)
        lv = alloc.aggregates
        # per component, every round but the last retires a cut of its pool
        # (total-capacity seed + warm seeds + discoveries)
        k = sum(1 for shard in decompose(cluster) if shard.n_jobs)
        assert d.rounds <= 2 * k + d.warm_cuts_seeded + d.cuts_generated
        assert d.frozen_by_cap + d.frozen_by_cut == cluster.n_jobs
        slow, _ = one_job_per_round_levels(cluster, floors)
        assert np.abs(lv - slow).max() < 1e-9
        # Independent of any fill loop: the LP for feasibility, the flow
        # deciders for optimality.
        assert lp_feasible(cluster, lv - 1e-9)
        assert properties.is_pareto_efficient(alloc)
        if floors is None:
            assert properties.is_max_min_fair(alloc)
        else:
            assert (lv >= floors - 1e-9).all()


class TestLedgerConnectedCluster:
    """The ledger's ``churn_connected`` cluster (200 jobs x 20 sites): the
    old rule spends dozens of rounds on plateaus there, so neither the
    bound nor the level comparison can pass vacuously."""

    @pytest.fixture(scope="class")
    def states(self):
        inputs = workloads.build_inputs("churn_connected", 7, 8)
        state = ClusterState(inputs.cluster.sites, inputs.cluster.jobs)
        out = [state.snapshot()]
        for op in inputs.streams[0]:
            state.apply(op.event)
            out.append(state.snapshot())
        return out

    def test_levels_match_one_job_per_round_oracle(self, states):
        bases = ShardBasisPool()
        for cluster in states:
            assert len(decompose(cluster)) == 1  # one component: the bound is per solve
            d = AmfDiagnostics()
            lv = amf_levels(cluster, diagnostics=d, bases=bases)
            slow, slow_rounds = one_job_per_round_levels(cluster)
            assert np.abs(lv - slow).max() <= 1e-9 * max(1.0, float(np.abs(slow).max()))
            assert d.rounds <= 2 + d.warm_cuts_seeded + d.cuts_generated < slow_rounds


class TestProbeCount:
    """A cold fill pays one probe per round plus one per cut it discovers:
    each round probes until a proposal is feasible, and the last round's
    feasible probe is at the final levels, so nothing re-checks them.  A
    component with a positive floor pays one more, the floors check."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(4242)
        out = []
        for _ in range(120):
            spec = WorkloadSpec(
                n_jobs=int(rng.integers(4, 40)),
                n_sites=int(rng.integers(2, 9)),
                theta=float(rng.choice([0.0, 1.0, 1.5])),
                site_spread=int(rng.integers(1, 4)),
                weight_spread=float(rng.choice([0.0, 2.0])),
            )
            out.append(generate_cluster(spec, rng))
        return out

    def test_no_positive_floor_pays_rounds_plus_cuts(self, draws):
        for cluster in draws:
            for floors in (None, np.zeros(cluster.n_jobs)):
                d = AmfDiagnostics()
                amf_levels(cluster, floors, diagnostics=d)
                assert d.feasibility_solves == d.rounds + d.cuts_generated

    def test_a_positive_floor_pays_one_more_probe(self, draws):
        for cluster in draws:
            floors = sharing_incentive_floors(cluster)
            floored = sum(bool(floors[list(sh.job_indices)].any()) for sh in decompose(cluster) if sh.n_jobs)
            assert floored
            d = AmfDiagnostics()
            amf_levels(cluster, floors, diagnostics=d)
            assert d.feasibility_solves == d.rounds + d.cuts_generated + floored
