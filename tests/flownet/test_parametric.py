"""Property tests: the parametric oracle is verdict-identical to cold solves.

The acceptance bar for the warm engine: on any probe sequence, the
``feasible`` bit returned by :class:`ParametricFeasibility` must be
*bit-identical* to what a cold ``build_network(...).solve()`` on the
dict-keyed reference stack (fresh pointer graph + Dinic from zero flow)
returns for the same targets — no matter in which order the probes
arrive, and which internal answer mode (early-accept, cut-reject, warm or
cold flow) produced the verdict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import amf
from repro.core.amf import AmfDiagnostics, amf_levels, amf_levels_bisect, solve_amf
from repro.flownet.arrayflow import ArrayFlowGraph
from repro.flownet.parametric import ParametricFeasibility, ProbeStats
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.workload.generator import WorkloadSpec, generate_cluster
from tests.conftest import random_cluster
from tests.flownet.dictflow.bipartite import build_network
from tests.flownet.reference_network import reference_oracle
from tests.model.test_cluster import random_two_resource


def _cold_outcome(cluster, targets):
    """The reference: fresh network, Dinic from zero flow."""
    return build_network(cluster, np.asarray(targets, dtype=float)).solve()


def _assert_cut_matches(warm, cold):
    """The minimal min cut is promised on an infeasible verdict; a feasible
    probe carries none (the oracle skips the reachability sweep there)."""
    if cold.feasible:
        assert warm.cut_sites == warm.cut_jobs == frozenset()
    else:
        assert warm.cut_sites == cold.cut_sites
        assert warm.cut_jobs == cold.cut_jobs


@st.composite
def clusters_and_probes(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    n_sites = draw(st.integers(min_value=1, max_value=4))
    caps = [draw(st.floats(min_value=0.2, max_value=6.0)) for _ in range(n_sites)]
    workloads = []
    for _ in range(n_jobs):
        row = [draw(st.floats(min_value=0.0, max_value=4.0)) for _ in range(n_sites)]
        if max(row) == 0.0:  # every job needs support somewhere
            row[draw(st.integers(min_value=0, max_value=n_sites - 1))] = 1.0
        workloads.append(row)
    cluster = Cluster.from_matrices(caps, workloads)
    demand = cluster.aggregate_demand
    # Probe fractions both rising and falling, including the exact bounds
    # bisection hits (0 and 1) — the sequence shape that broke fuzzy
    # early-accept once already.
    n_probes = draw(st.integers(min_value=1, max_value=7))
    fractions = [
        draw(st.floats(min_value=0.0, max_value=1.2, allow_nan=False)) for _ in range(n_probes)
    ]
    return cluster, [f * demand for f in fractions]


@settings(max_examples=50, deadline=None)
@given(clusters_and_probes())
def test_probe_verdicts_bit_identical_to_cold(case):
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets)
        assert warm.feasible is cold.feasible
        assert warm.demanded == pytest.approx(cold.demanded, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(clusters_and_probes())
def test_need_cut_probes_return_the_cold_min_cut(case):
    """With ``need_cut`` the oracle must surface the same minimal cut."""
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets, need_cut=True)
        assert warm.feasible is cold.feasible
        _assert_cut_matches(warm, cold)
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-8)


@st.composite
def falling_sequences(draw):
    """Sequences that drive the falling-λ rollback arm of ``_install``.

    The opener is over total site capacity — provably infeasible, so the
    graph is left holding a saturating flow — and the follow-ups descend
    (including an exact-zero probe), so installed capacities drop *below*
    carried flow and the oracle must cancel excess locally (``rolled=True``)
    rather than restart.
    """
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    n_sites = draw(st.integers(min_value=1, max_value=4))
    caps = [draw(st.floats(min_value=0.2, max_value=6.0)) for _ in range(n_sites)]
    workloads = []
    for _ in range(n_jobs):
        row = [draw(st.floats(min_value=0.0, max_value=4.0)) for _ in range(n_sites)]
        if max(row) == 0.0:
            row[draw(st.integers(min_value=0, max_value=n_sites - 1))] = 1.0
        workloads.append(row)
    cluster = Cluster.from_matrices(caps, workloads)
    demand = cluster.aggregate_demand
    n_probes = draw(st.integers(min_value=1, max_value=5))
    fractions = sorted(
        (draw(st.floats(min_value=0.0, max_value=1.1)) for _ in range(n_probes)), reverse=True
    )
    opener = demand + float(np.sum(caps))  # demanded > total capacity
    return cluster, [opener] + [f * demand for f in fractions] + [0.0 * demand]


@settings(max_examples=50, deadline=None)
@given(falling_sequences())
def test_falling_probes_roll_back_and_stay_bit_identical(case):
    """The cancel-and-reuse arm: falling targets cancel just the excess flow,
    and the verdicts (and minimal cuts) still bit-match cold solves.

    No rollback-count assertion here: degenerate draws legitimately skip the
    arm (every job folded, or an early feasible probe lets the trailing zero
    early-accept) — the deterministic test below pins that the arm fires.
    """
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets, need_cut=True)
        assert warm.feasible is cold.feasible
        _assert_cut_matches(warm, cold)
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-8)
    assert oracle.stats.probes == len(probes)


def test_falling_probe_fires_the_rollback_arm():
    """A two-site job never folds; the saturating opener carries flow 2.0 and
    the undercut probe installs capacity below it, so ``rolled=True`` must
    cancel the excess locally — and the verdicts still bit-match cold."""
    cluster = Cluster.from_matrices([1.0, 1.0], [[1.0, 1.0]])
    oracle = ParametricFeasibility(cluster)
    for targets in ([10.0], [0.5], [0.0]):
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets, need_cut=True)
        assert warm.feasible is cold.feasible
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-9)
    assert oracle.stats.rollbacks >= 1


@settings(max_examples=30, deadline=None)
@given(clusters_and_probes())
def test_feasible_flow_value_matches_demand(case):
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        out = oracle.probe(targets, need_cut=True)
        if out.feasible:
            assert out.flow_value == pytest.approx(float(np.sum(targets)), abs=1e-7)
            alloc = oracle.allocation_matrix(targets)
            assert alloc is not None
            np.testing.assert_allclose(alloc.sum(axis=1), targets, atol=1e-7)
            assert bool((alloc <= cluster.demand_caps + 1e-9).all())
            assert bool((alloc.sum(axis=0) <= cluster.capacities + 1e-7).all())


def test_allocation_matrix_resyncs_after_infeasible_probe():
    """An infeasible probe in between must not corrupt the stored flow."""
    cluster = Cluster.from_matrices([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]])
    oracle = ParametricFeasibility(cluster)
    good = np.array([1.0, 0.9])
    assert oracle.probe(good).feasible
    assert not oracle.probe(np.array([3.0, 3.0])).feasible  # mutates the flow
    alloc = oracle.allocation_matrix(good)
    assert alloc is not None
    np.testing.assert_allclose(alloc.sum(axis=1), good, atol=1e-9)


def test_allocation_matrix_rejects_infeasible_targets():
    cluster = Cluster.from_matrices([1.0], [[1.0]])
    oracle = ParametricFeasibility(cluster)
    assert oracle.allocation_matrix(np.array([5.0])) is None
    assert oracle.allocation_matrix(np.array([1.0, 2.0])) is None  # wrong shape


def test_all_jobs_single_site_fold_entirely():
    """Degree-1 folding may leave an empty reduced network."""
    cluster = Cluster.from_matrices([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    oracle = ParametricFeasibility(cluster)
    assert oracle.stats.folded_jobs == 3
    assert oracle.probe(np.array([1.0, 1.0, 1.0])).feasible
    out = oracle.probe(np.array([2.0, 1.0, 2.0]), need_cut=True)
    assert not out.feasible
    cold = _cold_outcome(cluster, [2.0, 1.0, 2.0])
    assert out.feasible is cold.feasible
    assert out.cut_sites == cold.cut_sites


def test_single_job_single_site():
    cluster = Cluster.from_matrices([1.5], [[1.0]])
    oracle = ParametricFeasibility(cluster)
    assert oracle.probe(np.array([1.5])).feasible
    assert not oracle.probe(np.array([1.6])).feasible
    assert oracle.probe(np.array([0.0])).feasible


def test_observed_cut_screens_without_flow_solve():
    cluster = Cluster.from_matrices([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    oracle = ParametricFeasibility(cluster)
    oracle.observe_cut({0, 1})  # total capacity 2.0
    out = oracle.probe(np.array([5.0, 5.0]))
    assert not out.feasible
    assert out.mode == "cut-reject"
    assert oracle.stats.cut_rejects == 1
    # the screen is advisory only: the verdict still matches a cold solve
    assert _cold_outcome(cluster, [5.0, 5.0]).feasible is False


class _ColdFeasibility:
    """The reference oracle behind the solver's probe interface: every
    probe and every realization is a fresh ``FeasibilityNetwork`` + Dinic
    from zero flow — no warm flow, no screens, no folding."""

    def __init__(self, cluster, cut_sets=()):
        self.cluster = cluster
        self.stats = ProbeStats()

    def probe(self, targets, *, need_cut=False):
        return _cold_outcome(self.cluster, targets)

    def allocation_matrix(self, levels):
        network = build_network(self.cluster, np.asarray(levels, dtype=float))
        return network.allocation_matrix() if network.solve().feasible else None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_amf_levels_match_cold_reference(seed, monkeypatch):
    cluster = generate_cluster(
        WorkloadSpec(n_jobs=25, n_sites=6, theta=1.2), np.random.default_rng(seed)
    )
    d_par, d_ref = AmfDiagnostics(), AmfDiagnostics()
    lv_par = amf_levels(cluster, diagnostics=d_par)
    bisect_par = amf_levels_bisect(cluster)
    agg_par = solve_amf(cluster).aggregates
    assert d_par.probes_reused > 0  # the warm machinery actually engaged

    monkeypatch.setattr(amf, "ParametricFeasibility", _ColdFeasibility)
    lv_ref = amf_levels(cluster, diagnostics=d_ref)
    assert d_ref.probes_reused == d_ref.probes_cold == 0  # the reference really is cold
    np.testing.assert_allclose(lv_par, lv_ref, atol=1e-8, rtol=1e-9)
    # identical probe-for-probe behaviour, not just identical answers
    assert d_par.feasibility_solves == d_ref.feasibility_solves
    np.testing.assert_allclose(bisect_par, amf_levels_bisect(cluster), atol=1e-7, rtol=1e-7)
    np.testing.assert_allclose(agg_par, solve_amf(cluster).aggregates, atol=1e-7)


def test_degenerate_instances_stop_at_the_model_boundary():
    """Zero-capacity sites / empty clusters never reach the oracle."""
    with pytest.raises(Exception, match="capacity must be positive"):
        Cluster.from_matrices([0.0, 1.0], [[1.0, 1.0]])
    with pytest.raises(Exception, match="at least one site"):
        Cluster([], [])
    # the in-model degenerates the oracle must survive: zero targets
    cluster = Cluster.from_matrices([1.0], [[1.0]])
    out = ParametricFeasibility(cluster).probe(np.zeros(1), need_cut=True)
    assert out.feasible and out.flow_value == 0.0


def test_probe_stats_track_reuse():
    cluster = Cluster.from_matrices([2.0, 2.0], [[1.0, 1.0], [1.0, 1.0]])
    oracle = ParametricFeasibility(cluster)
    oracle.probe(np.array([1.0, 1.0]))
    oracle.probe(np.array([0.5, 0.5]))  # dominated by the last feasible probe
    assert oracle.stats.early_accepts == 1
    assert oracle.stats.probes == 2


# -- the array-built network is the edge-appending loop's network ---------

_GRAPH_ARRAYS = ("to", "orig", "cap", "adj", "indptr")
_ORACLE_ARRAYS = (
    "_source_eids",
    "_site_eids",
    "_sup_eids",
    "_sup_job",
    "_sup_site",
    "_folded_idx",
    "_folded_site",
    "_folded_cap",
    "_multi_idx",
)
_ORACLE_LISTS = ("_job_edges", "_site_edges", "_source_eids_list", "_site_eids_list")


def _assert_same_network(cluster):
    got, want = ParametricFeasibility(cluster), reference_oracle(cluster)
    for name in _GRAPH_ARRAYS:
        a, b = getattr(got._graph, name), getattr(want._graph, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got._graph.n_nodes == want._graph.n_nodes
    for name in _ORACLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in _ORACLE_LISTS:
        assert getattr(got, name) == getattr(want, name), name
    assert (got._src, got._site0, got._snk) == (want._src, want._site0, want._snk)
    return got


def test_network_matches_reference_construction():
    rng = np.random.default_rng(77)
    for _ in range(40):
        _assert_same_network(random_cluster(rng, cap_prob=float(rng.choice([0.0, 0.6]))))
        _assert_same_network(random_two_resource(rng))
    spec = WorkloadSpec(n_jobs=30, n_sites=7, site_spread=3, theta=1.0)
    _assert_same_network(generate_cluster(spec, rng))


def test_network_matches_reference_on_deciding_cases():
    sites = [Site("A", 2.0), Site("B", 3.0), Site("idle", 1.0)]
    # an explicit 0.0 cap keeps its (zero-capacity) arc; ``idle`` has no jobs
    zero = _assert_same_network(Cluster(sites, [Job("x", {"B": 1.0, "A": 1.0}, demand={"B": 0.0})]))
    assert zero._sup_site.tolist() == [0, 1]
    assert zero._graph.orig[zero._sup_eids].tolist() == [2.0, 0.0]
    assert zero._site_edges[2] == []
    # every job single-site: k_multi == 0, only the m sink arcs remain
    folded = _assert_same_network(Cluster(sites, [Job("x", {"A": 1.0}), Job("y", {"B": 1.0})]))
    assert folded._sup_eids.size == 0 and folded._graph.n_edges == 3
    _assert_same_network(Cluster(sites, []))  # n_jobs == 0


def test_reachability_sweep_runs_once_per_infeasible_probe(monkeypatch):
    """``need_cut`` buys a min cut on an infeasible verdict only: through one
    ``amf_levels`` solve the graph is swept exactly once per flow-refuted
    probe, and feasible probes carry empty cuts in both modes."""
    sweeps, outcomes = [], []
    real_reach, real_probe = ArrayFlowGraph.reachable_from, ParametricFeasibility.probe
    monkeypatch.setattr(ArrayFlowGraph, "reachable_from", lambda g, s: sweeps.append(s) or real_reach(g, s))

    def recorded(self, targets, *, need_cut=False):
        out = real_probe(self, targets, need_cut=need_cut)
        outcomes.append((need_cut, out))
        return out

    monkeypatch.setattr(ParametricFeasibility, "probe", recorded)
    cluster = generate_cluster(WorkloadSpec(n_jobs=25, n_sites=6, theta=1.2), np.random.default_rng(1))
    amf_levels(cluster)
    refuted = [out for _, out in outcomes if not out.feasible and out.mode.startswith("flow")]
    accepted = [(need, out) for need, out in outcomes if out.feasible]
    assert refuted and any(need for need, _ in accepted)  # both kinds occurred
    assert len(sweeps) == len(refuted)
    assert all(out.cut_sites for out in refuted)
    assert all(out.cut_sites == out.cut_jobs == frozenset() for _, out in accepted)
    assert {need for need, _ in accepted} == {True, False}


def test_bisect_never_asks_for_a_cut_it_would_not_get(monkeypatch):
    """``amf_levels_bisect`` reads a probe's cut only at a level it has just
    seen fail, so skipping the sweep on feasible verdicts cannot move its
    levels: on 60 seeded draws every ``need_cut`` probe it makes is refuted."""
    asked = []
    real_probe = ParametricFeasibility.probe

    def recorded(self, targets, *, need_cut=False):
        out = real_probe(self, targets, need_cut=need_cut)
        if need_cut:
            asked.append(out.feasible)
        return out

    monkeypatch.setattr(ParametricFeasibility, "probe", recorded)
    rng = np.random.default_rng(404)
    for _ in range(60):
        amf_levels_bisect(random_cluster(rng, cap_prob=0.6))
    assert len(asked) >= 60 and not any(asked)
