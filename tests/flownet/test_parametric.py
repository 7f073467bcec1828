"""Property tests: the parametric oracle is verdict-identical to cold solves.

The acceptance bar for the warm engine: on any probe sequence, the
``feasible`` bit returned by :class:`ParametricFeasibility` must be
*bit-identical* to what a cold ``build_network(...).solve()`` on the
dict-keyed reference stack (fresh pointer graph + Dinic from zero flow)
returns for the same targets — no matter in which order the probes
arrive, and whether the flow solve behind the verdict started warm or cold.
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
    # bisection hits (0 and 1).
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
def test_probes_return_the_cold_min_cut(case):
    """Every warm verdict surfaces the same minimal cut as a cold solve."""
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets)
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
    arm (every job folded) — the deterministic test below pins that the arm
    fires.
    """
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets)
        assert warm.feasible is cold.feasible
        _assert_cut_matches(warm, cold)
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-8)
    assert oracle.stats.feasibility_solves == len(probes)


def test_falling_probe_fires_the_rollback_arm():
    """A two-site job never folds; the saturating opener carries flow 2.0 and
    the undercut probe installs capacity below it, so ``rolled=True`` must
    cancel the excess locally — and the verdicts still bit-match cold."""
    cluster = Cluster.from_matrices([1.0, 1.0], [[1.0, 1.0]])
    oracle = ParametricFeasibility(cluster)
    for targets in ([10.0], [0.5], [0.0]):
        cold = _cold_outcome(cluster, targets)
        warm = oracle.probe(targets)
        assert warm.feasible is cold.feasible
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-9)
    assert oracle.stats.probe_rollbacks >= 1


@settings(max_examples=30, deadline=None)
@given(clusters_and_probes())
def test_feasible_flow_value_matches_demand(case):
    cluster, probes = case
    oracle = ParametricFeasibility(cluster)
    for targets in probes:
        out = oracle.probe(targets)
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
    assert oracle.stats.jobs_folded == 3
    assert oracle.probe(np.array([1.0, 1.0, 1.0])).feasible
    out = oracle.probe(np.array([2.0, 1.0, 2.0]))
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


@pytest.fixture(scope="module")
def zipf_cluster():
    return generate_cluster(WorkloadSpec(n_jobs=100, n_sites=20, theta=1.2), np.random.default_rng(0))


def test_first_probe_of_a_fresh_oracle_is_a_cold_flow(zipf_cluster):
    outcome = ParametricFeasibility(zipf_cluster).probe(zipf_cluster.aggregate_demand * 0.2)
    assert outcome.demanded > 0 and outcome.mode == "flow-cold"


def test_ascending_then_bisecting_schedule_matches_fresh_oracles(zipf_cluster):
    """One oracle across an AMF-like λ schedule (six rising probes, then six
    halving ones, as when bisection keeps failing high) answers every probe
    as a fresh oracle does."""
    weights, caps = zipf_cluster.weights, zipf_cluster.aggregate_demand
    hi = float(np.max(caps / np.maximum(weights, 1e-12)))
    lams = [lam * hi for lam in np.linspace(0.05, 0.6, 6)] + [hi * 0.5**k for k in range(1, 7)]
    oracle = ParametricFeasibility(zipf_cluster)
    warm = [oracle.probe(np.minimum(lam * weights, caps)).feasible for lam in lams]
    cold = [ParametricFeasibility(zipf_cluster).probe(np.minimum(lam * weights, caps)).feasible for lam in lams]
    assert warm == cold
    assert True in warm and False in warm


class _ColdFeasibility:
    """The reference oracle behind the solver's probe interface: every
    probe and every realization is a fresh ``FeasibilityNetwork`` + Dinic
    from zero flow — no warm flow, no folding.  It counts only the probes
    it is asked into ``stats``, as the solver's oracle does."""

    def __init__(self, cluster, stats=None):
        self.cluster = cluster
        self.stats = ProbeStats() if stats is None else stats

    def probe(self, targets):
        self.stats.feasibility_solves += 1
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
    assert d_par.probes_warm > 0  # the warm machinery actually engaged

    monkeypatch.setattr(amf, "ParametricFeasibility", _ColdFeasibility)
    lv_ref = amf_levels(cluster, diagnostics=d_ref)
    assert d_ref.probes_warm == d_ref.probes_cold == 0  # the reference really is cold
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
    out = ParametricFeasibility(cluster).probe(np.zeros(1))
    assert out.feasible and out.flow_value == 0.0


def test_probe_stats_track_reuse():
    cluster = Cluster.from_matrices([2.0, 2.0], [[1.0, 1.0], [1.0, 1.0]])
    oracle = ParametricFeasibility(cluster)
    oracle.probe(np.array([1.0, 1.0]))
    out = oracle.probe(np.array([0.5, 0.5]))  # below the flow it holds: a warm solve after a rollback
    assert out.feasible and out.mode == "flow-warm"
    st = oracle.stats
    assert (st.feasibility_solves, st.probes_cold, st.probes_warm, st.probe_rollbacks) == (2, 1, 1, 1)


def test_counts_into_the_record_it_is_given():
    """The fill passes its ``AmfDiagnostics``: the oracle counts straight into it."""
    cluster = Cluster.from_matrices([2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]])
    diag = AmfDiagnostics(jobs_folded=2)
    oracle = ParametricFeasibility(cluster, diag)
    assert oracle.stats is diag and diag.jobs_folded == 3
    oracle.probe(np.array([1.0, 1.0]))
    assert (diag.feasibility_solves, diag.probes_cold, diag.probes_warm) == (1, 1, 0)


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
    # the rollback walks are built by the first rollback, not by the constructor
    assert got._job_edges is None and got._site_edges is None
    got._walks()
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
    assert folded._sup_eids.size == 0 and folded._graph.to.size == 2 * 3
    _assert_same_network(Cluster(sites, []))  # n_jobs == 0


def test_reachability_sweep_runs_once_per_infeasible_probe(monkeypatch):
    """Every flow-refuted probe carries its minimal cut, and a feasible probe
    skips the reachability sweep: through one ``amf_levels`` solve the graph
    is swept exactly once per flow-refuted probe, and feasible probes carry
    empty cuts."""
    sweeps, outcomes = [], []
    real_reach, real_probe = ArrayFlowGraph.reachable_from, ParametricFeasibility.probe
    monkeypatch.setattr(ArrayFlowGraph, "reachable_from", lambda g, s: sweeps.append(s) or real_reach(g, s))

    def recorded(self, targets):
        out = real_probe(self, targets)
        outcomes.append(out)
        return out

    monkeypatch.setattr(ParametricFeasibility, "probe", recorded)
    cluster = generate_cluster(WorkloadSpec(n_jobs=25, n_sites=6, theta=1.2), np.random.default_rng(1))
    amf_levels(cluster)
    refuted = [out for out in outcomes if not out.feasible]
    accepted = [out for out in outcomes if out.feasible]
    assert refuted and accepted  # both kinds occurred
    assert len(sweeps) == len(refuted)
    assert all(out.cut_sites for out in refuted)
    assert all(out.cut_sites == out.cut_jobs == frozenset() for out in outcomes if out.feasible)


# -- a flow seeded from a previous split ------------------------------------


@st.composite
def previous_splits(draw):
    """A cluster, the split a previous state of it was served, and targets.

    The previous state had other jobs (some departed since, so their rows
    must be dropped) and larger site capacities (since shrunk); jobs that
    arrived since have no row.  Its split is arbitrary non-negative noise,
    including entries above today's demand caps and off-support entries.
    """
    n_sites = draw(st.integers(min_value=1, max_value=4))
    names = [f"s{j}" for j in range(n_sites)]
    caps = [draw(st.floats(min_value=0.2, max_value=6.0)) for _ in range(n_sites)]

    def job(name):
        support = sorted(draw(st.sets(st.sampled_from(names), min_size=1, max_size=n_sites)))
        demand = {s: draw(st.floats(min_value=0.05, max_value=3.0)) for s in support if draw(st.booleans())}
        return Job(name, {s: draw(st.floats(min_value=0.1, max_value=4.0)) for s in support}, demand)

    kept = [job(f"k{i}") for i in range(draw(st.integers(min_value=0, max_value=4)))]
    departed = [job(f"d{i}") for i in range(draw(st.integers(min_value=0, max_value=2)))]
    arrived = [job(f"a{i}") for i in range(draw(st.integers(min_value=0, max_value=2)))]
    if not kept + arrived:
        arrived = [job("a")]
    grown = [Site(s, c * draw(st.sampled_from([1.0, 1.5, 3.0]))) for s, c in zip(names, caps)]
    before = Cluster(grown, departed + kept)
    noise = np.array(
        [[draw(st.floats(min_value=0.0, max_value=8.0)) for _ in names] for _ in before.jobs]
    ).reshape(before.n_jobs, n_sites)
    cluster = Cluster([Site(s, c) for s, c in zip(names, caps)], kept + arrived)
    fraction = draw(st.floats(min_value=0.0, max_value=1.2))
    return before, noise, cluster, fraction * cluster.aggregate_demand


@settings(max_examples=80, deadline=None)
@given(previous_splits())
def test_seeded_flow_is_feasible_and_probes_like_a_fresh_oracle(case):
    before, noise, cluster, targets = case
    basis = amf.CutBasis()
    basis.keep_split(before, noise)
    split = basis.split_on(cluster)
    assert split.shape == (cluster.n_jobs, cluster.n_sites)
    assert not split[[i for i, job in enumerate(cluster.jobs) if job.name.startswith("a")]].any()

    oracle = ParametricFeasibility(cluster)
    oracle.probe(np.zeros(cluster.n_jobs))  # the fill's floors check comes first
    oracle.seed(split, targets)
    g, tol = oracle._graph, 1e-12
    sup = g.flows(oracle._sup_eids)
    src = g.flows(oracle._source_eids)
    snk = g.flows(oracle._site_eids)
    assert (sup >= 0.0).all()
    assert (sup <= cluster.demand_caps[oracle._sup_job, oracle._sup_site] + tol).all()
    assert (src <= targets[oracle._multi_idx] + tol).all()
    *_, spare = oracle._folded_load(targets)
    assert (snk <= spare + tol).all()
    # conservation at every multi job and every site
    rows = np.bincount(oracle._sup_job, weights=sup, minlength=cluster.n_jobs)[oracle._multi_idx]
    np.testing.assert_allclose(src, rows, rtol=0, atol=tol)
    np.testing.assert_allclose(snk, np.bincount(oracle._sup_site, weights=sup, minlength=cluster.n_sites), atol=tol)

    got = oracle.probe(targets)
    want = ParametricFeasibility(cluster).probe(targets)
    assert got.feasible is want.feasible
    assert (got.cut_jobs, got.cut_sites) == (want.cut_jobs, want.cut_sites)
    assert got.flow_value == pytest.approx(want.flow_value, abs=1e-9)
    if src.sum() > 0.0:
        assert got.mode == "flow-warm"
    if got.feasible:
        alloc = oracle.allocation_matrix(targets)
        np.testing.assert_allclose(alloc.sum(axis=1), targets, atol=1e-9)
