"""How an AMRF round decides who freezes: duals, witness, one aggregate LP.

The engine reads the freeze decision off the round's max-``t`` LP (a share
row with positive dual is tight at every optimum), lets the optimal vertex
witness headroom, and settles whoever is left with one aggregate headroom
LP.  The referee is the rule it replaced — one max-share probe LP per
candidate job — kept as the repo's LP oracle, :func:`tests.oracle.probe_fill_shares`,
which shares no code with the engine.  Compared here are the *fill* shares
(what ``_amrf_fill`` returns) and, on the served path, the shares of the
answer itself: the last round's optimal vertex, which ``amrf_allocate``
returns with no LP of its own, and which must realize the fill's shares.
"""

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.sparse import csc_array

from benchmarks.ledger import workloads
from repro.core.amf import AmfDiagnostics
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import amrf_allocate, engine, scalar_reduction
from repro.service.solver import IncrementalAmfSolver
from repro.service.state import ClusterState
from tests.oracle import probe_fill_shares
from tests.multiresource.test_engine import random_mr_cluster


def engine_fill(cluster, floors=None, resource_totals=None):
    """``(shares, diagnostics)`` of the engine's progressive filling alone."""
    diag = AmfDiagnostics()
    dom = cluster.dominant_factor(resource_totals)
    lp = engine._EngineLP(cluster, dom)
    share_floors = np.zeros(cluster.n_jobs)
    if floors is not None:
        share_floors = np.minimum(dom * floors, lp.share_caps)
    return engine._amrf_fill(lp, share_floors, diag)[0], diag


def corpus_draw(seed: int):
    """Draw ``seed`` of the random corpus: 2-24 jobs x 1-6 sites, weights on
    odd seeds, task-rate floors on every fourth; ``None`` when reducible."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 25)), int(rng.integers(1, 7))
    cluster = random_mr_cluster(rng, n, m, weights=bool(seed % 2))
    floors = rng.uniform(0.0, 0.3, n) * (rng.random(n) < 0.5) if seed % 4 == 0 else None
    if scalar_reduction(cluster) is not None:
        return None
    return cluster, floors


def assert_matches_probe_fill(cluster, floors=None, resource_totals=None) -> AmfDiagnostics:
    try:
        want, rounds = probe_fill_shares(cluster, floors, resource_totals)
    except ValueError:
        with pytest.raises(ValueError, match="infeasible"):
            engine_fill(cluster, floors, resource_totals)
        return AmfDiagnostics()
    got, diag = engine_fill(cluster, floors, resource_totals)
    assert np.abs(got - want).max(initial=0.0) <= 1e-9, (got, want)
    assert diag.amrf_rounds == rounds
    return diag


@pytest.fixture
def slack_columns(monkeypatch):
    """Records, per LP the engine solves, how many undecided jobs it asked
    about (0 for a round's max-``t`` LP)."""
    sizes: list[int] = []
    solve = engine._EngineLP.solve

    def recording(self, *args, n_slack=0, **kwargs):
        sizes.append(n_slack)
        return solve(self, *args, n_slack=n_slack, **kwargs)

    monkeypatch.setattr(engine._EngineLP, "solve", recording)
    return sizes


def vector_stream_states(seed: int, n_ops: int):
    """The ledger's ``churn_vector`` stream: the 16 x 6 ``crossing`` cluster
    with 0-6 transient jobs and flapping clones beside the standing ones."""
    inputs = workloads.build_inputs("churn_vector", seed, n_ops)
    state = ClusterState(inputs.cluster.sites, inputs.cluster.jobs)
    yield inputs.cluster
    for op in inputs.streams[0]:
        if op.event is not None:
            state.apply(op.event)
            yield state.snapshot()


class TestProbeFillDifferential:
    def test_random_corpus(self):
        compared = ran_aggregate = 0
        for seed in range(340):
            draw = corpus_draw(seed)
            if draw is None:
                continue
            diag = assert_matches_probe_fill(*draw)
            compared += diag.amrf_rounds > 0
            ran_aggregate += diag.amrf_probes > 0
        assert compared >= 300
        assert ran_aggregate >= 20  # the duals do not decide everything here

    def test_crossing_cluster_with_transient_arrivals(self):
        transients = set()
        for cluster in vector_stream_states(seed=5, n_ops=32):
            transients.add(cluster.n_jobs - workloads.VECTOR_JOBS)
            assert_matches_probe_fill(cluster)
        assert transients >= set(range(workloads.VECTOR_TRANSIENTS + 1))

    def test_draw_the_bisection_oracle_under_filled(self):
        """Draw k=41 of the engine tests' stream: the bisection oracle this
        one replaced read a failed HiGHS probe as "frozen" there and missed
        the engine by 0.199."""
        rng = np.random.default_rng(12345)
        for k in range(42):
            cluster = random_mr_cluster(rng, weights=bool(k % 2))
        assert scalar_reduction(cluster) is None
        assert assert_matches_probe_fill(cluster).amrf_rounds > 0

    def test_shard_denominators(self, rng):
        """Federation-wide totals (what a shard solve passes) reach both sides."""
        for _ in range(10):
            cluster = random_mr_cluster(rng, 8, 3)
            totals = {res: 3.0 * v for res, v in cluster.resource_totals.items()}
            if scalar_reduction(cluster, totals) is None:
                assert_matches_probe_fill(cluster, resource_totals=totals)

    def test_aggregate_lp_alone_decides_the_same(self, monkeypatch):
        """With the dual screen off every freeze goes through the witness and
        the aggregate LP — the path a degenerate vertex forces."""
        monkeypatch.setattr(engine, "_DUAL_TOL", np.inf)
        probes = 0
        for seed in range(60):
            draw = corpus_draw(seed)
            if draw is not None:
                probes += assert_matches_probe_fill(*draw).amrf_probes
        assert probes >= 50


class TestServedStream:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_served_shares_match_probe_fill(self, seed):
        """The service's own solver (component memo, federation totals) on
        the ``churn_vector`` stream: every answer's shares, solved or
        replayed, are the oracle's to 1e-9."""
        solver = IncrementalAmfSolver()
        solved = 0
        for cluster in vector_stream_states(seed, n_ops=40):
            lps = solver.stats.amrf_lps
            matrix = solver(cluster).matrix
            solved += solver.stats.amrf_lps > lps
            got = cluster.dominant_factor() * matrix.sum(axis=1)
            want, _ = probe_fill_shares(cluster)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert solved >= 16


class TestLpBudget:
    def test_lps_are_rounds_plus_aggregate_lps(self):
        for seed in range(80):
            draw = corpus_draw(seed)
            if draw is None:
                continue
            diag = AmfDiagnostics()
            try:
                amrf_allocate(draw[0], floors=draw[1], diagnostics=diag)
            except ValueError:
                continue
            assert diag.amrf_lps == diag.amrf_rounds + diag.amrf_probes
            assert diag.amrf_probes_skipped <= diag.amrf_rounds * draw[0].n_jobs

    def test_crossing_cluster_needs_at_most_three_lps(self):
        """One level freezes everyone on the ledger's vector cluster, and the
        duals of that round's LP say so: 1 LP where the per-job probes took
        one more per job."""
        for cluster in vector_stream_states(seed=7, n_ops=12):
            diag = AmfDiagnostics()
            amrf_allocate(cluster, diagnostics=diag)
            assert diag.amrf_lps == diag.amrf_rounds + diag.amrf_probes
            assert diag.amrf_lps <= 3, diag
            assert diag.amrf_probes_skipped >= cluster.n_jobs - 1

    def test_no_usable_edge_answers_zeros_with_no_lp(self):
        """Every job capped at 0 everywhere: no round runs, so no LP either."""
        sites = [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})]
        jobs = [
            Job("j0", {"a": 1.0, "b": 1.0}, demand={"a": 0.0, "b": 0.0}, resources={"cpu": 1.0, "mem": 4.0}),
            Job("j1", {"a": 1.0}, demand={"a": 0.0}, resources={"cpu": 4.0, "mem": 1.0}),
        ]
        cluster = Cluster(sites, jobs)
        assert scalar_reduction(cluster) is None
        diag = AmfDiagnostics()
        alloc = amrf_allocate(cluster, diagnostics=diag)
        assert np.array_equal(alloc.matrix, np.zeros((2, 2)))
        assert diag.amrf_lps == diag.amrf_rounds == 0


class TestAggregatePasses:
    """Seed-pinned draws, found by search, that take the aggregate LP's rarer
    branches.  If a HiGHS upgrade picks other vertices and a draw stops taking
    its branch, the structural assert fails: search ``corpus_draw`` again."""

    @pytest.mark.parametrize("seed", [385, 1582])
    def test_split_undecided_set_takes_a_second_pass(self, seed, slack_columns):
        """Some undecided jobs show headroom and leave unfrozen; the rest ask
        again, show none and freeze."""
        cluster, floors = corpus_draw(seed)
        assert_matches_probe_fill(cluster, floors)
        asked = [(a, b) for a, b in zip(slack_columns, slack_columns[1:]) if a and b]
        assert asked and all(a > b for a, b in asked), slack_columns

    def test_one_pass_releases_the_whole_undecided_set(self, slack_columns):
        """Bounded slacks let every job with headroom show it in the same LP
        (unbounded, the optimum piles it on one job per pass)."""
        cluster, floors = corpus_draw(1)
        diag = assert_matches_probe_fill(cluster, floors)
        assert diag.amrf_rounds == 2 and diag.amrf_probes == 1
        assert slack_columns[1] >= 5 and slack_columns[2] == 0, slack_columns


def floor_cluster(j0_sites) -> Cluster:
    sites = [
        Site("a", {"cpu": 8.0, "mem": 16.0}),
        Site("b", {"cpu": 4.0, "mem": 32.0}),
        Site("p", {"cpu": 6.0, "mem": 24.0}),
    ]
    jobs = [
        Job("j0", {s: 100.0 for s in j0_sites}, resources={"cpu": 1.0, "mem": 4.0}),
        Job("j1", {"a": 100.0, "b": 100.0}, resources={"cpu": 4.0, "mem": 1.0}),
        Job("j2", {"a": 100.0}, resources={"cpu": 2.0, "mem": 2.0}),
        Job("j3", {"a": 100.0}, resources={"cpu": 1.0, "mem": 3.0}),
    ]
    return Cluster(sites, jobs)


class TestFloors:
    """A job held at a floor above its fill level ``w_i t*``."""

    def test_floor_with_headroom_keeps_filling(self):
        # j0 runs only on its private site p: a floor of 5 tasks (share 5/18)
        # sits above the level 2/9 the contended jobs stop at, but p has room
        # for 6 — j0 must stay active and end at 1/3, not freeze at its floor.
        cluster = floor_cluster(["p"])
        floors = np.array([5.0, 0.0, 0.0, 0.0])
        diag = assert_matches_probe_fill(cluster, floors)
        shares, _ = engine_fill(cluster, floors)
        assert diag.amrf_rounds == 2
        assert shares == pytest.approx([1 / 3, 2 / 9, 2 / 9, 2 / 9], abs=1e-7)

    def test_binding_floor_without_headroom_freezes_at_the_floor(self):
        # 6.5 tasks exceed what p alone gives j0, so its floor takes from the
        # contended site a and binds: j0 freezes at the floor in round one.
        cluster = floor_cluster(["p", "a"])
        floors = np.array([6.5, 0.0, 0.0, 0.0])
        diag = assert_matches_probe_fill(cluster, floors)
        shares, _ = engine_fill(cluster, floors)
        assert diag.amrf_rounds == 2
        assert shares[0] == pytest.approx(6.5 * 4.0 / 72.0, abs=1e-9)
        assert (shares[1:] < shares[0]).all()


class TestRoundLpFailure:
    """Failures injected at the engine's HiGHS seam, ``engine._run_highs``."""

    def failing(self, monkeypatch):
        def run_highs(_model):
            return HighsModelStatus.kSolveError, None, None

        monkeypatch.setattr(engine, "_run_highs", run_highs)

    def test_without_floors_is_a_numeric_breakdown_not_infeasible_floors(self, monkeypatch):
        self.failing(monkeypatch)
        with pytest.raises(ValueError, match=r"numeric breakdown.*status 4") as err:
            amrf_allocate(floor_cluster(["p"]))
        assert "floors" not in str(err.value)

    def test_with_floors_blames_the_floors(self, monkeypatch):
        self.failing(monkeypatch)
        with pytest.raises(ValueError, match="floors are infeasible"):
            amrf_allocate(floor_cluster(["p"]), floors=np.array([5.0, 0.0, 0.0, 0.0]))

    def overfilling(self, monkeypatch, excess: float) -> list[float]:
        """HiGHS reports an optimum, but one edge is raised until the LP's
        tightest capacity row (the rows with a positive right-hand side)
        holds ``excess`` more than its capacity.  Returns each LP's breach."""
        run = engine._run_highs
        breaches = []

        def run_highs(model):
            status, x, duals = run(model)
            a = model.a_matrix_
            A = csc_array((a.value_, a.index_, a.start_), shape=(model.num_row_, model.num_col_)).toarray()
            rhs = np.asarray(model.row_upper_)
            over = np.where(rhs > 0.0, A @ x - rhs, -np.inf)
            r = int(np.argmax(over))
            e = int(np.argmax(A[r]))
            x = x.copy()
            x[e] += (excess - over[r]) / A[r, e]
            breaches.append(float((A @ x - rhs)[r]))
            return status, x, duals

        monkeypatch.setattr(engine, "_run_highs", run_highs)
        return breaches

    def test_an_optimum_that_breaks_a_capacity_row_is_a_numeric_breakdown(self, monkeypatch):
        breaches = self.overfilling(monkeypatch, 2.0 * engine._FEAS_TOL)
        with pytest.raises(ValueError, match=r"numeric breakdown.*status 7") as err:
            amrf_allocate(floor_cluster(["p"]))
        assert "floors" not in str(err.value)
        assert breaches == [pytest.approx(2.0 * engine._FEAS_TOL, rel=1e-6)]

    def test_a_breach_inside_the_tolerance_is_accepted(self, monkeypatch):
        """The post-check's tolerance is linprog's, not zero."""
        breaches = self.overfilling(monkeypatch, 0.5 * engine._FEAS_TOL)
        amrf_allocate(floor_cluster(["p"]))
        assert len(breaches) >= 2 and max(breaches) == pytest.approx(0.5 * engine._FEAS_TOL, rel=1e-6)
