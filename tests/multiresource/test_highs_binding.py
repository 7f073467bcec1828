"""The AMRF engine's direct HiGHS call against ``scipy.optimize.linprog``.

The engine hands each LP to HiGHS through the binding ``linprog`` itself
uses.  Here every LP it issues is captured at ``_EngineLP.solve`` and posed
again the way ``linprog`` takes it: one dense ``A_ub`` (the site-resource
capacity block, then the LP's own share rows), a ``b_ub`` and a list of
``(low, high)`` bounds, built here from the cluster and shared with the
engine only through its variable order.  ``linprog(method="highs")`` on that
must give the same CSC matrix and bounds to HiGHS and the same answer back,
bit for bit: ``x``, the row duals and the verdict.
"""

from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import _linprog_highs, linprog
from scipy.sparse import csc_array

from repro.core.amf import AmfDiagnostics
from repro.core.enhanced import sharing_incentive_floors
from repro.multiresource import amrf_allocate, engine
from tests.multiresource.test_freeze import corpus_draw, vector_stream_states


def dense_lp(lp, c, held, held_rhs, *, fill=None, n_slack=0, slack_max=None, diag=None):
    """``(c, A_ub, b_ub, bounds)`` of one engine LP, for ``linprog``; ``t``
    is free with fill rows and pinned to 0 without."""
    cluster = lp.cluster
    t_max = 0.0 if fill is None else None
    J, C = cluster.job_resource_matrix, cluster.site_resource_matrix
    fill = np.zeros(0, dtype=int) if fill is None else fill
    n_col = lp.n_e + 1 + n_slack
    cap_rows, cap_rhs = [], []
    for j in range(cluster.n_sites):
        for r in range(J.shape[1]):
            row = np.zeros(n_col)
            at = np.flatnonzero(lp.ej == j)
            row[at] = J[lp.ei[at], r]
            if row.any():
                cap_rows.append(row)
                cap_rhs.append(C[j, r])
    own = np.zeros((held.size + fill.size, n_col))
    own[:, : lp.n_e] = -lp.share_rows[np.concatenate([held, fill])]
    own[held.size :, lp.n_e] = cluster.weights[fill]
    if n_slack:
        own[-n_slack:, lp.n_e + 1 :] = np.eye(n_slack)
    A = np.vstack([np.array(cap_rows).reshape(-1, n_col), own])
    b = np.concatenate([cap_rhs, held_rhs, np.zeros(fill.size)])
    caps = cluster.demand_caps
    bounds = [(0.0, caps[i, j]) for i, j in zip(lp.ei, lp.ej)]
    bounds += [(0.0, t_max)] + [(0.0, slack_max)] * n_slack
    return c, A, b, bounds


class Issued(NamedTuple):
    dense: tuple  # (c, A_ub, b_ub, bounds) for linprog
    model: list  # the HighsLp's CSC start/index/value, column and row upper bounds
    result: engine._LpResult
    n_slack: int


@pytest.fixture
def issued(monkeypatch):
    """Every LP the engine solves, as an :class:`Issued`."""
    calls, models = [], []
    solve, run = engine._EngineLP.solve, engine._run_highs

    def recording_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        dense = dense_lp(self, *args, **kwargs)
        calls.append(Issued(dense, models.pop(), result, kwargs.get("n_slack", 0)))
        return result

    def recording_run(model):
        a = model.a_matrix_
        arrays = [np.array(v) for v in (a.start_, a.index_, a.value_, model.col_upper_, model.row_upper_)]
        models.append(arrays)
        return run(model)

    monkeypatch.setattr(engine._EngineLP, "solve", recording_solve)
    monkeypatch.setattr(engine, "_run_highs", recording_run)
    return calls


def test_the_options_are_linprogs(monkeypatch):
    """The engine sets every option ``linprog`` sets, to the same value; a
    dropped one would fall back to HiGHS's default (``presolve="choose"``,
    output on)."""
    seen = []
    wrapper = _linprog_highs._highs_wrapper

    def recording(*args):
        seen.append(args[-1])
        return wrapper(*args)

    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", recording)
    linprog([1.0], A_ub=[[1.0]], b_ub=[1.0], method="highs")
    passed = {key: value for key, value in seen[0].items() if value is not None and key != "sense"}
    passed["presolve"] = "on" if passed["presolve"] else "off"  # how the wrapper spells it
    assert set(passed) == {"presolve", "simplex_strategy", "highs_debug_level", "output_flag", "log_to_console"}
    for key, value in passed.items():
        want = value if isinstance(value, (bool, str)) else int(value)
        assert getattr(engine._highs_options(), key) == want, key


def assert_bit_identical(calls) -> None:
    for (c, A, b, bounds), (start, index, value, col_upper, row_upper), got, _ in calls:
        csc = csc_array(A)
        assert np.array_equal(start, csc.indptr) and np.array_equal(index, csc.indices)
        assert np.array_equal(value, csc.data)
        assert np.array_equal(col_upper, [np.inf if hi is None else hi for _lo, hi in bounds])
        assert np.array_equal(row_upper, b)
        want = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert got.ok == want.success, (got.message, want.message)
        if want.success:
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.duals, want.ineqlin.marginals)


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_churn_vector_states(seed, issued):
    states = budget = 0
    for cluster in vector_stream_states(seed, n_ops=24):
        diag = AmfDiagnostics()
        amrf_allocate(cluster, diagnostics=diag)
        states += 1
        budget += diag.amrf_rounds + diag.amrf_probes
    assert states >= 16 and len(issued) == budget >= states
    assert_bit_identical(issued)


def test_random_crossing_dominance_clusters(issued):
    """Irreducible draws (no resource dominates), weights on odd seeds,
    random task-rate floors on every fourth and AMF-E's sharing-incentive
    floors on every third; infeasible floors make both sides fail."""
    clusters = floored = 0
    for seed in range(260):
        draw = corpus_draw(seed)
        if draw is None:
            continue
        cluster, floors = draw
        clusters += 1
        runs = [floors] + ([sharing_incentive_floors(cluster)] if seed % 3 == 0 else [])
        for f in runs:
            floored += f is not None
            try:
                amrf_allocate(cluster, floors=f)
            except ValueError as err:
                assert "infeasible" in str(err)
    assert clusters >= 200 and floored >= 100
    headroom = [call for call in issued if call.n_slack]
    assert len(headroom) >= 5  # the aggregate headroom LP: slack columns, t pinned to 0
    assert all(call.dense[3][-call.n_slack - 1] == (0.0, 0.0) for call in headroom)
    assert sum(not call.result.ok for call in issued) >= 1  # failed LPs are compared too
    assert_bit_identical(issued)
