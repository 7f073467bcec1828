"""Differential tests on the same random corpus: the property checkers on
``ArrayFlowGraph`` against the same questions asked of the dict-keyed
reference stack (tests/core/reference_flow.py), and the completion-time
add-on against an LP referee (HiGHS through ``scipy.optimize.linprog``) and
against the bisection engine it replaced (tests/core/reference_completion.py).

Each test also asserts that every kind of draw it distinguishes occurs, so
it cannot pass on a corpus where every draw is trivially efficient, fair,
uncontended or free of ties.
"""

from itertools import islice

import numpy as np
import pytest
from scipy.optimize import linprog

from repro._util import ABS_TOL
from repro.core import completion, properties
from repro.core.allocation import Allocation
from repro.core.amf import amf_levels, solve_amf
from repro.core.persite import solve_psmf
from repro.core.policies import proportional_fallback
from repro.workload.generator import WorkloadSpec, generate_cluster
from tests.conftest import random_cluster
from tests.core.reference_completion import SEARCH_RTOL, bisection_completion
from tests.core.reference_flow import reference_max_min_gains, reference_pareto_headroom


def _draws(rng, count, n_jobs=8, n_sites=4):
    """``random_cluster`` at ``cap_prob`` 0 and 0.6, and Zipf ``WorkloadSpec``
    clusters without and with weights, in rotation."""
    for k in range(count):
        kind = k % 4
        if kind < 2:
            yield random_cluster(rng, cap_prob=(0.0, 0.6)[kind])
        else:
            spec = WorkloadSpec(
                n_jobs=n_jobs, n_sites=n_sites, theta=1.2, site_spread=2, weight_spread=2.0 * (kind - 2)
            )
            yield generate_cluster(spec, rng)


def test_property_checkers_match_the_reference():
    """504 draws x (AMF, PSMF, proportional): headroom and every job's
    max-min gain equal the reference's within 1e-9 x total capacity, and
    the verdicts are identical."""
    rng = np.random.default_rng(2027)
    pareto_seen, fair_seen = set(), set()
    for cluster in _draws(rng, 504):
        tol = properties.PROPERTY_TOL * max(1.0, cluster.total_capacity)
        for alloc in (solve_amf(cluster), solve_psmf(cluster), proportional_fallback(cluster)):
            slack = 1e-9 * cluster.total_capacity
            headroom, ref_headroom = properties.pareto_headroom(alloc), reference_pareto_headroom(alloc)
            assert headroom == pytest.approx(ref_headroom, rel=0, abs=slack)
            gains, ref_gains = properties.max_min_gains(alloc), reference_max_min_gains(alloc)
            np.testing.assert_allclose(gains, ref_gains, rtol=0, atol=slack)

            pareto = properties.is_pareto_efficient(alloc)
            assert pareto == (ref_headroom <= tol)
            fair = properties.is_max_min_fair(alloc)
            assert fair == (not (ref_gains > tol).any())
            pareto_seen.add(pareto)
            fair_seen.add(fair)
    assert pareto_seen == fair_seen == {True, False}


#: Each mode's reference scale and stage limit, as ``optimize_completion_times`` runs it.
ROUNDS = {"stretch": None, "stretch1": 1, "makespan": 1, "lexicographic": None}

#: The two acceptance corpora: ``(seed, n_jobs, n_sites)`` of ``_draws``.
CORPORA = ((2028, 6, 3), (7, 8, 4))


def _lp_max(cluster, levels, lower, rate, edge=None) -> float:
    """The LP's largest ``λ`` over splits with aggregates ``levels``, the demand
    caps and the capacities, where each work edge carries at least
    ``lower + λ * rate``; with ``edge``, the largest flow on that edge (no ``λ``)."""
    rows, cols = np.nonzero(cluster.support & (levels > 0.0)[:, None])
    n_x = rows.size
    caps = cluster.demand_caps[rows, cols]
    objective = np.zeros(n_x + 1)
    objective[n_x if edge is None else edge] = -1.0
    jobs = np.flatnonzero(levels > 0.0)
    a_eq = np.zeros((jobs.size, n_x + 1))
    a_eq[np.searchsorted(jobs, rows), np.arange(n_x)] = 1.0
    sloped = np.flatnonzero(rate > 0.0)
    a_ub = np.zeros((cluster.n_sites + sloped.size, n_x + 1))
    a_ub[cols, np.arange(n_x)] = 1.0
    a_ub[cluster.n_sites + np.arange(sloped.size), sloped] = -1.0
    a_ub[cluster.n_sites + np.arange(sloped.size), n_x] = rate[sloped]
    b_ub = np.concatenate([cluster.capacities, np.zeros(sloped.size)])
    bounds = [*zip(np.minimum(lower, caps), caps), (0.0, None if edge is None else 0.0)]
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=levels[jobs], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def _referee(cluster, levels, ref, stages) -> None:
    """Replay ``stages`` against the LP: each stage value is the LP's max
    ``λ = 1 / t``; each job pinned at a stage is critical (with the others
    held at the stage, the LP cannot cut its deadline by 1e-6 relative); each
    starved job has a work edge the LP cannot feed beyond 1e-9."""
    rows, cols = np.nonzero(cluster.support & (levels > 0.0)[:, None])
    work = cluster.workloads[rows, cols]
    active = (levels > ABS_TOL) & np.isfinite(ref) & (ref > 0.0)
    lower = np.zeros(rows.size)  # the pinned jobs' lower bounds
    for t, jobs in stages:
        if np.isinf(t):
            free = np.zeros(rows.size)
            for i in np.flatnonzero(jobs):
                feeds = [_lp_max(cluster, levels, lower, free, edge=e) for e in np.flatnonzero(rows == i)]
                assert min(feeds) <= 1e-9, (i, feeds)
        else:
            rate = np.where(active[rows], work / np.where(active, ref, 1.0)[rows], 0.0)
            assert _lp_max(cluster, levels, lower, rate) == pytest.approx(1.0 / t, rel=1e-9)
            held = lower + rate / t
            for i in np.flatnonzero(jobs):
                mine = rows == i
                alone = _lp_max(cluster, levels, np.where(mine, lower, held), np.where(mine, rate, 0.0))
                assert alone < 1.0 / (t * (1.0 - 1e-6)), i
            lower = np.where(jobs[rows], work / (t * ref[rows]), lower)
        active &= ~jobs


def _lex_le(got, want, rtol) -> bool:
    """Descending-sorted ``got`` is lexicographically at most ``want``,
    entries within ``rtol`` counting as equal (and ``inf`` equal to ``inf``)."""
    for x, y in zip(-np.sort(-got), -np.sort(-want)):
        if x == y or abs(x - y) <= rtol * abs(y):
            continue
        return x < y
    return True


def _completion_times(cluster, matrix) -> np.ndarray:
    """``T_i = max_j w_ij / a_ij`` of a raw matrix (``inf`` on a starved edge)."""
    W = cluster.workloads
    with np.errstate(divide="ignore", invalid="ignore"):
        per_edge = np.where(W > 0.0, W / matrix, 0.0)
    return per_edge.max(axis=1)


def check_completion_times(
    mode: str, draws: int, seed: int = 2028, n_jobs: int = 6, n_sites: int = 3, *, skip: int = 0
) -> dict:
    """``optimize_completion_times(mode)`` on draws ``skip`` to ``draws - 1``
    of ``_draws``: exact splits, the LP referee (:func:`_referee`) on every
    stage, and the bisection engine as the differential.

    Exact: aggregates equal ``levels`` within 1e-12 * max(1, level), site
    usage stays within capacity * (1 + 1e-12), every finite ``T_i`` meets the
    deadline its stage pinned within 1e-12 relative, and a job pinned as
    starved has ``T_i = inf``.

    Against the bisection engine (a job the exact engine starves is starved
    in every exact split, so its bisection sliver counts as ``inf``): on a
    draw where the bisection took its tie fallback, the sorted objective
    ``T_i / ref_i`` is lexicographically at most the bisection's (entries
    within 1e-5 relative, the bisection's probe step, count as equal), and
    smaller by more than 1e-4 relative on at least one such draw.
    Elsewhere, in the modes that recurse, ``T_i`` agrees to 1e-5 relative
    for every job whose work edges all carry >= 1e-3 x its level in both
    splits; below that the bisection split borrows from the circulation's
    saturation window.  Where the bisection split's aggregate shortfall,
    over the job's smallest edge, exceeds 1e-5, that ratio is the bound
    instead (``stretch`` peaks at 9.9e-6 on the acceptance corpora, where
    it never applies; ``lexicographic`` at 1.4e-5 under a ratio of 7.1e-5).
    In the one-stage modes the stage value agrees to 1e-5 relative (1e-2
    for ``stretch1``, whose bisection stopped at 1e-3) where the critical
    jobs are fed in both splits and no job starves: the bisection prices a
    starved edge as a window-sized sliver, which then sets its whole stage.

    Returns the draw counts by kind (``tie``, ``starved``, ``plain``) and how
    many draws the tie comparison found strictly better.
    """
    rng = np.random.default_rng(seed)
    counts = dict(tie=0, starved=0, plain=0, better=0)
    for cluster in islice(_draws(rng, draws, n_jobs=n_jobs, n_sites=n_sites), skip, None):
        levels = amf_levels(cluster)
        ideal = completion._ideal_times(cluster, levels)
        ref = ideal if mode.startswith("stretch") else np.ones(cluster.n_jobs)
        matrix, stages = completion._lex_engine(cluster, levels, ref, rounds=ROUNDS[mode])
        got = Allocation(cluster, matrix)

        assert (np.abs(got.aggregates - levels) <= 1e-12 * np.maximum(1.0, levels)).all()
        assert (matrix.sum(axis=0) <= cluster.capacities * (1 + 1e-12)).all()
        deadline = np.full(cluster.n_jobs, np.inf)
        for t, jobs in stages:
            deadline[jobs] = t * ref[jobs]
        active = (levels > ABS_TOL) & np.isfinite(ref) & (ref > 0.0)
        starved = np.zeros(cluster.n_jobs, dtype=bool)
        for t, jobs in stages:
            starved |= jobs & np.isinf(t)
        rest = active & ~starved
        if ROUNDS[mode] == 1 and rest.any():  # the one stage's value binds every job it did not pin
            deadline[rest] = max(t for t, _ in stages if np.isfinite(t)) * ref[rest]
        t_got = got.completion_times()
        timed = np.isfinite(deadline)
        assert (t_got[timed] <= deadline[timed] * (1 + 1e-12)).all()
        assert np.isinf(t_got[starved]).all()
        _referee(cluster, levels, ref, stages)

        want, tied = bisection_completion(cluster, levels, mode)
        t_want = np.where(starved, np.inf, _completion_times(cluster, want))
        kind = "tie" if tied else "starved" if starved.any() else "plain"
        counts[kind] += 1
        goal_got, goal_want = t_got[active] / ref[active], t_want[active] / ref[active]
        if tied:
            assert _lex_le(goal_got, goal_want, rtol=1e-5)
            counts["better"] += not _lex_le(goal_want, goal_got, rtol=1e-4)
            continue
        work = cluster.workloads > 0.0
        fed = ~(work & ((matrix < 1e-3 * levels[:, None]) | (want < 1e-3 * levels[:, None]))).any(axis=1)
        if ROUNDS[mode] is None:
            # what the bisection split borrowed from the window, over each job's smallest edge
            borrowed = np.abs(want.sum(axis=1) - levels).sum() / np.where(work, want, np.inf).min(axis=1)
            check = fed & active
            gap = np.abs(t_got[check] - t_want[check])
            assert (gap <= np.maximum(1e-5, borrowed[check]) * t_want[check]).all()
        elif not starved.any() and fed[stages[-1][1]].all():
            first_got, first_want = (np.max(g, initial=0.0) for g in (goal_got, goal_want))
            assert first_got == pytest.approx(first_want, rel=max(10 * SEARCH_RTOL[mode], 1e-5))
    return counts


def acceptance() -> None:
    """Both 200-draw corpora in every mode; ties, starved draws and plain
    draws all occur, and the tie comparison is strict on some draw."""
    for seed, n_jobs, n_sites in CORPORA:
        for mode in ROUNDS:
            counts = check_completion_times(mode, 200, seed, n_jobs, n_sites)
            print(seed, mode, counts)
            assert counts["starved"] > 0 and counts["plain"] > 0, (seed, mode)
            if ROUNDS[mode] is None:
                assert counts["tie"] > 0 and counts["better"] > 0, (seed, mode)


@pytest.mark.parametrize("mode", sorted(ROUNDS))
def test_completion_times_match_the_reference(mode):
    """Draws 60-89 of the 6 x 3 corpus, where both recursing modes tie;
    :func:`acceptance` runs all 400 draws."""
    counts = check_completion_times(mode, 90, skip=60)
    assert counts["starved"] > 0 and counts["plain"] > 0
    if ROUNDS[mode] is None:
        assert counts["tie"] > 0
