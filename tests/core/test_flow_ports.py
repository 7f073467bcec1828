"""Differential tests: the property checkers and the completion-time add-on
on ``ArrayFlowGraph`` against the same questions asked of the dict-keyed
reference stack (tests/core/reference_flow.py).

Each test also asserts that both verdicts occur, so it cannot pass on a
corpus where every draw is trivially efficient, fair or uncontended.
"""

import numpy as np
import pytest

from repro.core import completion, properties
from repro.core.amf import amf_levels, solve_amf
from repro.core.persite import solve_psmf
from repro.core.policies import proportional_fallback
from repro.workload.generator import WorkloadSpec, generate_cluster
from tests.conftest import random_cluster
from tests.core.reference_flow import (
    reference_max_min_gains,
    reference_pareto_headroom,
    reference_solve_targets,
)


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


#: The binary-search tolerance each completion-time mode runs at.
CT_MODES = {"stretch": 1e-7, "stretch1": 1e-3, "makespan": 1e-7, "lexicographic": 1e-7}

#: An allocation this small on an edge where the job has work is flow
#: tolerance residue: the bounded flow's saturation check forgives a
#: shortfall of up to (edges x 1e-9 x supply), a few 1e-7 on these draws.
SLIVER = 1e-6


def check_completion_times(mode: str, draws: int, seed: int = 2028) -> int:
    """``optimize_completion_times(mode)`` against the same engine with
    ``_solve_targets`` swapped for the dict-keyed reference circulation.

    On every draw the aggregates equal ``levels`` up to the circulation's
    saturation window, and the mode's first-stage optimum (the largest
    ``T_i / ref_i``) agrees within 10x the search tolerance.  The per-job
    vector must agree to the same tolerance unless a split leaves a sliver
    (< ``SLIVER``) on a work edge: such a job's completion time is set by
    tolerance residue, and the criticality probes of the later stages
    decide at that residue, so the two kernels may pin different (tied)
    jobs.  Returns how many draws were compared job by job; ``draws=200``
    per mode is the acceptance corpus.
    """
    rtol = 10 * CT_MODES[mode]
    rng = np.random.default_rng(seed)
    exact, contended = 0, set()
    for cluster in _draws(rng, draws, n_jobs=6, n_sites=3):
        levels = amf_levels(cluster)
        got = completion.optimize_completion_times(cluster, levels, mode=mode)
        shipped = completion._solve_targets
        completion._solve_targets = reference_solve_targets
        try:
            want = completion.optimize_completion_times(cluster, levels, mode=mode)
        finally:
            completion._solve_targets = shipped

        served = levels > 1e-9
        n_edges = served.sum() + cluster.support[served].sum() + cluster.n_sites
        window = n_edges * 1e-9 * max(1.0, 2.0 * levels.sum())
        np.testing.assert_allclose(got.aggregates, levels, rtol=0, atol=window)

        t_got, t_want = got.completion_times(), want.completion_times()
        assert (np.isfinite(t_got) == np.isfinite(t_want)).all()
        ideal = completion._ideal_times(cluster, levels)
        ref = ideal if mode.startswith("stretch") else np.ones(cluster.n_jobs)
        timed = np.isfinite(t_want) & np.isfinite(ref)
        first_got, first_want = (np.max(t[timed] / ref[timed], initial=0.0) for t in (t_got, t_want))
        assert first_got == pytest.approx(first_want, rel=rtol)
        # contended: site capacity keeps the optimum above the proportional split's
        contended.add(first_want > (1.0 + rtol) * np.max(ideal[timed] / ref[timed], initial=0.0))

        work = (cluster.workloads > 0.0) & served[:, None]
        if (got.matrix[work] < SLIVER).any() or (want.matrix[work] < SLIVER).any():
            continue
        exact += 1
        np.testing.assert_allclose(t_got[timed], t_want[timed], rtol=rtol)
    assert 0 < exact < draws  # both sliver and fully compared draws occurred
    assert contended == {True, False}
    return exact


@pytest.mark.parametrize("mode", sorted(CT_MODES))
def test_completion_times_match_the_reference(mode):
    check_completion_times(mode, draws=40)
