"""Tests for the completion-time add-on."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.amf import amf_levels
from repro.core.completion import optimize_completion_times, proportional_split
from repro.core.enhanced import sharing_incentive_floors
from repro.core.policies import POLICIES
from repro.flownet.bounded import bounded_flow
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.serialize import cluster_from_dict
from repro.model.site import Site

from tests.conftest import random_cluster


def uncontended() -> Cluster:
    return Cluster.from_matrices([10.0, 10.0], [[6.0, 2.0], [2.0, 6.0]])


def minimal_stretch(cluster: Cluster, levels: np.ndarray) -> tuple[float, np.ndarray]:
    """The smallest uniform stretch and a split that meets it, read off the
    ``stretch1`` split: ``sigma = max_i T_i * A_i / W_i`` over the jobs
    with a positive aggregate and a finite completion time (1 if none)."""
    alloc = optimize_completion_times(cluster, levels, mode="stretch1")
    t = alloc.completion_times()
    served = (levels > 0.0) & np.isfinite(t)
    stretch = t[served] * levels[served] / cluster.workloads.sum(axis=1)[served]
    return float(stretch.max(initial=1.0)), alloc.matrix


class TestMinimalStretch:
    def test_uncontended_stretch_is_one(self):
        c = uncontended()
        lv = amf_levels(c)
        sigma, matrix = minimal_stretch(c, lv)
        assert sigma == pytest.approx(1.0)
        # proportional split achieved: a_ij = A_i * w_ij / W_i
        W = c.workloads
        expected = lv[:, None] * W / W.sum(axis=1, keepdims=True)
        assert np.allclose(matrix, expected, atol=1e-5)

    def test_contention_forces_stretch(self):
        # both jobs want all their work at the tiny site
        c = Cluster.from_matrices([1.0, 10.0], [[9.0, 1.0], [9.0, 1.0]])
        lv = amf_levels(c)
        sigma, _ = minimal_stretch(c, lv)
        assert sigma > 1.5

    def test_zero_levels_ok(self):
        c = Cluster.from_matrices([1.0], [[1.0]], [[0.0]])
        sigma, matrix = minimal_stretch(c, amf_levels(c))
        assert matrix.shape == (1, 1)

    def test_stretch_matrix_preserves_aggregates(self, rng):
        for _ in range(10):
            c = random_cluster(rng, cap_prob=0.0)
            lv = amf_levels(c)
            _, matrix = minimal_stretch(c, lv)
            assert np.allclose(matrix.sum(axis=1), lv, atol=1e-5)


class TestOptimizeCompletionTimes:
    @pytest.mark.parametrize("mode", ["stretch", "stretch1", "makespan", "lexicographic"])
    def test_modes_preserve_aggregates(self, mode, rng):
        for _ in range(5):
            c = random_cluster(rng, cap_prob=0.0)
            lv = amf_levels(c)
            a = optimize_completion_times(c, lv, mode=mode)
            assert np.allclose(a.aggregates, lv, atol=1e-5)

    @pytest.mark.parametrize("mode", ["stretch", "stretch1", "makespan", "lexicographic"])
    def test_modes_preserve_aggregates_with_demand_caps(self, mode, rng):
        for _ in range(4):
            c = random_cluster(rng, cap_prob=0.6)
            lv = amf_levels(c)
            a = optimize_completion_times(c, lv, mode=mode)
            assert np.allclose(a.aggregates, lv, atol=2e-4)

    def test_unknown_mode_rejected(self):
        c = uncontended()
        with pytest.raises(ValueError, match="unknown completion-time mode"):
            optimize_completion_times(c, amf_levels(c), mode="nope")

    def test_policy_labels(self):
        c = uncontended()
        lv = amf_levels(c)
        assert optimize_completion_times(c, lv, mode="stretch").policy == "amf+ct:stretch"
        assert optimize_completion_times(c, lv, mode="makespan").policy == "amf+ct:makespan"

    def test_lexicographic_not_worse_than_makespan(self, rng):
        for _ in range(8):
            c = random_cluster(rng, cap_prob=0.0)
            lv = amf_levels(c)
            lex = optimize_completion_times(c, lv, mode="lexicographic").completion_times()
            mk = optimize_completion_times(c, lv, mode="makespan").completion_times()
            finite = np.isfinite(lex) & np.isfinite(mk)
            if finite.any():
                assert np.max(lex[finite]) <= np.max(mk[finite]) * 1.001 + 1e-9

    def test_stretch_bounds_every_job(self, rng):
        """Every job's realized stretch is within the engine's first-stage optimum."""
        for _ in range(8):
            c = random_cluster(rng, cap_prob=0.0)
            lv = amf_levels(c)
            sigma, _ = minimal_stretch(c, lv)
            a = optimize_completion_times(c, lv, mode="stretch")
            ideal = c.workloads.sum(axis=1) / np.maximum(lv, 1e-12)
            t = a.completion_times()
            ok = lv > 1e-9
            assert (t[ok] <= sigma * ideal[ok] * 1.001 + 1e-9).all()

    def test_beats_arbitrary_split_on_makespan(self):
        """The add-on's makespan is no worse than the raw max-flow split's."""
        from repro.core.amf import solve_amf

        c = Cluster.from_matrices(
            [1.0, 1.0, 1.0],
            [[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]],
        )
        lv = amf_levels(c)
        raw = solve_amf(c).completion_times()
        opt = optimize_completion_times(c, lv, mode="makespan").completion_times()
        assert np.max(opt) <= np.max(raw) * 1.001 + 1e-9

    def test_wrong_levels_shape_rejected(self):
        with pytest.raises(ValueError, match="one entry per job"):
            optimize_completion_times(uncontended(), np.array([1.0]))


class TestStarvedEdges:
    """A work edge with a zero demand cap can never carry flow: its job never
    finishes, and the other jobs' splits are still optimized."""

    @staticmethod
    def capped_out() -> Cluster:
        sites = [Site("a", 2.0), Site("b", 2.0)]
        jobs = [Job("x", {"a": 1.0, "b": 1.0}, demand={"b": 0.0}), Job("y", {"a": 1.0})]
        return Cluster(sites, jobs)

    @pytest.mark.parametrize("policy", ["amf-ct", "amf-ct-quick", "amf-ct-makespan", "amf-ct-lex", "amf-e-ct"])
    def test_every_ct_policy_pins_the_job_at_inf(self, policy):
        c = self.capped_out()
        alloc = POLICIES[policy](c)
        t = alloc.completion_times()
        assert np.isinf(t[0]) and np.isfinite(t[1])
        np.testing.assert_allclose(alloc.aggregates, amf_levels(c), rtol=0, atol=1e-12)

    def test_minimal_stretch(self):
        c = self.capped_out()
        lv = amf_levels(c)
        sigma, matrix = minimal_stretch(c, lv)
        assert np.isfinite(sigma) and matrix[0, 1] == 0.0 and matrix[1, 0] > 0.0
        np.testing.assert_allclose(matrix.sum(axis=1), lv, rtol=0, atol=1e-12)


class TestLevelsValidated:
    def test_infeasible_levels_refused_after_one_circulation(self, monkeypatch):
        from repro.core import completion

        calls = []
        monkeypatch.setattr(completion, "bounded_flow", lambda *a: calls.append(a) or bounded_flow(*a))
        c = uncontended()
        with pytest.raises(ValueError, match="levels are not feasible"):
            optimize_completion_times(c, 2.0 * amf_levels(c))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize(
        "solve",
        [optimize_completion_times, minimal_stretch, proportional_split],
        ids=lambda fn: fn.__name__,
    )
    def test_non_finite_or_negative_level_rejected(self, solve, bad):
        c = uncontended()
        levels = amf_levels(c)
        levels[0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve(c, levels)


class TestVectorClustersRefused:
    """The split rules read scalar site capacities: a vector component is
    refused, as ``amf_levels`` refuses an irreducible one, instead of being
    split against a vector site's stand-in scalar."""

    @pytest.mark.parametrize("policy", ["amf-ct", "amf-e-ct", "amf-prop"])
    def test_policy_raises(self, policy):
        from tests.multiresource.test_engine import crossing_cluster

        with pytest.raises(ValueError, match="needs scalar capacities"):
            POLICIES[policy](crossing_cluster())

    def test_reducible_vector_cluster_raises(self):
        # cpu dominates everywhere, so amf_levels reduces it; the split does not
        c = Cluster(
            [Site("a", {"cpu": 4.0, "mem": 64.0}), Site("b", {"cpu": 6.0, "mem": 64.0})],
            [
                Job("j0", {"a": 10.0, "b": 5.0}, resources={"cpu": 2.0, "mem": 1.0}),
                Job("j1", {"a": 3.0, "b": 9.0}, resources={"cpu": 1.0, "mem": 1.0}),
            ],
        )
        with pytest.raises(ValueError, match="needs scalar capacities"):
            POLICIES["amf-ct"](c)


class TestProportionalSplit:
    def test_respects_invariants(self, rng):
        for _ in range(10):
            c = random_cluster(rng)
            lv = amf_levels(c)
            proportional_split(c, lv)  # Allocation constructor validates

    def test_undersupplies_at_hot_sites(self):
        # two jobs both proportionally target the tiny site beyond capacity
        c = Cluster.from_matrices([1.0, 10.0], [[5.0, 5.0], [5.0, 5.0]])
        lv = amf_levels(c)
        a = proportional_split(c, lv)
        assert a.aggregates.sum() < lv.sum() - 0.5

    def test_exact_when_uncontended(self):
        c = uncontended()
        lv = amf_levels(c)
        a = proportional_split(c, lv)
        assert np.allclose(a.aggregates, lv, atol=1e-8)

    def test_policy_label(self):
        c = uncontended()
        assert proportional_split(c, amf_levels(c)).policy == "amf+proportional"


class TestFederationPerComponent:
    """The add-on keeps the levels it splits on the 24-region federation
    (``tests/core/data/federation_gap.json``, 384 jobs x 96 sites): each
    aggregate equals its level within 1e-12 x max(1, level)
    (docs/contracts.md).  Run over the whole cluster, ``bounded_flow``'s
    accept window grows with the whole network's edge count times its
    supply, and ``stretch`` missed 5 jobs by up to 3.2e-4; each component
    has its own window."""

    @pytest.fixture(scope="class")
    def federation(self) -> Cluster:
        return cluster_from_dict(json.loads((Path(__file__).parent / "data" / "federation_gap.json").read_text()))

    @pytest.mark.parametrize(
        "policy",
        [
            "amf-ct",
            "amf-ct-quick",
            "amf-ct-makespan",
            "amf-e-ct",
            pytest.param(
                "amf-ct-lex",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 17: bounded_flow's accept window still grows with the "
                    "component's edge count, and one job misses by 3.4e-7 per component",
                ),
            ),
        ],
    )
    def test_aggregates_equal_the_levels(self, federation, policy):
        floors = sharing_incentive_floors(federation) if policy == "amf-e-ct" else None
        levels = amf_levels(federation, floors=floors)
        alloc = POLICIES[policy](federation)
        miss = np.abs(alloc.aggregates - levels) / np.maximum(1.0, levels)
        assert float(miss.max()) <= 1e-12
