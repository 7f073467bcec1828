"""Resource-vector v1 model layer: normalization, canonical scalar forms,
fingerprints and serialization round-trips.

The back-compat contract under test: a scalar cluster and its
``{"slots": x}`` spelling are *the same object* — equal dataclasses, equal
fingerprints, byte-identical wire forms — so every pre-vector cache key,
journal line and HTTP payload is untouched by the API redesign.
"""

import json
import math

import pytest

from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.resources import (
    ResourceError,
    ResourceMismatchError,
    UnknownResourceError,
    normalize_resources,
    scalar_equivalent,
)
from repro.model.serialize import cluster_from_dict, cluster_to_dict
from repro.model.site import Site


class TestNormalizeResources:
    def test_sorted_canonical_order(self):
        out = normalize_resources({"mem": 2, "cpu": 1}, "x")
        assert list(out) == ["cpu", "mem"]
        assert out == {"cpu": 1.0, "mem": 2.0}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_rejects_non_positive_and_non_finite(self, bad):
        with pytest.raises(ResourceError):
            normalize_resources({"cpu": bad}, "x")

    def test_nan_message_names_nan(self):
        with pytest.raises(ResourceError, match="NaN"):
            normalize_resources({"cpu": float("nan")}, "x")

    def test_rejects_bool_amounts(self):
        with pytest.raises(ResourceError):
            normalize_resources({"cpu": True}, "x")

    def test_empty_means_no_vector_declared(self):
        # Job's default ``resources={}`` flows through normalize unchanged:
        # "no vector" is a valid canonical state, not an error.
        assert normalize_resources({}, "x") == {}
        assert normalize_resources(None, "x") == {}

    def test_rejects_bad_keys_and_all_zero(self):
        with pytest.raises(ResourceError):
            normalize_resources({"": 1.0}, "x")
        with pytest.raises(ResourceError, match="positive entry"):
            normalize_resources({"cpu": 0.0}, "x", allow_zero=True)

    def test_allow_zero_drops_zero_entries(self):
        out = normalize_resources({"cpu": 1.0, "mem": 0.0}, "x", allow_zero=True)
        assert out == {"cpu": 1.0}

    def test_error_hierarchy(self):
        assert issubclass(UnknownResourceError, ResourceError)
        assert issubclass(ResourceMismatchError, ResourceError)
        assert issubclass(ResourceError, ValueError)

    def test_scalar_equivalent(self):
        assert scalar_equivalent({"slots": 4.0}) == 4.0
        assert scalar_equivalent({"cpu": 4.0}) is None
        assert scalar_equivalent({"slots": 4.0, "cpu": 1.0}) is None


class TestCanonicalScalarForms:
    def test_slots_site_is_the_scalar_site(self):
        assert Site("s", {"slots": 4.0}) == Site("s", 4.0)
        assert Site("s", {"slots": 4.0}).resources is None
        assert not Site("s", {"slots": 4.0}).is_multiresource

    def test_slots_job_is_the_scalar_job(self):
        assert Job("j", {"s": 1.0}, resources={"slots": 1.0}) == Job("j", {"s": 1.0})
        assert not Job("j", {"s": 1.0}, resources={"slots": 1.0}).is_multiresource

    def test_scalar_site_resource_vector_view(self):
        assert Site("s", 4.0).resource_vector == {"slots": 4.0}
        assert Job("j", {"s": 1.0}).resource_vector == {"slots": 1.0}

    def test_vector_site_views(self):
        s = Site("s", {"cpu": 4.0, "mem": 8.0})
        assert s.is_multiresource
        assert s.resource_vector == {"cpu": 4.0, "mem": 8.0}

    def test_vector_site_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Site("s", {"cpu": float("inf")})
        with pytest.raises(ValueError):
            Site("s", {"cpu": float("nan")})

    def test_fingerprints_identical_for_canonical_scalar(self):
        a = Cluster([Site("s", {"slots": 4.0})], [Job("j", {"s": 2.0}, resources={"slots": 1.0})])
        b = Cluster([Site("s", 4.0)], [Job("j", {"s": 2.0})])
        assert a.fingerprint() == b.fingerprint()

    def test_vector_fingerprint_covers_names_and_values(self):
        base = Cluster([Site("s", {"cpu": 4.0, "mem": 8.0})], [Job("j", {"s": 1.0}, resources={"cpu": 1.0})])
        renamed = Cluster([Site("s", {"cpu": 4.0, "gpu": 8.0})], [Job("j", {"s": 1.0}, resources={"cpu": 1.0})])
        rescaled = Cluster([Site("s", {"cpu": 4.0, "mem": 9.0})], [Job("j", {"s": 1.0}, resources={"cpu": 1.0})])
        assert base.fingerprint() != renamed.fingerprint()
        assert base.fingerprint() != rescaled.fingerprint()


class TestClusterResourceViews:
    def cluster(self) -> Cluster:
        return Cluster(
            [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 32.0})],
            [
                Job("j0", {"a": 10.0, "b": 10.0}, resources={"cpu": 1.0, "mem": 4.0}),
                Job("j1", {"a": 10.0}, resources={"cpu": 4.0, "mem": 1.0}),
            ],
        )

    def test_resource_names_and_totals(self):
        c = self.cluster()
        assert c.resource_names == ("cpu", "mem")
        assert c.resource_totals == {"cpu": 12.0, "mem": 48.0}

    def test_matrices(self):
        c = self.cluster()
        assert c.site_resource_matrix.tolist() == [[8.0, 16.0], [4.0, 32.0]]
        assert c.job_resource_matrix.tolist() == [[1.0, 4.0], [4.0, 1.0]]

    def test_dominant_factor(self):
        c = self.cluster()
        dom = c.dominant_factor()
        assert dom[0] == pytest.approx(max(1 / 12, 4 / 48))
        assert dom[1] == pytest.approx(max(4 / 12, 1 / 48))

    def test_unknown_resource_rejected(self):
        with pytest.raises(UnknownResourceError, match="gpu"):
            Cluster([Site("a", {"cpu": 1.0})], [Job("j", {"a": 1.0}, resources={"gpu": 1.0})])

    def test_scalar_cluster_views_are_canonical_slots(self):
        c = Cluster([Site("a", 1.0)], [Job("j", {"a": 1.0})])
        assert not c.is_multiresource
        assert c.resource_names == ("slots",)
        assert c.resource_totals == {"slots": 1.0}


class TestSerializationRoundTrip:
    def test_scalar_wire_form_unchanged(self):
        c = Cluster([Site("a", 2.0)], [Job("j", {"a": 1.0})])
        data = cluster_to_dict(c)
        assert data["sites"][0]["capacity"] == 2.0
        assert "resources" not in data["jobs"][0]

    def test_vector_round_trip(self):
        c = Cluster(
            [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", 3.0, tags=("edge",))],
            [Job("j", {"a": 1.0, "b": 1.0}, resources={"cpu": 2.0, "mem": 1.0}, weight=2.0)],
        )
        rt = cluster_from_dict(json.loads(json.dumps(cluster_to_dict(c))))
        assert rt.fingerprint() == c.fingerprint()
        assert rt.sites[0].resource_vector == {"cpu": 8.0, "mem": 16.0}
        assert rt.jobs[0].resources == {"cpu": 2.0, "mem": 1.0}

    def test_job_with_workload_helpers_carry_resources(self):
        j = Job("j", {"a": 1.0}, resources={"cpu": 2.0})
        assert j.with_workload({"a": 5.0}).resources == {"cpu": 2.0}
        assert j.scaled(2.0).resources == {"cpu": 2.0}

    def test_site_scaled_scales_vector(self):
        s = Site("s", {"cpu": 4.0, "mem": 8.0}).scaled(0.5)
        assert s.resource_vector == {"cpu": 2.0, "mem": 4.0}


class TestMRModelNonFiniteRegression:
    """NaN/Inf amounts are rejected on the multi-resource (vector) ``Site``/``Job``."""

    def test_mrsite_rejects_inf_capacity(self):
        with pytest.raises(ValueError, match="finite"):
            Site("s", {"cpu": math.inf})

    def test_mrsite_rejects_nan_capacity(self):
        with pytest.raises(ValueError, match="NaN"):
            Site("s", {"cpu": math.nan})

    def test_mrjob_rejects_non_finite_demand(self):
        with pytest.raises(ValueError, match="finite"):
            Job("j", {"s": 1.0}, resources={"cpu": math.inf})
        with pytest.raises(ValueError, match="NaN"):
            Job("j", {"s": 1.0}, resources={"cpu": math.nan})

    def test_mrjob_rejects_non_finite_task_count_and_weight(self):
        vec = {"cpu": 1.0, "mem": 2.0}
        with pytest.raises(ValueError, match="finite"):
            Job("j", {"s": 1.0}, demand={"s": math.nan}, resources=vec)
        with pytest.raises(ValueError, match="finite"):
            Job("j", {"s": 1.0}, demand={"s": math.inf}, resources=vec)
        with pytest.raises(ValueError, match="finite"):
            Job("j", {"s": 1.0}, resources=vec, weight=math.inf)
