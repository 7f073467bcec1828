"""Tests for JSON serialization of clusters and allocations."""

import json

import numpy as np
import pytest

from repro.core.amf import solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.core.allocation import Allocation
from repro.model.serialize import (
    allocation_to_dict,
    cluster_from_dict,
    cluster_to_dict,
    job_from_dict,
    job_to_dict,
    load_cluster,
    save_allocation,
    save_cluster,
)
from repro.model.site import Site


def rich_cluster() -> Cluster:
    return Cluster(
        sites=[Site("east", 2.0, tags=("eu",)), Site("west", 3.0)],
        jobs=[
            Job("a", {"east": 1.0, "west": 2.0}, demand={"west": 0.5}, weight=2.0, arrival=1.5),
            Job("b", {"west": 1.0}),
        ],
    )


class TestClusterRoundtrip:
    def test_roundtrip_preserves_everything(self):
        c = rich_cluster()
        c2 = cluster_from_dict(cluster_to_dict(c))
        assert [s.name for s in c2.sites] == ["east", "west"]
        assert c2.sites[0].tags == ("eu",)
        assert np.allclose(c2.capacities, c.capacities)
        assert np.allclose(c2.workloads, c.workloads)
        assert np.allclose(c2.demand_caps, c.demand_caps)
        assert np.allclose(c2.weights, c.weights)
        assert c2.jobs[c2.job_index("a")].arrival == 1.5

    def test_dict_is_json_safe(self):
        text = json.dumps(cluster_to_dict(rich_cluster()))
        assert "Infinity" not in text

    def test_defaults_omitted(self):
        d = cluster_to_dict(rich_cluster())
        job_b = d["jobs"][1]
        assert "weight" not in job_b and "arrival" not in job_b and "demand" not in job_b

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported cluster format"):
            cluster_from_dict({"format": "nope"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cluster.json"
        save_cluster(rich_cluster(), path)
        c2 = load_cluster(path)
        assert c2.n_jobs == 2


#: ``repro-cluster-v1`` bytes of :func:`golden_cluster`; a change here
#: breaks every cluster file already on disk.
GOLDEN_CLUSTER = (
    b'{"format": "repro-cluster-v1", "sites": [{"name": "east", "capacity": 10.0}, '
    b'{"name": "west", "capacity": {"cpu": 4.0, "mem": 8.0}, "tags": ["gpu"]}], '
    b'"jobs": [{"name": "j0", "workload": {"east": 5.0}}, '
    b'{"name": "j1", "workload": {"east": 1.0, "west": 2.5}, "demand": {"west": 0.5}, '
    b'"weight": 3.0, "arrival": 1.5, "resources": {"cpu": 1.0, "mem": 2.0}}]}'
)


def golden_cluster() -> Cluster:
    return Cluster(
        [Site("east", 10.0), Site("west", {"cpu": 4.0, "mem": 8.0}, ("gpu",))],
        [
            Job("j0", {"east": 5.0}),
            Job("j1", {"east": 1.0, "west": 2.5}, {"west": 0.5}, weight=3.0, arrival=1.5, resources={"cpu": 1.0, "mem": 2.0}),
        ],
    )


class TestGoldenBytes:
    def test_cluster_dict_bytes_are_pinned(self):
        assert json.dumps(cluster_to_dict(golden_cluster())).encode() == GOLDEN_CLUSTER

    def test_golden_cluster_round_trips(self):
        rebuilt = cluster_from_dict(json.loads(GOLDEN_CLUSTER))
        assert rebuilt.fingerprint() == golden_cluster().fingerprint()
        assert json.dumps(cluster_to_dict(rebuilt)).encode() == GOLDEN_CLUSTER

    def test_jobs_use_the_one_job_encoding(self):
        doc = cluster_to_dict(golden_cluster())
        assert doc["jobs"] == [job_to_dict(job) for job in golden_cluster().jobs]
        for entry in doc["jobs"]:
            assert job_to_dict(job_from_dict(entry)) == entry


def rebuilt(doc: dict) -> Allocation:
    """The allocation a ``repro-allocation-v1`` document describes, its invariants re-checked."""
    return Allocation(cluster_from_dict(doc["cluster"]), np.asarray(doc["matrix"], dtype=float), policy=doc["policy"])


class TestAllocationRoundtrip:
    def test_roundtrip(self):
        c = rich_cluster()
        a = solve_amf(c)
        a2 = rebuilt(allocation_to_dict(a))
        assert np.allclose(a2.matrix, a.matrix, atol=1e-12)
        assert a2.policy == "amf"

    def test_bad_format_rejected(self):
        doc = allocation_to_dict(solve_amf(rich_cluster()))
        assert doc["format"] == "repro-allocation-v1"
        with pytest.raises(ValueError, match="unsupported cluster format"):
            rebuilt({**doc, "cluster": {**doc["cluster"], "format": "nope"}})

    def test_tampered_matrix_rejected_on_load(self, tmp_path):
        c = rich_cluster()
        a = solve_amf(c)
        d = allocation_to_dict(a)
        d["matrix"][0][0] = 99.0  # violates site capacity
        with pytest.raises(ValueError):
            rebuilt(d)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "alloc.json"
        a = solve_amf(rich_cluster())
        save_allocation(a, path)
        a2 = rebuilt(json.loads(path.read_text()))
        assert np.allclose(a2.aggregates, a.aggregates)
