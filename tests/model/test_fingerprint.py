"""Tests for Cluster.fingerprint() — the component memo's key."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site


def build(capacity_a=2.0, work_x=1.0, demand_b=0.5, weight_y=1.0, arrival_x=0.0, tags=()):
    sites = [Site("A", capacity_a, tags=tuple(tags)), Site("B", 3.0)]
    jobs = [
        Job("x", {"A": work_x}, weight=1.0, arrival=arrival_x),
        Job("y", {"A": 1.0, "B": 4.0}, demand={"B": demand_b}, weight=weight_y),
    ]
    return Cluster(sites, jobs)


class TestStability:
    def test_deterministic_across_instances(self):
        assert build().fingerprint() == build().fingerprint()

    def test_repeated_calls_cached(self):
        c = build()
        assert c.fingerprint() is c.fingerprint()

    def test_hex_digest_shape(self):
        fp = build().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # valid hex

    def test_survives_matrix_round_trip(self):
        c = build()
        rebuilt = Cluster.from_matrices(
            c.capacities,
            c.workloads,
            demand_caps=None,
            weights=c.weights,
            site_names=[s.name for s in c.sites],
            job_names=[j.name for j in c.jobs],
        )
        # Same jobs/sites but demand caps dropped -> different instance.
        assert rebuilt.fingerprint() != c.fingerprint()
        uncapped = Cluster(c.sites, [Job("x", {"A": 1.0}), Job("y", {"A": 1.0, "B": 4.0})])
        assert rebuilt.fingerprint() == uncapped.fingerprint()


class TestPerturbationSensitivity:
    def test_capacity_change(self):
        assert build().fingerprint() != build(capacity_a=2.0000001).fingerprint()

    def test_workload_change(self):
        assert build().fingerprint() != build(work_x=1.0 + 1e-12).fingerprint()

    def test_demand_cap_change(self):
        assert build().fingerprint() != build(demand_b=0.6).fingerprint()

    def test_weight_change(self):
        assert build().fingerprint() != build(weight_y=2.0).fingerprint()

    def test_job_rename(self):
        base = build()
        renamed = Cluster(base.sites, [Job("x2", {"A": 1.0}), base.jobs[1]])
        assert base.fingerprint() != renamed.fingerprint()

    def test_job_order_matters(self):
        base = build()
        swapped = Cluster(base.sites, (base.jobs[1], base.jobs[0]))
        assert base.fingerprint() != swapped.fingerprint()

    def test_job_removal(self):
        base = build()
        assert base.without_job("x").fingerprint() != base.fingerprint()


class TestAllocationIrrelevantFields:
    def test_arrival_ignored(self):
        assert build().fingerprint() == build(arrival_x=7.5).fingerprint()

    def test_site_tags_ignored(self):
        assert build().fingerprint() == build(tags=("eu", "tier1")).fingerprint()


def line_by_line_fingerprint(cluster: Cluster) -> str:
    """The reference: one ``sha256.update`` per line, nothing memoised (the
    hashing ``Cluster._fingerprint`` did before jobs kept their own lines)."""
    h = hashlib.sha256()
    for site in cluster.sites:
        h.update(f"S|{site.name}|{site.capacity.hex()}\n".encode())
        if site.resources is not None:
            for res, amount in site.resources:
                h.update(f"R|{site.name}|{res}|{amount.hex()}\n".encode())
    for job in cluster.jobs:
        h.update(f"J|{job.name}|{job.weight.hex()}\n".encode())
        for site, work in sorted(job.workload.items()):
            h.update(f"w|{site}|{work.hex()}\n".encode())
        for site, rate in sorted(job.demand.items()):
            h.update(f"d|{site}|{rate.hex()}\n".encode())
        for res, amount in sorted(job.resources.items()):
            h.update(f"r|{res}|{amount.hex()}\n".encode())
    return h.hexdigest()


def golden_clusters() -> list[Cluster]:
    scalar = Cluster([Site("a", 4.0), Site("b", 2.5)], [Job("x", {"a": 1.0, "b": 3.0}), Job("y", {"b": 2.0})])
    capped = Cluster(
        [Site("east", 10.0), Site("west", 6.0), Site("idle", 1.0)],
        [
            Job("etl", {"east": 5.0, "west": 1.5}, {"east": 2.0, "west": 0.0}, weight=2.5),
            Job('ml/train "β"', {"west": 7.25}, {"west": 3.5}, weight=0.75, arrival=9.0),
        ],
    )
    vector = Cluster(
        [Site("s0", {"cpu": 16.0, "mem": 64.0}), Site("s1", {"cpu": 8.0, "mem": 48.0})],
        [
            Job("v0", {"s0": 4.0, "s1": 1.0}, resources={"cpu": 1.0, "mem": 4.0}),
            Job("v1", {"s1": 2.0}, {"s1": 1.5}, weight=3.0, resources={"cpu": 2.0, "mem": 0.5}),
        ],
    )
    return [scalar, capped, vector]


class TestValuePinned:
    """The digest is journaled and compared across processes and commits:
    how it is computed may change, its value may not."""

    #: computed at 32f4df9, before jobs memoised their lines
    GOLDEN = (
        "45a34fcee73dcbc600b0f5b3ba762f407fafa4f7efd9c9e0052eb64ffb2e3613",
        "b97c587008c26d01102243003e65d2384486f5f89daaaa0b71793dab199cdbd0",
        "ee3d00db4ae871e9eab1e8276f644b728e4e22b5ecdceb949806c57d7b0269b0",
    )

    def test_golden_digests(self):
        assert tuple(c.fingerprint() for c in golden_clusters()) == self.GOLDEN

    def test_matches_line_by_line_hashing(self):
        from tests.conftest import random_cluster
        from tests.multiresource.test_engine import random_mr_cluster

        rng = np.random.default_rng(20)
        clusters = golden_clusters()
        clusters += [random_cluster(rng, weight_spread=1.0) for _ in range(200)]
        clusters += [random_mr_cluster(rng, weights=True) for _ in range(100)]
        for cluster in clusters:
            assert cluster.fingerprint() == line_by_line_fingerprint(cluster)
            # jobs shared with a derived cluster arrive with their lines memoised
            sub = cluster.without_job(cluster.jobs[0].name)
            assert sub.fingerprint() == line_by_line_fingerprint(sub)


class TestJobLinesMemo:
    JOB = Job("j", {"A": 1.0, "B": 2.0}, {"B": 0.5}, weight=2.0, resources={"cpu": 2.0})

    @pytest.mark.parametrize(
        "derive",
        [
            lambda job: pickle.loads(pickle.dumps(job)),
            lambda job: dataclasses.replace(job, weight=3.0),
            lambda job: job.with_workload({"A": 4.0}, demand={}),
            lambda job: job.scaled(2.0),
        ],
        ids=["pickle", "replace", "with_workload", "scaled"],
    )
    def test_copies_start_without_the_memo(self, derive):
        job = dataclasses.replace(self.JOB)
        before = job.fingerprint_lines  # populate
        copy = derive(job)
        assert "fingerprint_lines" not in vars(copy)
        fresh = Job(copy.name, dict(copy.workload), dict(copy.demand), copy.weight, copy.arrival, dict(copy.resources))
        assert copy.fingerprint_lines == fresh.fingerprint_lines
        assert job.fingerprint_lines is before

    def test_equality_and_hash_ignore_the_memo(self):
        warm, cold = dataclasses.replace(self.JOB), dataclasses.replace(self.JOB)
        assert warm.fingerprint_lines.startswith(b"J|j|")
        assert warm == cold and "fingerprint_lines" not in vars(cold)
        assert repr(warm) == repr(cold)
        # a job was never hashable (its mappings are not): still so, memo or not
        for job in (warm, cold):
            with pytest.raises(TypeError):
                hash(job)
