"""Tests for task-level jobs and discretization."""

import pickle

import pytest

from repro.discrete.tasks import DiscreteJob, discretize_jobs
from repro.model.job import Job


class TestDiscreteJob:
    def test_basic(self):
        j = DiscreteJob("x", {"A": (4, 0.5), "B": (2, 1.0)})
        assert j.total_tasks == 6
        assert j.total_work == pytest.approx(4.0)
        assert j.work_at("A") == pytest.approx(2.0)
        assert j.work_at("C") == 0.0

    def test_zero_count_sites_dropped(self):
        j = DiscreteJob("x", {"A": (3, 1.0), "B": (0, 1.0)})
        assert set(j.tasks) == {"A"}

    def test_needs_tasks(self):
        with pytest.raises(ValueError, match="at least one task"):
            DiscreteJob("x", {"A": (0, 1.0)})

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            DiscreteJob("x", {"A": (-1, 1.0)})

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            DiscreteJob("x", {"A": (2, 0.0)})

    def test_fluid_job_roundtrip(self):
        j = DiscreteJob("x", {"A": (4, 0.5)}, weight=2.0, arrival=1.0)
        f = j.fluid_job()
        assert f.workload["A"] == pytest.approx(2.0)
        assert f.demand_at("A") == 4.0  # parallelism = task count
        assert f.weight == 2.0 and f.arrival == 1.0

    def test_pickle_round_trip(self):
        job = DiscreteJob("j", {"A": (2, 1.5), "B": (1, 0.5)}, weight=2.0, arrival=1.0)
        assert pickle.loads(pickle.dumps(job)) == job


class TestDiscretize:
    def test_work_preserved_exactly(self):
        jobs = [Job("x", {"A": 3.7, "B": 0.3})]
        for g in (0.1, 1.0, 7.0):
            d = discretize_jobs(jobs, g)[0]
            assert d.total_work == pytest.approx(4.0)

    def test_granularity_scales_task_count(self):
        jobs = [Job("x", {"A": 10.0})]
        coarse = discretize_jobs(jobs, 0.5)[0]
        fine = discretize_jobs(jobs, 5.0)[0]
        assert fine.total_tasks > coarse.total_tasks

    def test_at_least_one_task_per_site(self):
        jobs = [Job("x", {"A": 0.01})]
        d = discretize_jobs(jobs, 0.1)[0]
        assert d.tasks["A"][0] == 1

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            discretize_jobs([Job("x", {"A": 1.0})], 0.0)

    def test_metadata_carried(self):
        jobs = [Job("x", {"A": 1.0}, weight=3.0, arrival=2.0)]
        d = discretize_jobs(jobs, 1.0)[0]
        assert d.weight == 3.0 and d.arrival == 2.0
