"""Unit tests for repro.model.job."""

import pickle

import pytest

from repro.model.job import Job


class TestConstruction:
    def test_basic(self):
        job = Job("j", {"A": 2.0, "B": 1.0})
        assert job.total_work == 3.0
        assert job.support == {"A", "B"}

    def test_zero_workload_entries_dropped(self):
        job = Job("j", {"A": 2.0, "B": 0.0})
        assert job.support == {"A"}

    def test_requires_some_work(self):
        with pytest.raises(ValueError, match="positive"):
            Job("j", {"A": 0.0})

    def test_requires_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            Job("", {"A": 1.0})

    def test_rejects_negative_workload(self):
        with pytest.raises(ValueError, match="non-negative"):
            Job("j", {"A": -1.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Job("j", {"A": 1.0}, weight=0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            Job("j", {"A": 1.0}, arrival=-1.0)

    def test_demand_outside_support_rejected(self):
        with pytest.raises(ValueError, match="without workload"):
            Job("j", {"A": 1.0}, demand={"B": 1.0})

    def test_rejects_non_finite_workload(self):
        # inf satisfies `>= 0` but poisons every solver downstream; both
        # inf and NaN must fail the finiteness check
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Job("j", {"A": bad})

    def test_rejects_non_finite_demand(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Job("j", {"A": 1.0}, demand={"A": bad})

    def test_rejects_non_finite_weight(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="weight"):
                Job("j", {"A": 1.0}, weight=bad)

    def test_rejects_non_finite_arrival(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="arrival"):
                Job("j", {"A": 1.0}, arrival=bad)

    def test_workload_mapping_is_readonly(self):
        job = Job("j", {"A": 1.0})
        with pytest.raises(TypeError):
            job.workload["A"] = 5.0  # type: ignore[index]


class TestDemand:
    def test_demand_at_uncapped_default(self):
        job = Job("j", {"A": 1.0})
        assert job.demand_at("A") == float("inf")

    def test_demand_at_capped(self):
        job = Job("j", {"A": 1.0}, demand={"A": 0.5})
        assert job.demand_at("A") == 0.5

    def test_demand_at_outside_support_is_zero(self):
        job = Job("j", {"A": 1.0})
        assert job.demand_at("B") == 0.0

    def test_zero_demand_cap_allowed(self):
        job = Job("j", {"A": 1.0}, demand={"A": 0.0})
        assert job.demand_at("A") == 0.0

    def test_demand_default_override(self):
        job = Job("j", {"A": 1.0})
        assert job.demand_at("A", default=7.0) == 7.0


class TestDerivedCopies:
    def test_with_workload_changes_report(self):
        job = Job("j", {"A": 1.0}, demand={"A": 0.5}, weight=2.0, arrival=3.0)
        lie = job.with_workload({"A": 0.2, "B": 5.0})
        assert lie.support == {"A", "B"}
        assert lie.weight == 2.0 and lie.arrival == 3.0
        # demand kept from the original by default
        assert lie.demand_at("A") == 0.5

    def test_with_workload_new_demand(self):
        job = Job("j", {"A": 1.0}, demand={"A": 0.5})
        lie = job.with_workload({"A": 1.0}, demand={})
        assert lie.demand_at("A") == float("inf")

    def test_scaled(self):
        job = Job("j", {"A": 2.0}, demand={"A": 0.5})
        big = job.scaled(3.0)
        assert big.workload["A"] == 6.0
        assert big.demand_at("A") == 0.5  # caps not scaled

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Job("j", {"A": 1.0}).scaled(0.0)

    def test_pickle_round_trip(self):
        # the mappingproxy fields must not stop a job crossing a process pool
        job = Job("j", {"A": 2.0, "B": 1.0}, demand={"A": 0.5}, weight=2.0, arrival=3.0, resources={"cpu": 2.0})
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        with pytest.raises(TypeError):
            clone.workload["A"] = 9.0  # still frozen on the other side
