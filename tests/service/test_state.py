"""ClusterState: delta application, rejection semantics, snapshot caching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.service.state import (
    CapacityChanged,
    ClusterState,
    JobArrived,
    JobDeparted,
    StateError,
    events_from_schedule,
)


def make_state() -> ClusterState:
    return ClusterState([Site("a", 2.0), Site("b", 3.0)])


class TestDeltas:
    def test_add_remove_job(self):
        st = make_state()
        st.add_job(Job("x", {"a": 1.0}))
        assert st.has_job("x") and st.n_jobs == 1
        removed = st.remove_job("x")
        assert removed.name == "x" and st.n_jobs == 0

    def test_duplicate_job_rejected(self):
        st = make_state()
        st.add_job(Job("x", {"a": 1.0}))
        with pytest.raises(StateError, match="already present"):
            st.add_job(Job("x", {"b": 1.0}))

    def test_unknown_site_rejected(self):
        st = make_state()
        with pytest.raises(StateError, match="unknown sites"):
            st.add_job(Job("x", {"nope": 1.0}))

    def test_remove_unknown_job_rejected(self):
        with pytest.raises(StateError, match="unknown job"):
            make_state().remove_job("ghost")

    def test_set_capacity(self):
        st = make_state()
        st.set_capacity("a", 5.0)
        assert st.snapshot().capacities[0] == 5.0

    def test_capacity_must_stay_positive(self):
        st = make_state()
        with pytest.raises(StateError, match="positive"):
            st.set_capacity("a", 0.0)
        with pytest.raises(StateError, match="unknown site"):
            st.set_capacity("zz", 1.0)

    def test_apply_dispatches(self):
        st = make_state()
        st.apply(JobArrived(Job("x", {"a": 1.0})))
        st.apply(CapacityChanged("b", 7.0))
        st.apply(JobDeparted("x"))
        assert st.n_jobs == 0 and st.snapshot().capacities[1] == 7.0

    def test_apply_all_is_best_effort(self):
        st = make_state()
        applied, rejected = st.apply_all(
            [
                JobArrived(Job("x", {"a": 1.0})),
                JobDeparted("ghost"),  # rejected, not fatal
                JobArrived(Job("y", {"b": 1.0})),
            ]
        )
        assert applied == 2
        assert len(rejected) == 1 and "ghost" in rejected[0]
        assert [job.name for job in st.snapshot().jobs] == ["x", "y"]


class TestVersioningAndSnapshots:
    def test_version_increments_only_on_success(self):
        st = make_state()
        v0 = st.version
        st.add_job(Job("x", {"a": 1.0}))
        assert st.version == v0 + 1
        with pytest.raises(StateError):
            st.remove_job("ghost")
        assert st.version == v0 + 1

    def test_snapshot_cached_until_mutation(self):
        st = make_state()
        st.add_job(Job("x", {"a": 1.0}))
        s1 = st.snapshot()
        assert st.snapshot() is s1  # same object => same fingerprint, free reads
        st.set_capacity("a", 4.0)
        s2 = st.snapshot()
        assert s2 is not s1
        assert s2.fingerprint() != s1.fingerprint()

    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError):
            ClusterState([])


class TestScheduleAdapter:
    def test_events_from_schedule(self):
        job = Job("x", {"a": 1.0})
        events = events_from_schedule(
            [(0.0, "arrive", job), (1.0, "depart", "x"), (2.0, "capacity", ("a", 5.0))]
        )
        assert isinstance(events[0], JobArrived) and events[0].job is job
        assert isinstance(events[1], JobDeparted) and events[1].name == "x"
        assert isinstance(events[2], CapacityChanged)
        assert events[2].site == "a" and events[2].capacity == 5.0
        assert [e.time for e in events] == [0.0, 1.0, 2.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(StateError, match="unknown schedule kind"):
            events_from_schedule([(0.0, "explode", None)])


class TestCarriedMultiresource:
    """The snapshot's ``is_multiresource`` is carried (the state counts its
    vector jobs; sites never change what they offer), and equals the walk
    the validating constructor makes over the same sites and jobs."""

    @staticmethod
    def walked(snap) -> bool:
        return Cluster(snap.sites, snap.jobs).is_multiresource

    @settings(max_examples=60, deadline=None)
    @given(
        vector_site=st.booleans(),
        ops=st.lists(
            st.tuples(st.sampled_from(["arrive", "depart", "capacity"]), st.integers(0, 5), st.booleans()),
            max_size=30,
        ),
    )
    def test_carried_flag_equals_the_walk(self, vector_site, ops):
        sites = [Site("a", 2.0), Site("b", 3.0)]
        if vector_site:
            sites.append(Site("v", {"slots": 4.0, "cpu": 8.0}))
        state = ClusterState(sites)
        for kind, k, vector in ops:
            name = f"j{k}"
            if kind == "arrive" and not state.has_job(name):
                resources = {"slots": 2.0} if vector else {}
                state.apply(JobArrived(Job(name, {"a": 1.0, sites[k % len(sites)].name: 2.0}, resources=resources)))
            elif kind == "depart" and state.has_job(name):
                state.apply(JobDeparted(name))
            elif kind == "capacity":
                state.apply(CapacityChanged("v", {"slots": 5.0, "cpu": 6.0}) if vector_site else CapacityChanged("a", 2.5))
            snap = state.snapshot()
            assert "is_multiresource" in vars(snap)  # carried, not walked on read
            assert snap.is_multiresource == self.walked(snap)

    def test_last_vector_job_departing_clears_the_flag(self):
        state = make_state()
        state.add_job(Job("x", {"a": 1.0}))
        state.add_job(Job("y", {"a": 1.0, "b": 1.0}, resources={"slots": 2.0}))
        assert state.snapshot().is_multiresource
        state.remove_job("y")
        assert not state.snapshot().is_multiresource and not self.walked(state.snapshot())
        state.add_job(Job("y", {"b": 1.0}, resources={"slots": 0.5}))
        assert state.snapshot().is_multiresource and self.walked(state.snapshot())
