"""The daemon's solve timer on a fully controlled virtual clock, and what
a batch of accepted events does to the state."""

import pickle

import pytest

from repro.model.job import Job
from repro.model.site import Site
from repro.service.daemon import AllocationService
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_state(jobs=(), sites=(("a", 2.0), ("b", 3.0))):
    return ClusterState([Site(name, cap) for name, cap in sites], jobs)


def make_service(**kwargs):
    """A service on a virtual clock; its events are departures of unknown
    jobs, rejected on arrival, so no solve ever has a job to solve."""
    clock = FakeClock()
    return AllocationService(make_state(), clock=clock, observability=False, **kwargs), clock


class TestDueness:
    def test_empty_queue_never_due(self):
        service, _ = make_service(max_delay=0.1)
        assert not service.due()
        assert service.seconds_until_due() is None
        service.allocation(fresh=False)
        assert service.batch_stats.batches == 0

    def test_batch_due_after_max_delay(self):
        service, clock = make_service(max_delay=0.1)
        service.submit(JobDeparted("x"))
        assert not service.due()
        assert service.seconds_until_due() == pytest.approx(0.1)
        clock.now = 0.09
        assert not service.due()
        clock.now = 0.1
        assert service.due()
        assert service.seconds_until_due() == 0.0

    def test_age_measured_from_oldest_event(self):
        service, clock = make_service(max_delay=0.1)
        service.submit(JobDeparted("x"))
        clock.now = 0.08
        service.submit(JobDeparted("y"))  # newer event does not reset the deadline
        clock.now = 0.1
        assert service.due()

    def test_full_batch_due_immediately(self):
        service, _ = make_service(max_delay=1e9, max_batch=3)
        for name in "abc":
            service.submit(JobDeparted(name))
        assert service.due()
        assert service.seconds_until_due() == 0.0

    def test_zero_delay_means_every_event_due(self):
        service, _ = make_service(max_delay=0.0)
        service.submit(JobDeparted("x"))
        assert service.due()


class TestDrainAndStats:
    def test_drain_takes_everything_and_resets(self):
        service, clock = make_service(max_delay=0.1)
        service.submit(JobDeparted("x"))
        service.submit(JobDeparted("y"))
        service.allocation(fresh=True)
        assert service.batch_stats.events == 2
        assert service.stats()["state"]["pending_events"] == 0 and not service.due()
        # the next event starts a fresh delay window
        clock.now = 5.0
        service.submit(JobDeparted("z"))
        assert service.seconds_until_due() == pytest.approx(0.1)

    def test_stats_accumulate(self):
        service, _ = make_service(max_delay=0.0)
        for size in (2, 3):
            service.submit_all([JobDeparted(f"j{size}-{i}") for i in range(size)])
            service.allocation(fresh=False)  # due: a zero delay
        stats = service.batch_stats
        assert stats.batches == 2
        assert stats.events == 5
        assert stats.max_batch == 3
        assert stats.mean_batch == pytest.approx(2.5)

    def test_stats_stay_the_same_size_however_many_drains(self):
        """The counters are all the stats keep: no per-batch record grows
        with uptime.  (300 and 10 000 solves both pickle their counts as
        two-byte ints, so equal lengths mean nothing else was kept.)"""
        service, _ = make_service(max_delay=0.0)
        sizes = {}
        for n in range(1, 10_001):
            service.submit(JobDeparted("x"))
            service.allocation(fresh=True)
            if n in (300, 10_000):
                sizes[n] = len(pickle.dumps(service.batch_stats))
        assert sizes[300] == sizes[10_000]

    def test_empty_drain_not_counted(self):
        service, _ = make_service()
        service.allocation(fresh=True)
        assert service.batch_stats.batches == 0


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            make_service(max_delay=-1.0)
        with pytest.raises(ValueError):
            make_service(max_batch=0)


# -- a batch of accepted events applied by the daemon ----------------------


def flush(batch, state):
    """Submit ``batch`` to a daemon over ``state``, solve it as one batch
    and return the daemon's rejection log."""
    service = AllocationService(state, max_delay=60.0, observability=False)
    service.submit_all(batch)
    service.allocation(fresh=True)
    assert service.batch_stats.events == len(batch)
    assert service.events_accepted == state.version + service.events_rejected
    return service.rejections


def arrive(name, site="a"):
    return JobArrived(Job(name, {site: 1.0}))


class TestCoalesceBatch:
    """A batch of accepted events leaves the state, and the rejection log,
    exactly where applying its events one by one does."""

    def test_arrive_then_depart_vanishes(self):
        state = make_state()
        assert flush([arrive("x"), JobDeparted("x")], state) == []
        assert state.n_jobs == 0 and state.version == 2

    def test_last_capacity_wins(self):
        state = make_state()
        batch = [CapacityChanged("a", 1.0), CapacityChanged("a", 2.0), CapacityChanged("a", 3.0)]
        assert flush(batch, state) == []
        assert state.snapshot().capacities[0] == 3.0

    def test_invalid_capacity_does_not_shadow_valid(self):
        state = make_state()
        rejections = flush([CapacityChanged("a", 2.5), CapacityChanged("a", -1.0)], state)
        assert rejections == ["site 'a': capacity must be positive and finite, got -1.0"]
        assert state.snapshot().capacities[0] == 2.5

    def test_present_job_cycle_becomes_replacement_pair(self):
        state = make_state([Job("x", {"a": 1.0}), Job("y", {"a": 1.0})])
        assert flush([JobDeparted("x"), arrive("x", site="b")], state) == []
        # the re-arrived job takes its new spec and its re-arrival position
        snap = state.snapshot()
        assert [job.name for job in snap.jobs] == ["y", "x"]
        assert dict(snap.jobs[1].workload) == {"b": 1.0}

    def test_duplicate_arrival_rejected_with_state_phrasing(self):
        state = make_state([Job("x", {"a": 1.0})])
        assert flush([arrive("x")], state) == ["job 'x' already present"]

    def test_unknown_site_arrival_rejected(self):
        state = make_state()
        assert flush([arrive("x", site="zz")], state) == ["job 'x' references unknown sites ['zz']"]
        assert state.n_jobs == 0

    def test_unknown_departure_rejected(self):
        assert flush([JobDeparted("ghost")], make_state()) == ["unknown job 'ghost'"]

    def test_unknown_capacity_site_rejected(self):
        assert flush([CapacityChanged("zz", 1.0)], make_state()) == ["unknown site 'zz'"]


def test_mixed_batch_is_applied_as_drained_and_routes_one_shard():
    """One batch of every case at once: an arrive/depart pair, a present
    job's depart/re-arrive cycle, two capacity changes to one site, a
    duplicate arrival and an unknown departure.  The state and rejections
    are ``apply_all`` of the raw batch, and only the shard the batch
    changed re-solves: the other two replay from the component memo."""
    sites = (("a", 2.0), ("b", 3.0), ("c", 1.0), ("d", 4.0))
    jobs = [
        Job("x", {"a": 1.0, "b": 2.0}),
        Job("y", {"b": 1.0}),
        Job("z", {"c": 2.0}),
        Job("w", {"d": 1.0}),
    ]
    batch = [
        arrive("t"),
        JobDeparted("x"),
        CapacityChanged("b", 1.5),
        JobDeparted("t"),
        JobArrived(Job("x", {"a": 3.0, "b": 1.0})),
        arrive("y"),
        CapacityChanged("b", 2.5),
        JobDeparted("ghost"),
    ]
    reference = make_state(jobs, sites)
    _, want = reference.apply_all(batch)

    state = make_state(jobs, sites)
    service = AllocationService(state, max_delay=60.0, observability=False)
    service.allocation()  # three job-bearing shards solved and cached
    before = service.stats()["sharding"]
    service.submit_all(batch)
    service.allocation()
    after = service.stats()["sharding"]

    assert want == ["job 'y' already present", "unknown job 'ghost'"]
    assert service.rejections == want
    assert state.snapshot().fingerprint() == reference.snapshot().fingerprint()
    assert state.version == reference.version == 6
    assert after["shard_cache_hits"] - before["shard_cache_hits"] == 2
    assert after["shard_cache_misses"] - before["shard_cache_misses"] == 1
