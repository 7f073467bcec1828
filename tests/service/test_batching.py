"""CoalescingQueue on a fully controlled virtual clock, and what the daemon
does with a drained batch."""

import pickle

import pytest

from repro.service.batching import CoalescingQueue
from repro.service.state import JobDeparted


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_queue(**kwargs):
    clock = FakeClock()
    return CoalescingQueue(clock=clock, **kwargs), clock


class TestDueness:
    def test_empty_queue_never_due(self):
        q, _ = make_queue(max_delay=0.1)
        assert not q.due()
        assert q.seconds_until_due() is None
        assert q.drain() == []

    def test_batch_due_after_max_delay(self):
        q, clock = make_queue(max_delay=0.1)
        q.push(JobDeparted("x"))
        assert not q.due()
        assert q.seconds_until_due() == pytest.approx(0.1)
        clock.now = 0.09
        assert not q.due()
        clock.now = 0.1
        assert q.due()
        assert q.seconds_until_due() == 0.0

    def test_age_measured_from_oldest_event(self):
        q, clock = make_queue(max_delay=0.1)
        q.push(JobDeparted("x"))
        clock.now = 0.08
        q.push(JobDeparted("y"))  # newer event does not reset the deadline
        clock.now = 0.1
        assert q.due()

    def test_full_batch_due_immediately(self):
        q, _ = make_queue(max_delay=1e9, max_batch=3)
        for name in "abc":
            q.push(JobDeparted(name))
        assert q.due()
        assert q.seconds_until_due() == 0.0

    def test_zero_delay_means_every_event_due(self):
        q, _ = make_queue(max_delay=0.0)
        q.push(JobDeparted("x"))
        assert q.due()


class TestDrainAndStats:
    def test_drain_takes_everything_and_resets(self):
        q, clock = make_queue(max_delay=0.1)
        q.push(JobDeparted("x"))
        q.push(JobDeparted("y"))
        batch = q.drain()
        assert [e.name for e in batch] == ["x", "y"]
        assert len(q) == 0 and not q.due()
        # the next push starts a fresh delay window
        clock.now = 5.0
        q.push(JobDeparted("z"))
        assert q.seconds_until_due() == pytest.approx(0.1)

    def test_stats_accumulate(self):
        q, _ = make_queue(max_delay=0.0)
        for size in (2, 3):
            for i in range(size):
                q.push(JobDeparted(f"j{size}-{i}"))
            q.drain()
        assert q.stats.batches == 2
        assert q.stats.events == 5
        assert q.stats.max_batch == 3
        assert q.stats.mean_batch == pytest.approx(2.5)

    def test_stats_stay_the_same_size_however_many_drains(self):
        """The counters are all the stats keep: no per-batch record grows
        with uptime.  (300 and 10 000 drains both pickle their counts as
        two-byte ints, so equal lengths mean nothing else was kept.)"""
        q, _ = make_queue(max_delay=0.0)
        sizes = {}
        for n in range(1, 10_001):
            q.push(JobDeparted("x"))
            q.drain()
            if n in (300, 10_000):
                sizes[n] = len(pickle.dumps(q.stats))
        assert sizes[300] == sizes[10_000]

    def test_empty_drain_not_counted(self):
        q, _ = make_queue()
        q.drain()
        assert q.stats.batches == 0


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CoalescingQueue(max_delay=-1.0)
        with pytest.raises(ValueError):
            CoalescingQueue(max_batch=0)


# -- a drained batch applied by the daemon -------------------------------

from repro.model.job import Job  # noqa: E402
from repro.model.site import Site  # noqa: E402
from repro.service.daemon import AllocationService  # noqa: E402
from repro.service.state import CapacityChanged, ClusterState, JobArrived  # noqa: E402


def make_state(jobs=(), sites=(("a", 2.0), ("b", 3.0))):
    return ClusterState([Site(name, cap) for name, cap in sites], jobs)


def flush(batch, state):
    """Queue ``batch`` on a daemon over ``state``, flush it as one batch and
    return the daemon's rejection log."""
    service = AllocationService(state, max_delay=60.0, observability=False)
    service.submit_all(batch)
    service.flush(force=True)
    assert service.events_accepted == state.version + service.events_rejected
    return service.rejections


def arrive(name, site="a"):
    return JobArrived(Job(name, {site: 1.0}))


class TestCoalesceBatch:
    """A coalesced batch leaves the state, and the rejection log, exactly
    where applying its events one by one does."""

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
    """One flush of every case at once: an arrive/depart pair, a present
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
