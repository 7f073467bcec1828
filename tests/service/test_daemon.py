"""AllocationService: the full pipeline on a virtual clock."""

import numpy as np
import pytest

from repro.core.amf import solve_amf
from repro.model.job import Job
from repro.model.site import Site
from repro.service import solver as solver_mod
from repro.service.daemon import SOLVE_WINDOW, AllocationService
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted
from tests.multiresource.test_engine import crossing_cluster


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_service(**kwargs):
    clock = FakeClock()
    state = ClusterState([Site("a", 2.0), Site("b", 3.0)])
    service = AllocationService(state, clock=clock, **kwargs)
    return service, clock


class TestServing:
    def test_empty_cluster_served_without_solving(self):
        service, _ = make_service()
        served = service.allocation()
        assert served.allocation.policy == "empty"
        assert served.cached and served.seconds == 0.0
        assert service.solve_stats.solves == 0

    def test_fresh_allocation_applies_pending_events(self):
        service, _ = make_service(max_delay=1e9)  # batch never due by time
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        service.submit(JobArrived(Job("y", {"b": 1.0})))
        served = service.allocation(fresh=True)
        assert not served.cached
        assert served.allocation.policy == "amf-incremental"
        names = [j.name for j in served.allocation.cluster.jobs]
        agg = dict(zip(names, served.allocation.aggregates))
        assert agg["x"] == pytest.approx(2.0)
        assert agg["y"] == pytest.approx(3.0)

    def test_passive_read_respects_batch_delay(self):
        service, clock = make_service(max_delay=10.0)
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        served = service.allocation(fresh=False)  # batch not due yet
        assert served.allocation.cluster.n_jobs == 0
        clock.now = 10.0
        served = service.allocation(fresh=False)
        assert served.allocation.cluster.n_jobs == 1

    def test_repeat_reads_hit_the_cache(self):
        service, _ = make_service()
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        first = service.allocation()
        second = service.allocation()
        assert not first.cached and second.cached
        assert second.fingerprint == first.fingerprint
        assert service.solve_stats.solves == 1
        np.testing.assert_allclose(second.allocation.matrix, first.allocation.matrix)

    def test_matches_cold_solver(self):
        service, _ = make_service()
        jobs = [Job("x", {"a": 1.0}), Job("y", {"a": 1.0, "b": 1.0}), Job("z", {"b": 2.0})]
        service.submit_all([JobArrived(j) for j in jobs])
        served = service.allocation()
        oracle = solve_amf(served.allocation.cluster)
        np.testing.assert_allclose(served.allocation.aggregates, oracle.aggregates, atol=1e-8)

    def test_departure_and_capacity_change_resolve(self):
        service, _ = make_service()
        service.submit_all([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"a": 1.0}))])
        v1 = service.allocation().version
        service.submit(JobDeparted("x"))
        service.submit(CapacityChanged("a", 4.0))
        served = service.allocation()
        assert served.version > v1
        assert [j.name for j in served.allocation.cluster.jobs] == ["y"]
        assert served.allocation.aggregates[0] == pytest.approx(4.0)


class TestPipelineAccounting:
    def test_rejections_logged_not_fatal(self):
        service, _ = make_service()
        service.submit_all([JobArrived(Job("x", {"a": 1.0})), JobDeparted("ghost")])
        served = service.allocation()
        assert served.allocation.cluster.n_jobs == 1
        assert len(service.rejections) == 1 and "ghost" in service.rejections[0]

    def test_stats_shape(self):
        service, _ = make_service()
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        service.allocation()
        service.allocation()
        stats = service.stats()
        assert set(stats) >= {"state", "solver", "incremental", "cache", "batching", "resilience"}
        assert stats["state"]["jobs"] == 1
        assert stats["solver"]["solves"] == 1
        assert stats["incremental"]["solves"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["batching"]["batches"] == 1
        assert stats["resilience"]["fallback_activations"] == 0
        import json

        json.dumps(stats)  # must be JSON-serializable for /stats

    def test_warm_start_reuses_cuts_across_churn(self):
        service, _ = make_service()
        service.submit_all(
            [JobArrived(Job(f"j{i}", {"a": 1.0, "b": 0.5}, demand={"b": 0.5})) for i in range(4)]
        )
        service.allocation()
        cuts_before = service.incremental.stats.cuts_generated
        # churn one job in and out; the bottleneck site set persists
        service.submit(JobArrived(Job("late", {"a": 1.0})))
        service.allocation()
        service.submit(JobDeparted("late"))
        service.allocation()
        # The departure returns the cluster to an already-seen fingerprint,
        # so the component memo answers the third read: no component solved.
        assert service.incremental.stats.solves == 2
        assert service.stats()["cache"]["hits"] == 1
        assert service.incremental.stats.cuts_generated <= cuts_before + 1
        assert service.incremental.stats.warm_cuts_seeded > 0
        # the warm solve certified its fill with one deferred probe
        inc = service.stats()["incremental"]
        assert inc["deferred_checks"] == service.incremental.stats.deferred_checks == 1
        assert inc["deferred_refuted"] == 0

    def test_basis_size_counts_the_shard_pools_cuts(self):
        # "y" can offload at most 0.1 onto "b", so the solve discovers cut {a}
        service, _ = make_service()
        service.submit_all([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"a": 1.0, "b": 1.0}, demand={"b": 0.1}))])
        service.allocation()
        assert service.incremental.stats.cuts_generated > 0
        inc = service.stats()["incremental"]
        assert inc["basis_size"] == service.incremental.bases.total_cuts > 0

    def test_fallback_chain_engages_on_solver_failure(self):
        service, _ = make_service()

        def broken(cluster):
            raise RuntimeError("boom")

        broken.__name__ = "broken"
        service.policy._chain[0] = ("broken", broken)  # simulate a dying primary
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        served = service.allocation()
        assert served.allocation.policy == "amf"
        assert service.resilience.fallback_activations == 1


class TestComponentMemo:
    """The warm solver's component memo is the daemon's only memory of
    solved states: a revisit runs the chain, and the primary answers it
    without solving a component."""

    def test_revisited_multi_component_state_solves_nothing(self):
        service, _ = make_service()
        service.submit_all([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"b": 1.0}))])
        first = service.allocation()
        assert not first.cached and service.incremental.stats.last_shards == 2
        service.submit(JobArrived(Job("z", {"a": 1.0})))
        assert not service.allocation().cached
        service.submit(JobDeparted("z"))
        inc = service.incremental.stats
        solves, shard_solves = inc.solves, inc.shard_solves
        revisit = service.allocation()
        assert revisit.cached and revisit.seconds == 0.0
        assert revisit.allocation.policy == "amf-incremental"
        assert (inc.solves, inc.shard_solves) == (solves, shard_solves)
        assert service.solve_stats.solves == 2
        assert revisit.fingerprint == first.fingerprint
        np.testing.assert_array_equal(revisit.allocation.matrix, first.allocation.matrix)
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 2)

    def test_vector_flap_answers_cached(self):
        cluster = crossing_cluster()
        service = AllocationService(ClusterState(cluster.sites, cluster.jobs), clock=FakeClock())
        assert not service.allocation().cached
        clone = cluster.jobs[0]
        service.submit(JobArrived(Job("clone", clone.workload, resources=clone.resources)))
        assert not service.allocation().cached
        service.submit(JobDeparted("clone"))
        served = service.allocation()
        assert served.cached and served.seconds == 0.0
        assert service.incremental.stats.solves == 2

    def test_fallback_answer_is_solved_again_on_revisit(self, monkeypatch):
        service, _ = make_service()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # the warm solver's pipeline call fails; the cold rung's solve_amf does not
        monkeypatch.setattr(solver_mod, "solve", boom)
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        answers = [service.allocation(), service.allocation()]
        assert [a.allocation.policy for a in answers] == ["amf", "amf"]
        assert not any(a.cached for a in answers)
        assert service.resilience.served_by == {"amf": 2}
        assert service.solve_stats.solves == 2
        assert service.stats()["cache"]["misses"] == 2

    def test_new_state_of_solved_components_answers_cached(self):
        # {x} on a and {y, w} on b were each solved before, never together
        service, _ = make_service()
        service.submit_all([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"b": 1.0}))])
        for event in (JobArrived(Job("z", {"a": 1.0})), JobArrived(Job("w", {"b": 1.0}))):
            assert not service.allocation().cached
            service.submit(event)
        assert not service.allocation().cached
        service.submit(JobDeparted("z"))
        served = service.allocation()
        assert served.cached and served.seconds == 0.0
        assert service.incremental.stats.solves == 3
        assert sorted(j.name for j in served.allocation.cluster.jobs) == ["w", "x", "y"]
        np.testing.assert_allclose(served.allocation.aggregates, solve_amf(served.allocation.cluster).aggregates)

    def test_invalid_replay_is_not_cached_and_clears_the_memo(self):
        service, _ = make_service()
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        first = service.allocation()
        entries = service.incremental.memo._entries
        for entry in entries.values():
            entry.matrix = entry.matrix * 10.0  # replaying it over-commits site a
        replay = service.allocation()
        assert service.incremental.replayed  # the primary answered from its memo ...
        assert replay.allocation.policy == "amf"  # ... but failed validation
        assert not replay.cached and replay.seconds > 0.0
        assert service.resilience.served_by == {"amf-incremental": 1, "amf": 1}
        assert service.solve_stats.solves == 2 and service.stats()["cache"]["hits"] == 0
        assert service.incremental.shard_cache_entries == 0
        again = service.allocation()  # the bad block is gone: the primary solves
        assert not again.cached and again.allocation.policy == "amf-incremental"
        np.testing.assert_array_equal(again.allocation.matrix, first.allocation.matrix)
        assert service.allocation().cached


class TestValidation:
    def test_rejects_empty_state(self):
        with pytest.raises(ValueError):
            ClusterState([])

    def test_no_distributed_backend(self):
        # one process serves: the service takes no backend= or pool=
        state = ClusterState([Site("a", 1.0)])
        with pytest.raises(TypeError):
            AllocationService(state, backend="dist")
        with pytest.raises(TypeError):
            AllocationService(state, pool=object())

    def test_shard_solves_take_no_workers(self):
        # the ledger harness still passes workers=None; nothing else is taken
        state = ClusterState([Site("a", 1.0)])
        AllocationService(state, workers=None, observability=False)
        with pytest.raises(ValueError, match="serially"):
            AllocationService(state, workers=2, observability=False)
        sharding = AllocationService(state, observability=False).stats()["sharding"]
        assert "workers" not in sharding and "last_touched_sites" not in sharding

    def test_every_service_solves_per_component(self):
        # the ledger harness still passes sharded=True; False is refused
        state = ClusterState([Site("a", 1.0)])
        AllocationService(state, sharded=True, observability=False)
        with pytest.raises(ValueError, match="per connected component"):
            AllocationService(state, sharded=False, observability=False)


class TestAccountingRegressions:
    """Pinning tests for the PR-9 service-edge bugfix sweep."""

    def test_rejection_counter_does_not_saturate(self):
        # the bounded log caps at max_rejections, but the monotonic
        # counters must keep counting (long-running daemons used to
        # under-report rejections once the log filled)
        service, _ = make_service()
        service.max_rejections = 2
        service.submit_all([JobDeparted(f"ghost{i}") for i in range(5)])
        service.flush(force=True)
        assert service.events_rejected == 5
        assert len(service.rejections) == 2
        assert service.rejections_dropped == 3
        stats = service.stats()["state"]
        assert stats["events_rejected"] == 5
        assert stats["rejections_logged"] == 2
        assert stats["rejections_dropped"] == 3

    def test_submit_all_partial_failure_accounting(self):
        # a push raising mid-sequence must still count the events that
        # made it in (events_accepted used to come up short)
        service, _ = make_service()
        real_push = service.queue.push
        calls = {"n": 0}

        def flaky_push(event):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("queue blew up")
            return real_push(event)

        service.queue.push = flaky_push
        events = [JobArrived(Job(f"j{i}", {"a": 1.0})) for i in range(4)]
        with pytest.raises(RuntimeError, match="queue blew up"):
            service.submit_all(events)
        assert service.events_accepted == 2
        service.queue.push = real_push
        # the daemon keeps working after the failed request
        service.submit(JobArrived(Job("late", {"b": 1.0})))
        assert service.allocation().allocation.cluster.n_jobs == 3

    def test_latency_samples_stay_in_a_window(self):
        # every solve used to append one float for the life of the process,
        # and every /v1/stats read sorted all of them
        service, _ = make_service()
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        service.allocation()
        for _ in range(20_000):
            service.solve_stats.record(0.002, 1)
        assert service.solve_stats.solves == 20_001
        assert len(service.solve_stats.samples) == SOLVE_WINDOW
        solver = service.stats()["solver"]
        assert solver["solves"] == 20_001
        assert solver["p50_ms"] == pytest.approx(2.0) and solver["p99_ms"] == pytest.approx(2.0)

    def test_uptime_uses_injected_clock(self):
        # uptime came from time.time() while everything else used the
        # injected clock: frozen-clock tests saw nonzero, wall-dependent
        # uptimes
        service, clock = make_service()
        assert service.stats()["uptime_seconds"] == 0.0
        clock.now = 5.0
        assert service.stats()["uptime_seconds"] == 5.0
