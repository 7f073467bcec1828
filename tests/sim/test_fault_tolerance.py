"""Fault-tolerance tests: failures, recoveries, the work ledger.

Deterministic single-job timelines pin down the retry/migrate semantics
exactly; seeded and hypothesis-generated traces check the conservation
identity ``work_completed + work_lost + work_remaining == total_work``
and ``utilization_integral == work_completed + work_reexecuted`` on
arbitrary churn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.job import Job
from repro.model.site import Site
from repro.sim.engine import simulate
from repro.sim.observers import AvailabilityObserver
from repro.sim.trace import CapacityChange, SiteFailure, SiteRecovery, Trace
from repro.workload.failures import FailureSpec, generate_failure_trace
from repro.workload.generator import WorkloadSpec, generate_jobs, sites_for


def assert_ledger(res, jobs):
    total = sum(j.total_work for j in jobs)
    tol = 1e-6 * max(1.0, total)
    assert res.work_completed + res.work_lost + res.work_remaining == pytest.approx(total, abs=tol)
    assert res.utilization_integral == pytest.approx(res.work_completed + res.work_reexecuted, abs=tol)


class TestRetrySemantics:
    def test_full_restart_timeline(self):
        """cap 1, 2 units of work; fail at t=1, recover at t=2, lose the attempt."""
        jobs = [Job("x", {"A": 2.0})]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=faults, failure_mode="retry", restart_penalty=1.0)
        assert res.records[0].completion == pytest.approx(4.0)
        assert res.work_reexecuted == pytest.approx(1.0)
        assert res.work_completed == pytest.approx(2.0)
        assert res.n_requeues == 1
        assert_ledger(res, jobs)

    def test_perfect_checkpointing(self):
        """restart_penalty=0: the outage only costs the downtime."""
        jobs = [Job("x", {"A": 2.0})]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=faults, failure_mode="retry", restart_penalty=0.0)
        assert res.records[0].completion == pytest.approx(3.0)
        assert res.work_reexecuted == pytest.approx(0.0)
        assert_ledger(res, jobs)

    def test_retries_exhausted_degrades_job(self):
        jobs = [Job("x", {"A": 2.0})]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=faults, failure_mode="retry", max_retries=0)
        rec = res.records[0]
        # The attempt is invalidated and the whole edge abandoned at t=1.
        assert rec.finished and rec.degraded
        assert rec.completion == pytest.approx(1.0)
        assert res.work_lost == pytest.approx(2.0)
        assert res.work_completed == pytest.approx(0.0)
        assert res.n_degraded == 1
        assert_ledger(res, jobs)

    def test_never_recovering_site_stalls(self):
        jobs = [Job("x", {"A": 2.0})]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=[SiteFailure(1.0, "A")], failure_mode="retry")
        assert res.stalled
        assert not res.records[0].finished
        assert res.work_remaining == pytest.approx(2.0)  # 1 left + 1 invalidated
        assert_ledger(res, jobs)

    def test_arrival_during_outage_parks_without_retry_charge(self):
        sites = [Site("A", 1.0), Site("B", 1.0)]
        jobs = [Job("x", {"B": 1.0}), Job("y", {"A": 1.0}, arrival=1.0)]
        faults = [SiteFailure(0.5, "A"), SiteRecovery(2.0, "A")]
        res = simulate(sites, jobs, "amf", faults=faults, failure_mode="retry", max_retries=0)
        by = {r.name: r for r in res.records}
        # y arrives mid-outage: parked (not charged a retry), runs [2,3].
        assert by["y"].completion == pytest.approx(3.0)
        assert not by["y"].degraded
        assert_ledger(res, jobs)


class TestMigrateSemantics:
    def test_work_moves_to_surviving_site(self):
        sites = [Site("A", 1.0), Site("B", 1.0)]
        jobs = [Job("x", {"A": 2.0, "B": 2.0})]
        res = simulate(sites, jobs, "amf", faults=[SiteFailure(1.0, "A")], failure_mode="migrate")
        # [0,1] does 1 unit on each site; A's remaining 1 moves to B: 2 left at B.
        assert res.records[0].completion == pytest.approx(3.0)
        assert res.n_migrations == 1
        assert res.work_lost == 0.0
        assert res.work_reexecuted == 0.0
        assert_ledger(res, jobs)

    def test_no_survivor_falls_back_to_retry(self):
        jobs = [Job("x", {"A": 2.0})]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=faults, failure_mode="migrate")
        assert res.n_migrations == 0
        assert res.n_requeues == 1
        assert res.records[0].completion == pytest.approx(4.0)
        assert_ledger(res, jobs)


class TestBrownoutAndCapacity:
    def test_brownout_scales_capacity_without_displacing(self):
        jobs = [Job("x", {"A": 2.0})]
        res = simulate(
            [Site("A", 1.0)], jobs, "amf", faults=[SiteFailure(1.0, "A", degraded_fraction=0.5)]
        )
        # 1 unit in [0,1], then rate 0.5: 1 more unit takes 2.
        assert res.records[0].completion == pytest.approx(3.0)
        assert res.n_requeues == 0 and res.n_migrations == 0
        assert_ledger(res, jobs)

    def test_capacity_change_speeds_up(self):
        jobs = [Job("x", {"A": 2.0})]
        res = simulate([Site("A", 1.0)], jobs, "amf", faults=[CapacityChange(1.0, "A", capacity=2.0)])
        assert res.records[0].completion == pytest.approx(1.5)
        assert res.n_capacity_changes == 1
        assert_ledger(res, jobs)


class TestTraceEvents:
    def test_fault_lifecycle_recorded(self):
        trace = Trace()
        jobs = [Job("x", {"A": 2.0})]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        simulate([Site("A", 1.0)], jobs, "amf", faults=faults, trace=trace)
        kinds = [e.kind for e in trace.events]
        for expected in ("arrival", "site-failure", "requeue", "site-recovery", "completion"):
            assert expected in kinds, expected


class TestSeededChurn:
    @pytest.mark.parametrize("mode", ["retry", "migrate"])
    def test_conservation_under_generated_trace(self, mode):
        """A seeded trace with several failures runs to completion in both modes."""
        rng = np.random.default_rng(7)
        spec = WorkloadSpec(n_jobs=12, n_sites=4, theta=1.2)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        t0 = sum(j.total_work for j in jobs) / sum(s.capacity for s in sites)
        faults = generate_failure_trace(
            [s.name for s in sites], FailureSpec(mtbf=1.5 * t0, mttr=0.3 * t0, horizon=6.0 * t0), rng
        )
        assert sum(isinstance(f, SiteFailure) for f in faults) >= 3
        res = simulate(sites, jobs, "amf", faults=faults, failure_mode=mode, max_retries=10)
        assert res.n_failures >= 3
        assert res.n_recoveries >= 3
        assert res.n_finished == len(jobs)
        assert_ledger(res, jobs)

    @given(
        data=st.data(),
        mode=st.sampled_from(["retry", "migrate"]),
        penalty=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, data, mode, penalty):
        """The work ledger balances for arbitrary failure/recovery schedules."""
        n_sites = data.draw(st.integers(1, 3))
        site_names = [f"s{j}" for j in range(n_sites)]
        sites = [Site(n, data.draw(st.floats(0.5, 2.0))) for n in site_names]
        jobs = []
        for i in range(data.draw(st.integers(1, 3))):
            load = {
                n: data.draw(st.floats(0.5, 3.0))
                for n in site_names
                if data.draw(st.booleans())
            }
            if not load:
                load = {site_names[0]: 1.0}
            jobs.append(Job(f"j{i}", load, arrival=data.draw(st.floats(0.0, 2.0))))
        faults = []
        for n in site_names:
            t = data.draw(st.floats(0.1, 4.0))
            for _ in range(data.draw(st.integers(0, 2))):
                faults.append(SiteFailure(t, n))
                t += data.draw(st.floats(0.1, 2.0))
                faults.append(SiteRecovery(t, n))
                t += data.draw(st.floats(0.1, 2.0))
        res = simulate(
            sites,
            jobs,
            "amf",
            faults=faults,
            failure_mode=mode,
            restart_penalty=penalty,
            max_retries=data.draw(st.integers(0, 3)),
        )
        assert_ledger(res, jobs)


class TestAvailabilityObserver:
    def test_counts_and_availability(self):
        obs = AvailabilityObserver()
        jobs = [Job("x", {"A": 2.0, "B": 2.0})]
        sites = [Site("A", 1.0), Site("B", 1.0)]
        faults = [SiteFailure(1.0, "A"), SiteRecovery(2.0, "A")]
        res = simulate(sites, jobs, "amf", faults=faults, failure_mode="retry", observer=obs)
        assert obs.n_failures == 1 and obs.n_recoveries == 1
        assert 0.0 < obs.availability < 1.0
        assert obs.work_requeued > 0.0
        assert res.n_finished == 1

    def test_fallback_activations_surface_through_policy(self):
        from repro.core.policies import ResilientPolicy

        def broken(cluster):
            raise RuntimeError("solver exploded")

        policy = ResilientPolicy(broken, ("psmf",))
        obs = AvailabilityObserver(policy=policy)
        res = simulate([Site("A", 1.0)], [Job("x", {"A": 1.0})], policy, observer=obs)
        assert res.n_finished == 1
        assert obs.fallback_activations >= 1
