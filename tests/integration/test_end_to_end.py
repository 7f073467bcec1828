"""Cross-module integration tests: generator -> solver -> simulator -> metrics."""

import numpy as np
import pytest

from repro.core import properties
from repro.core.amf import amf_levels
from repro.core.policies import get_policy
from repro.metrics.fairness import balance_report
from repro.model.validation import validate_instance
from repro.sim.engine import simulate
from repro.sim.trace import Trace
from repro.workload.arrivals import ArrivalSpec, generate_arrival_jobs
from repro.workload.generator import WorkloadSpec, generate_cluster, generate_jobs, sites_for
from repro.workload.traces import TraceSpec, generate_trace_jobs


class TestStaticPipeline:
    def test_generated_instances_solve_under_every_static_policy(self):
        rng = np.random.default_rng(0)
        spec = WorkloadSpec(n_jobs=25, n_sites=6, theta=1.3)
        cluster = generate_cluster(spec, rng)
        assert validate_instance(cluster).contention_ratio > 1.0
        for name in ("psmf", "amf", "amf-e", "amf-prop", "amf-ct-quick"):
            alloc = get_policy(name)(cluster)
            rep = balance_report(alloc)
            assert 0.0 < rep.jain <= 1.0 + 1e-9

    def test_amf_levels_consistent_across_policies(self):
        rng = np.random.default_rng(1)
        cluster = generate_cluster(WorkloadSpec(n_jobs=15, n_sites=4), rng)
        lv = amf_levels(cluster)
        for name in ("amf", "amf-ct-quick"):
            assert np.allclose(get_policy(name)(cluster).aggregates, lv, atol=1e-5)

    def test_property_suite_on_generated_instance(self):
        rng = np.random.default_rng(2)
        cluster = generate_cluster(WorkloadSpec(n_jobs=10, n_sites=4, theta=1.5), rng)
        amf = get_policy("amf")(cluster)
        assert properties.is_pareto_efficient(amf)
        assert properties.is_max_min_fair(amf)
        assert properties.is_envy_free(amf)
        enhanced = get_policy("amf-e")(cluster)
        assert properties.satisfies_sharing_incentive(enhanced)


class TestDynamicPipeline:
    def test_batch_simulation_completes_all_jobs(self):
        rng = np.random.default_rng(3)
        spec = WorkloadSpec(n_jobs=20, n_sites=5, theta=1.0)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        for name in ("psmf", "amf"):
            res = simulate(sites, jobs, name)
            assert res.n_finished == 20
            assert not res.stalled
            assert res.utilization_integral == pytest.approx(sum(j.total_work for j in jobs), rel=1e-6)

    def test_open_system_simulation(self):
        rng = np.random.default_rng(4)
        spec = ArrivalSpec(workload=WorkloadSpec(n_jobs=30, n_sites=4), load=0.6)
        sites, jobs = generate_arrival_jobs(spec, rng)
        res = simulate(sites, jobs, "amf")
        assert res.n_finished == 30
        assert res.mean_slowdown >= 1.0 - 1e-6

    def test_synthetic_trace_simulation(self):
        rng = np.random.default_rng(5)
        spec = TraceSpec(n_jobs=30, n_sites=5, horizon=30.0, mean_work=20.0)
        sites, jobs = generate_trace_jobs(spec, rng)
        trace = Trace()
        res = simulate(sites, jobs, "psmf", trace=trace)
        assert res.n_finished == 30
        kinds = [e.kind for e in trace.events]
        assert kinds.count("arrival") == 30
        assert kinds.count("completion") == 30

    def test_jct_monotone_under_extra_load(self):
        """Adding a competing job cannot finish the batch earlier (sanity)."""
        rng = np.random.default_rng(6)
        spec = WorkloadSpec(n_jobs=10, n_sites=3)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        base = simulate(sites, jobs, "amf").makespan
        extra = jobs + [jobs[0].with_workload({s: w * 2 for s, w in jobs[0].workload.items()})]
        extra[-1] = type(jobs[0])(
            name="extra",
            workload=dict(jobs[0].workload),
            demand=dict(jobs[0].demand),
        )
        loaded = simulate(sites, extra, "amf").makespan
        assert loaded >= base - 1e-6
