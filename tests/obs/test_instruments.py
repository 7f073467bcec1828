"""The instrument catalog: library solves record spans but no counters,
spans nest amf.solve -> flow.probe -> flow.max_flow, the stats table
renders the service's own counters, and everything stays silent while
observability is off."""

import pytest

from repro.core.amf import AmfDiagnostics, amf_levels, amf_levels_bisect, solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.obs import instruments
from repro.obs.instruments import STATS_METRICS, render_stats
from repro.obs.registry import REGISTRY
from repro.obs.simobs import SimObserver
from repro.obs.tracing import TRACER
from repro.service.daemon import AllocationService
from repro.service.state import CapacityChanged, ClusterState, JobArrived
from tests.obs.prometheus import metric_names, parse_prometheus


def small_cluster(cap_a: float = 2.0) -> Cluster:
    return Cluster.from_matrices(
        [cap_a, 3.0, 1.0],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
    )


class TestLibrarySolves:
    def test_library_solves_write_no_counters(self):
        """A library solve returns its diagnostics and records spans; its
        counts live in that record alone, never in the process-global
        registry, so they cannot leak into a service's /v1/metrics."""
        REGISTRY.enable()
        before = REGISTRY.render_prometheus()
        diag = AmfDiagnostics()
        amf_levels(small_cluster(), diagnostics=diag)
        amf_levels_bisect(small_cluster(), diagnostics=diag)
        solve_amf(small_cluster(2.5), diagnostics=diag)
        assert diag.rounds > 0
        names = metric_names(REGISTRY.render_prometheus())
        assert not [name for name in names if name.startswith(("repro_amf_", "repro_flow_"))]
        # only the shard histograms moved; every counter reads as before
        after = parse_prometheus(REGISTRY.render_prometheus())
        for key, value in parse_prometheus(before).items():
            if not key.startswith("repro_shard_"):
                assert after[key] == value, key


class TestSpanNesting:
    def test_solve_emits_nested_spans(self):
        """amf.solve -> flow.probe -> flow.max_flow, as chrome://tracing
        would show them."""
        TRACER.enable()
        solve_amf(small_cluster())
        events = TRACER.events()
        names = {ev["name"] for ev in events}
        assert {"amf.solve", "flow.probe", "flow.max_flow"} <= names
        probe_parents = {ev["parent"] for ev in events if ev["name"] == "flow.probe"}
        assert probe_parents == {"amf.solve"}
        flow_parents = {ev["parent"] for ev in events if ev["name"] == "flow.max_flow"}
        assert flow_parents == {"flow.probe"}

    def test_solve_span_carries_problem_shape(self):
        TRACER.enable()
        amf_levels(small_cluster())
        (solve,) = [ev for ev in TRACER.events() if ev["name"] == "amf.solve"]
        assert solve["args"]["variant"] == "levels"
        assert solve["args"]["jobs"] == 4 and solve["args"]["sites"] == 3

    def test_probe_span_labels_mode_and_feasibility(self):
        TRACER.enable()
        amf_levels(small_cluster())
        probes = [ev for ev in TRACER.events() if ev["name"] == "flow.probe"]
        assert probes
        for ev in probes:
            assert ev["args"]["mode"] in {"flow-warm", "flow-cold"}
            assert isinstance(ev["args"]["feasible"], bool)

    def test_disabled_tracer_emits_nothing(self):
        assert not TRACER.enabled
        solve_amf(small_cluster())
        assert TRACER.events() == []


class TestCacheInstruments:
    def test_hit_miss_eviction_counters(self):
        """``repro_cache_*`` are rows of the stats table: a miss per answer
        that solved a component, a hit per answer the memo replayed whole,
        an eviction per entry its LRU bound dropped."""
        service = AllocationService(ClusterState([Site("a", 2.0), Site("b", 3.0)]), cache_size=1)
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        service.allocation()  # miss
        service.allocation()  # hit
        service.submit(CapacityChanged("a", 2.5))
        service.allocation()  # miss: evicts the first state's component
        samples = parse_prometheus(render_stats(service.stats()))
        assert samples["repro_cache_misses_total"] == 2
        assert samples["repro_cache_hits_total"] == 1
        assert samples["repro_cache_evictions_total"] == 1
        cache = service.stats()["cache"]
        assert (cache["misses"], cache["hits"], cache["evictions"]) == (2, 1, 1)


class TestStatsMetrics:
    def test_table_rows_name_stats_fields(self):
        """Every row names a ``section.key`` the service's stats carry, no
        row doubles as a registry instrument, and a service without a
        journal renders its ``repro_journal_*`` rows as 0."""
        stats = AllocationService(ClusterState([Site("a", 2.0)]), observability=False).stats()
        stats["admission"] = {"admitted": 0, "shed": 0}  # the aio edge adds this section
        names = [metric.name for metric in STATS_METRICS]
        assert len(set(names)) == len(names)
        assert not set(names) & set(metric_names(REGISTRY.render_prometheus()))
        for metric in STATS_METRICS:
            section, key = metric.path.split(".")
            assert stats[section] is None or key in stats[section], metric.path
            assert metric.kind in {"counter", "gauge"}
        samples = parse_prometheus(render_stats(stats))
        assert set(samples) == set(names)
        assert stats["journal"] is None
        assert all(samples[m.name] == 0 for m in STATS_METRICS if m.path.startswith("journal."))

    def test_render_matches_registry_exposition(self):
        """HELP and TYPE lines as the registry writes them; a section the
        dict lacks (here every one but ``batching``) renders as 0."""
        text = render_stats({"batching": {"batches": 3, "coalesced_events": 7}})
        assert "# HELP repro_queue_batches_total solves that took accepted events\n" in text
        assert "# TYPE repro_queue_batches_total counter\nrepro_queue_batches_total 3\n" in text
        assert "# TYPE repro_queue_depth gauge\nrepro_queue_depth 0\n" in text


class TestSimObserver:
    class _Snap:
        n_jobs = 2

    def test_observe_feeds_registry(self):
        REGISTRY.enable()
        obs = SimObserver()
        obs.observe(0.0, 0.5, self._Snap(), None)
        obs.observe(0.5, 0.25, self._Snap(), None)
        assert instruments.SIM_STEPS.value == 2
        assert instruments.SIM_SIM_TIME_SECONDS.value == pytest.approx(0.75)
        assert instruments.SIM_ACTIVE_JOBS.value == 2
        # wall gap only measurable from the second interval on
        assert instruments.SIM_STEP_SECONDS.count == 1
        summary = obs.summary()
        assert summary["steps"] == 2 and summary["simulated_time"] == pytest.approx(0.75)

    def test_noop_when_disabled(self):
        obs = SimObserver()
        obs.observe(0.0, 0.5, self._Snap(), None)
        assert obs.steps == 0
        assert instruments.SIM_STEPS.value == 0
