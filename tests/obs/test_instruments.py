"""Instrument fold-ins: the registry must bit-match the solver's own
diagnostics, spans must nest amf.solve -> flow.probe -> flow.max_flow,
and everything must stay silent while observability is off."""

import dataclasses

import pytest

from repro.core.amf import AmfDiagnostics, amf_levels, amf_levels_bisect, solve_amf
from repro.model.cluster import Cluster
from repro.obs import instruments
from repro.obs.registry import REGISTRY
from repro.obs.simobs import SimObserver
from repro.obs.tracing import TRACER
from repro.service.cache import AllocationCache


def small_cluster(cap_a: float = 2.0) -> Cluster:
    return Cluster.from_matrices(
        [cap_a, 3.0, 1.0],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
    )


class TestAmfBitMatch:
    def test_counters_match_diagnostics_over_a_solve_sequence(self):
        """The ISSUE acceptance criterion: registry probe counters equal the
        sum of AmfDiagnostics over the same solve sequence, bit for bit."""
        REGISTRY.enable()
        diag = AmfDiagnostics()
        c = small_cluster()
        # one shared mutable diag across three solver entries
        amf_levels(c, diagnostics=diag)
        amf_levels_bisect(c, diagnostics=diag)
        solve_amf(small_cluster(2.5), diagnostics=diag)
        for field, counter in instruments._AMF_COUNTERS.items():
            assert counter.value == getattr(diag, field), field
        assert instruments.AMF_SOLVES.value == 3

    def test_shared_diag_not_double_counted(self):
        """Delta recording: re-using one diag object across entries must not
        fold earlier solves' counts in again."""
        REGISTRY.enable()
        diag = AmfDiagnostics()
        c = small_cluster()
        amf_levels(c, diagnostics=diag)
        first = dataclasses.replace(diag)
        rounds_after_first = instruments._AMF_COUNTERS["rounds"].value
        assert rounds_after_first == first.rounds > 0
        amf_levels(c, diagnostics=diag)
        # the diag doubled; the counter tracked it exactly (no re-fold)
        assert diag.rounds == 2 * first.rounds
        assert instruments._AMF_COUNTERS["rounds"].value == diag.rounds

    def test_default_diag_still_recorded(self):
        REGISTRY.enable()
        amf_levels(small_cluster())
        assert instruments.AMF_SOLVES.value == 1
        assert instruments._AMF_COUNTERS["rounds"].value > 0

    def test_disabled_registry_records_nothing(self):
        assert not REGISTRY.enabled
        diag = AmfDiagnostics()
        amf_levels(small_cluster(), diagnostics=diag)
        assert diag.rounds > 0  # the solver's own record still fills
        assert instruments.AMF_SOLVES.value == 0
        assert all(c.value == 0 for c in instruments._AMF_COUNTERS.values())


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
            assert ev["args"]["mode"] in {"early-accept", "flow-warm", "flow-cold"}
            assert isinstance(ev["args"]["feasible"], bool)

    def test_disabled_tracer_emits_nothing(self):
        assert not TRACER.enabled
        solve_amf(small_cluster())
        assert TRACER.events() == []


class TestCacheInstruments:
    def test_hit_miss_eviction_counters(self):
        REGISTRY.enable()
        cache = AllocationCache(max_entries=1)
        a, b = small_cluster(2.0), small_cluster(2.5)
        assert cache.get(a) is None
        cache.put(a, solve_amf(a))
        assert cache.get(a) is not None
        cache.put(b, solve_amf(b))  # evicts a
        assert instruments.CACHE_MISSES.value == 1
        assert instruments.CACHE_HITS.value == 1
        assert instruments.CACHE_EVICTIONS.value == 1


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
