"""MetricsRegistry: instrument semantics, exposition format, fast path."""

import math

import pytest

from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from tests.obs.prometheus import metric_names, parse_prometheus


class TestCounter:
    def test_inc(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_render(self):
        c = Counter("c_total")
        c.inc(3)
        assert c.render() == ["c_total 3"]

    def test_reset(self):
        c = Counter("c_total")
        c.inc()
        c.reset()
        assert c.value == 0.0

    def test_rejects_bad_names(self):
        for bad in ("", "9lives", "has space", "dash-ed", "émetric"):
            with pytest.raises(ValueError, match="invalid metric name"):
                Counter(bad)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.set(6)
        assert g.value == 6.0

    def test_render_float(self):
        g = Gauge("g")
        g.set(1.5)
        assert g.render() == ["g 1.5"]


class TestHistogram:
    def test_log_bucket_edges(self):
        h = Histogram("h_seconds", start=1e-3, factor=10.0, buckets=3)
        assert h.bounds == pytest.approx([1e-3, 1e-2, 1e-1])

    def test_observations_land_in_first_covering_bucket(self):
        h = Histogram("h_seconds", start=1.0, factor=2.0, buckets=3)  # edges 1, 2, 4
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        # raw (non-cumulative) counts: <=1 gets 0.5 and 1.0; <=2 gets 1.5;
        # <=4 gets 4.0; +Inf gets 100.0
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)

    def test_render_is_cumulative(self):
        h = Histogram("h_seconds", start=1.0, factor=2.0, buckets=2)
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        assert h.render() == [
            'h_seconds_bucket{le="1"} 1',
            'h_seconds_bucket{le="2"} 2',
            'h_seconds_bucket{le="+Inf"} 3',
            "h_seconds_sum 11",
            "h_seconds_count 3",
        ]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Histogram("h", start=0.0)
        with pytest.raises(ValueError):
            Histogram("h", factor=1.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_disabled_by_default(self):
        assert MetricsRegistry().enabled is False

    def test_enable_disable(self):
        reg = MetricsRegistry()
        reg.enable()
        assert reg.enabled
        reg.disable()
        assert not reg.enabled

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc(7)
        reg.reset()
        assert reg.counter("x_total") is c and c.value == 0.0

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.gauge("a")
        assert metric_names(reg.render_prometheus()) == ["a", "b_total"]


class TestExposition:
    def test_render_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(3)
        reg.gauge("g", "a gauge").set(1.25)
        reg.histogram("h_seconds", "a histogram", start=1.0, factor=2.0, buckets=2).observe(1.5)
        samples = parse_prometheus(reg.render_prometheus())
        assert samples["c_total"] == 3.0
        assert samples["g"] == 1.25
        assert samples['h_seconds_bucket{le="2"}'] == 1.0
        assert samples['h_seconds_bucket{le="+Inf"}'] == 1.0
        assert samples["h_seconds_count"] == 1.0

    def test_render_has_type_and_help_lines(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "what it counts")
        text = reg.render_prometheus()
        assert "# HELP c_total what it counts\n" in text
        assert "# TYPE c_total counter\n" in text

    def test_render_empty_registry(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="not a sample"):
            parse_prometheus("justoneword")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus("name notanumber")
        with pytest.raises(ValueError, match="invalid metric name"):
            parse_prometheus("bad-name 1")

    def test_parse_handles_inf(self):
        assert parse_prometheus('b{le="+Inf"} 4')['b{le="+Inf"}'] == 4.0


class TestGlobalRegistry:
    def test_global_default_instruments_registered(self):
        # importing the catalog binds every registry instrument globally;
        # counters a service record holds are stats-table rows instead
        from repro.obs.instruments import STATS_METRICS

        assert "repro_service_request_seconds" in metric_names(REGISTRY.render_prometheus())
        assert "repro_amf_rounds_total" in {metric.name for metric in STATS_METRICS}
        assert "repro_amf_rounds_total" not in metric_names(REGISTRY.render_prometheus())

    def test_global_render_validates(self):
        import repro.obs.instruments  # noqa: F401

        samples = parse_prometheus(REGISTRY.render_prometheus())
        assert all(math.isfinite(v) or v == math.inf for v in samples.values())
