"""Tracer: nesting, ring bound, Chrome export, the disabled no-op path."""

import json

from repro.obs.tracing import _NOOP, TRACER, Tracer, span


class TestSpanRecording:
    def test_single_span(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", n=3):
            pass
        (ev,) = tracer.events()
        assert ev["name"] == "work"
        assert ev["args"] == {"n": 3}
        assert ev["parent"] is None and ev["depth"] == 0
        assert ev["dur"] >= 0.0

    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()  # inner completes first
        assert inner["name"] == "inner" and inner["parent"] == "outer" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["parent"] is None and outer["depth"] == 0

    def test_args_mutable_inside_span(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work") as sp:
            sp.args["result"] = 42
        (ev,) = tracer.events()
        assert ev["args"]["result"] == 42

    def test_ring_is_bounded(self):
        tracer = Tracer(max_events=4)
        tracer.enable()
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [ev["name"] for ev in tracer.events()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_clear(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work"):
            pass
        tracer.clear()
        assert tracer.events() == []

    def test_span_records_even_on_exception(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (ev,) = tracer.events()
        assert ev["name"] == "boom"
        # the stack unwound: a following span is top-level again
        with tracer.span("after"):
            pass
        assert tracer.events()[-1]["depth"] == 0


class TestChromeExport:
    def test_shape(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert set(ev) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
        inner = next(ev for ev in doc["traceEvents"] if ev["name"] == "inner")
        assert inner["args"]["parent"] == "outer" and inner["args"]["depth"] == 1

    def test_category_is_name_prefix(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("flow.probe"):
            pass
        (ev,) = tracer.to_chrome()["traceEvents"]
        assert ev["cat"] == "flow"

    def test_export_writes_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work"):
            pass
        path = tmp_path / "trace.json"
        assert tracer.export(path) == 1
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "work"

    def test_inner_span_contained_in_outer(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3


    def test_cli_trace_out_exports_the_run(self, tmp_path, capsys):
        """``--trace-out`` switches the layer on for the run and writes its spans."""
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main(["solve", "--jobs", "6", "--sites", "3", "--trace-out", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert "amf.solve" in {ev["name"] for ev in events}
        assert f"wrote {len(events)} trace spans" in capsys.readouterr().out


class TestDisabledPath:
    def test_module_span_returns_noop_when_disabled(self):
        assert not TRACER.enabled
        assert span("anything", k=1) is _NOOP

    def test_noop_span_absorbs_args(self):
        with span("anything") as sp:
            sp.args["k"] = 1  # dropped, not an error
        assert TRACER.events() == []

    def test_module_span_records_when_enabled(self):
        TRACER.enable()
        with span("live"):
            pass
        assert [ev["name"] for ev in TRACER.events()] == ["live"]
