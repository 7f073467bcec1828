"""Tests for the event trace container."""

from repro.sim.trace import SimEvent, Trace


class TestSimEvent:
    def test_str_with_site(self):
        e = SimEvent(1.5, "site-done", "j1", "A")
        assert "site-done" in str(e) and "@ A" in str(e)

    def test_str_without_site(self):
        assert "@" not in str(SimEvent(0.0, "arrival", "j1"))


class TestTrace:
    def test_record_and_filter(self):
        t = Trace()
        t.record(SimEvent(0.0, "arrival", "a"))
        t.record(SimEvent(1.0, "completion", "a"))
        assert len(t.events) == 2
        assert [e.job for e in t.events if e.kind == "arrival"] == ["a"]

    def test_bounded_trace_drops(self):
        t = Trace(max_events=1)
        t.record(SimEvent(0.0, "arrival", "a"))
        t.record(SimEvent(1.0, "completion", "a"))
        assert len(t.events) == 1
        assert t.dropped == 1

    def test_render_limits(self):
        t = Trace()
        for k in range(10):
            t.record(SimEvent(float(k), "arrival", f"j{k}"))
        text = t.render(limit=3)
        assert "more events" in text
