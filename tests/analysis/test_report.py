"""Tests for the reproduction-report generator."""

import pytest

from repro.analysis.report import Report, ReportSection, generate_report, write_report
from repro.analysis.experiments import ExperimentOutput


class TestGenerate:
    def test_selected_experiments_run(self):
        rep = generate_report(scale=0.15, experiments=["T2"])
        assert len(rep.sections) == 1
        sec = rep.sections[0]
        assert sec.experiment == "T2"
        assert sec.error is None
        assert "T2" in sec.output.text
        assert rep.total_seconds > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            generate_report(experiments=["Z9"])

    def test_keep_going_records_failures(self, monkeypatch):
        from repro.analysis import experiments as exps

        def boom(scale=1.0, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(exps.EXPERIMENTS, "T2", boom)
        rep = generate_report(scale=0.2, experiments=["T2"])
        assert rep.sections[0].error is not None
        assert "kaboom" in rep.sections[0].error

    def test_fail_fast(self, monkeypatch):
        from repro.analysis import experiments as exps

        def boom(scale=1.0, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(exps.EXPERIMENTS, "T2", boom)
        with pytest.raises(RuntimeError):
            generate_report(scale=0.2, experiments=["T2"], keep_going=False)

    def test_workers_fan_out_keeps_order_and_text(self):
        serial = generate_report(scale=0.15, experiments=["T2", "T4"])
        fanned = generate_report(scale=0.15, experiments=["T2", "T4"], workers=2)
        assert [sec.experiment for sec in fanned.sections] == ["T2", "T4"]
        assert [sec.output.text for sec in fanned.sections] == [sec.output.text for sec in serial.sections]


class TestMarkdown:
    def test_renders_sections_and_header(self):
        rep = Report(scale=0.5)
        rep.sections.append(ReportSection("F1", 1.0, ExperimentOutput("F1", "table-body")))
        rep.sections.append(ReportSection("F2", 0.5, None, error="RuntimeError('x')"))
        md = rep.to_markdown()
        assert "# AMF reproduction report" in md
        assert "table-body" in md
        assert "FAILED" in md
        assert "1 ok, 1 failed" in md

    def test_write_report(self, tmp_path):
        out = tmp_path / "rep.md"
        rep = write_report(out, scale=0.15, experiments=["T2"])
        assert out.exists()
        assert "T2" in out.read_text()
        assert rep.sections[0].error is None
