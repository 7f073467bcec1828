"""Tests for ASCII table rendering."""

import numpy as np

from repro.analysis.tables import fmt, render_table, series_table


class TestFmt:
    def test_int_like(self):
        assert fmt(3.0) == "3"

    def test_float(self):
        assert fmt(3.14159, precision=3) == "3.14"

    def test_nan_inf(self):
        assert fmt(np.nan) == "nan"
        assert fmt(np.inf) == "inf"

    def test_none(self):
        assert fmt(None) == "-"

    def test_string_passthrough(self):
        assert fmt("abc") == "abc"


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", "+"}
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_wide_cells_expand_columns(self):
        text = render_table(["x"], [["a-very-long-cell"]])
        assert "a-very-long-cell" in text


class TestRenderSeries:
    def test_one_row_per_x(self):
        text = series_table("theta", [0.0, 1.0], {"amf": [1.0, 0.9], "psmf": [0.8, 0.6]}).render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert "amf" in lines[0] and "psmf" in lines[0]

    def test_values_in_order(self):
        text = series_table("x", [5], {"y": [0.25]}).render()
        assert "0.25" in text and "5" in text
