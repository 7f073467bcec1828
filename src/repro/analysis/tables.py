"""Experiment tables as data, and their one ASCII rendering.

Every experiment returns :class:`Table` values (a title, a header and rows
of cells); :meth:`Table.render` is the only place that turns one into text.
Keeping the numbers as rows lets ``tests/analysis/test_experiments.py`` pin
them against a committed golden while the CLI and the report print the same
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def fmt(value, precision: int = 4) -> str:
    """Compact numeric formatting (NaN/inf-safe) for table cells."""
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    v = float(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf"
    if v == int(v) and abs(v) < 1e9:
        return str(int(v))
    return f"{v:.{precision}g}"


@dataclass(frozen=True, slots=True)
class Table:
    """One table of an experiment: ``rows[k][c]`` is the cell under ``header[c]``.

    ``sparklines`` appends one shared-scale sparkline per column after the
    first (the x axis of a figure); ``note`` is free text printed under it.
    """

    title: str | None
    header: Sequence[str]
    rows: Sequence[Sequence]
    sparklines: bool = False
    note: str = ""

    def render(self) -> str:
        text = render_table(self.header, self.rows, title=self.title)
        if self.sparklines:
            from repro.analysis.sparkline import sparkline_summary

            series = {h: [row[c] for row in self.rows] for c, h in enumerate(self.header[1:], start=1)}
            text += "\n\nshape (shared scale):\n" + sparkline_summary(series)
        if self.note:
            text += "\n" + self.note
        return text


def series_table(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence],
    title: str | None = None,
    sparklines: bool = False,
) -> Table:
    """A figure as a table: one row per x-value, one column per series.

    This is the textual equivalent of the paper's line plots: the *shape*
    (who wins, where curves cross) is readable directly, and the sparklines
    make crossovers visible at a glance.
    """
    rows = [[x, *(values[k] for values in series.values())] for k, x in enumerate(x_values)]
    return Table(title, [x_label, *series], rows, sparklines=sparklines)


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, c in enumerate(row):
            widths[k] = max(widths[k], len(c))
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)

