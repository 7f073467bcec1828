"""Reading a sweep's cells in the claim tests."""

from __future__ import annotations

from repro.analysis.sweep import SweepResult


def metric_at(sweep: SweepResult, metric: str, x) -> float:
    """``metric``'s mean over seeds at the grid point ``x``."""
    return sweep.mean[metric][sweep.x_values.index(x)]
