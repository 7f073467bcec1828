"""Experiment harness: sweeps, seed-replication, tables as data.

Used by the CLI (``python -m repro.cli experiment``) to regenerate every
experiment series, and by ``tests/analysis/test_experiments.py`` to gate
each experiment's shape claim.
"""

from repro.analysis.tables import Table, fmt, render_table, series_table
from repro.analysis.sweep import SweepResult, finite_mean, sweep1d
from repro.analysis.parallel import default_workers, grid_map, parallel_map

__all__ = [
    "Table",
    "render_table",
    "series_table",
    "fmt",
    "SweepResult",
    "finite_mean",
    "sweep1d",
    "default_workers",
    "grid_map",
    "parallel_map",
]
