"""Experiment harness: sweeps, seed-replication, ASCII tables.

Used by the CLI (``python -m repro.cli experiment``) to regenerate every
experiment series, and by ``tests/analysis/test_experiments.py`` to gate
each experiment's shape claim.
"""

from repro.analysis.tables import render_table, render_series, fmt
from repro.analysis.sweep import SweepResult, replicate, sweep1d
from repro.analysis.parallel import default_workers, grid_map, parallel_map, set_default_workers

__all__ = [
    "render_table",
    "render_series",
    "fmt",
    "SweepResult",
    "replicate",
    "sweep1d",
    "default_workers",
    "grid_map",
    "parallel_map",
    "set_default_workers",
]
