"""Parameter sweeps with seed replication.

Twelve of the reproduction's experiments are a 1-D sweep (skew, #jobs,
#sites, load, ...) of scalar metrics averaged over random seeds.
:func:`sweep1d` owns that loop, and ``repro.analysis.experiments._swept``
is its one caller: it turns the seed means into the experiment's table.
:func:`finite_mean` is the one seed average, shared with T3's ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.parallel import grid_map


@dataclass(slots=True)
class SweepResult:
    """Outcome of a 1-D sweep: ``mean[metric][k]`` aligns with ``x_values[k]``."""

    x_label: str
    x_values: list
    mean: dict[str, list[float]] = field(default_factory=dict)
    std: dict[str, list[float]] = field(default_factory=dict)

    def series(self, metrics: Sequence[str] | None = None) -> dict[str, list[float]]:
        keys = metrics if metrics is not None else list(self.mean)
        return {k: self.mean[k] for k in keys}


def finite_mean(values) -> float:
    """Mean of the finite entries of ``values``; NaN when there are none.

    A starved static completion time (``inf``) should not wipe out a mean
    over seeds.
    """
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else np.nan


def sweep1d(
    x_label: str,
    x_values: Sequence,
    fn: Callable[[object, np.random.Generator], Mapping[str, float]],
    seeds: Sequence[int] = (0, 1, 2),
    workers: int | None = None,
) -> SweepResult:
    """Evaluate ``fn(x, rng)`` for every ``x`` and seed; aggregate per metric.

    ``fn`` returns a flat ``{metric: value}`` mapping; metrics must be the
    same for every point.  Each metric's mean is :func:`finite_mean` over
    the seeds, and its std is taken over the same finite samples.

    ``workers`` fans the ``(x, seed)`` grid over a process pool
    (:mod:`repro.analysis.parallel`); every task owns its seed's generator,
    so the result is identical for any worker count.  ``None`` defers to
    :func:`~repro.analysis.parallel.default_workers` (serial unless the
    caller or ``REPRO_WORKERS`` opted in).
    """
    result = SweepResult(x_label, list(x_values))
    grid = grid_map(fn, x_values, seeds, workers=workers)
    for rows in grid:
        for key in rows[0]:
            samples = np.asarray([r[key] for r in rows], dtype=float)
            finite = samples[np.isfinite(samples)]
            result.mean.setdefault(key, []).append(finite_mean(samples))
            result.std.setdefault(key, []).append(float(finite.std()) if finite.size else np.nan)
    return result
