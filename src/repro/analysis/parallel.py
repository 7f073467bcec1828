"""Process-pool fan-out for experiment sweeps.

Every figure in the reproduction is an embarrassingly parallel grid of
``fn(point, seed)`` evaluations — independent solves on independently
generated clusters.  :func:`parallel_map` owns the process-pool plumbing so
:func:`~repro.analysis.sweep.sweep1d`, the report runner and the
``experiment`` CLI can fan out with one ``workers=`` argument and stay
bit-identical to the serial path (every task seeds its own
``np.random.default_rng``; no state crosses task boundaries).

Two deliberate design points:

* **fork, not spawn.**  Sweep callables are closures over experiment
  parameters and are not picklable.  With the ``fork`` start method the
  child inherits the parent's memory, so the callable is published in a
  module global *before* the pool is created and workers call it by name —
  nothing but the task tuple and the result ever crosses the pipe.  On
  platforms without ``fork`` (or inside a worker) the map silently runs
  serial; correctness never depends on parallelism.
* **serial by default.**  ``workers=None`` resolves through
  :func:`default_workers` (the ``REPRO_WORKERS`` environment variable,
  else 1; ``experiment --workers N`` sets it), so library callers see no
  behavioural change unless they opt in.

The fork fallback is silent in results but not in telemetry: the first
time a multi-worker map degrades to serial because the platform lacks
``fork``, a :class:`RuntimeWarning` is emitted (once per process) and
every such degradation bumps the ``repro_parallel_fallback_total``
counter — a sweep that quietly ran 1x instead of 8x is otherwise
indistinguishable from a slow machine.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.instruments import record_parallel_fallback

__all__ = [
    "default_workers",
    "parallel_map",
    "grid_map",
]

_IN_WORKER = False  # guards against nested pools (fork bombs)

# The callable being mapped, published for fork inheritance.  Only ever set
# in the parent immediately before the pool is created, and read by workers
# that were forked *after* the assignment.
_WORKER_FN: Callable | None = None


def default_workers() -> int:
    """The worker count used when ``workers=None``: ``REPRO_WORKERS``, else 1."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def _resolve(workers: int | None) -> int:
    n = default_workers() if workers is None else max(1, int(workers))
    return min(n, os.cpu_count() or 1)


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


_WARNED_NO_FORK = False  # one warning per process; the counter counts all


def _note_fork_unavailable() -> None:
    """Telemetry for a map that wanted workers but must run serial."""
    global _WARNED_NO_FORK
    record_parallel_fallback()
    if not _WARNED_NO_FORK:
        _WARNED_NO_FORK = True
        warnings.warn(
            "parallel_map: the 'fork' start method is unavailable on this "
            "platform; running serially (results are identical, just slower). "
            "This warning is emitted once; every degradation counts on "
            "repro_parallel_fallback_total.",
            RuntimeWarning,
            stacklevel=3,
        )


def _init_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _invoke(task):
    # Runs in the worker; _WORKER_FN was inherited through fork.
    return _WORKER_FN(task)


def parallel_map(fn: Callable, tasks: Sequence, workers: int | None = None) -> list:
    """``[fn(t) for t in tasks]`` fanned over a fork pool, order preserved.

    ``fn`` may be a closure (it is inherited by fork, never pickled); the
    tasks and results must be picklable.  Falls back to the serial list
    comprehension when the resolved worker count is 1, the platform lacks
    ``fork``, or we are already inside a worker.
    """
    tasks = list(tasks)
    n_workers = min(_resolve(workers), max(1, len(tasks)))
    if n_workers > 1 and not _IN_WORKER and not _fork_available():
        _note_fork_unavailable()
        n_workers = 1
    if n_workers <= 1 or _IN_WORKER:
        return [fn(t) for t in tasks]
    global _WORKER_FN
    ctx = multiprocessing.get_context("fork")
    _WORKER_FN = fn
    try:
        with ctx.Pool(n_workers, initializer=_init_worker) as pool:
            chunk = max(1, len(tasks) // (4 * n_workers))
            return pool.map(_invoke, tasks, chunksize=chunk)
    finally:
        _WORKER_FN = None


def grid_map(
    fn: Callable[[object, np.random.Generator], object],
    points: Sequence,
    seeds: Iterable[int],
    workers: int | None = None,
) -> list[list]:
    """Evaluate ``fn(x, rng)`` over the ``points x seeds`` grid.

    Returns ``rows[i][k] = fn(points[i], default_rng(seeds[k]))``.  Each
    task constructs its own generator from its seed, so the grid is
    deterministic and identical under any worker count — the property the
    equivalence tests pin down.
    """
    points = list(points)
    seeds = list(seeds)
    flat = parallel_map(
        lambda task: fn(task[0], np.random.default_rng(task[1])),
        [(x, s) for x in points for s in seeds],
        workers=workers,
    )
    k = len(seeds)
    return [flat[i * k : (i + 1) * k] for i in range(len(points))]
