"""Unicode sparklines: make figure *shapes* visible in terminal output.

The experiment CLI prints figures as tables; a sparkline column gives
the reader the curve at a glance (rising, falling, crossover), which is
what reproducing a figure's *shape* is about.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, lo: float | None = None, hi: float | None = None) -> str:
    """Render ``values`` as a block-character sparkline.

    Non-finite values render as spaces.  ``lo``/``hi`` pin the scale (e.g.
    to share one scale across several series); by default the finite range
    of the data is used.
    """
    arr = np.asarray(list(values), dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return " " * arr.size
    lo = float(finite.min()) if lo is None else lo
    hi = float(finite.max()) if hi is None else hi
    span = hi - lo
    out = []
    for v in arr:
        if not np.isfinite(v):
            out.append(" ")
            continue
        if span <= 0:
            out.append(BLOCKS[0])
            continue
        idx = int(round((v - lo) / span * (len(BLOCKS) - 1)))
        out.append(BLOCKS[min(max(idx, 0), len(BLOCKS) - 1)])
    return "".join(out)


def sparkline_summary(series: Mapping[str, Sequence[float]], *, shared_scale: bool = True) -> str:
    """One sparkline per series, optionally on a shared scale.

    A shared scale makes *who is above whom* readable; per-series scales
    make each curve's own trend readable.
    """
    if not series:
        return ""
    lo = hi = None
    if shared_scale:
        allv = np.concatenate([np.asarray(list(v), dtype=float) for v in series.values()])
        finite = allv[np.isfinite(allv)]
        if finite.size:
            lo, hi = float(finite.min()), float(finite.max())
    width = max((len(k) for k in series), default=0)
    lines = []
    for name, values in series.items():
        lines.append(f"{name.ljust(width)}  {sparkline(values, lo=lo, hi=hi)}")
    return "\n".join(lines)
