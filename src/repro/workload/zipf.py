"""Bounded Zipf laws over sites — the skew knob of every experiment.

``theta = 0`` is the uniform distribution; as ``theta`` grows, workload
concentrates on the most popular sites.  ``theta in [0, 2]`` is the sweep
range used by the balance/JCT experiments (F1-F4).
"""

from __future__ import annotations

import numpy as np

from repro._util import require


def zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """Probabilities ``p_k ∝ 1 / (k+1)^theta`` over ``n`` ranks.

    ``theta = 0`` gives the uniform law; ``theta`` may be any non-negative
    float (not restricted to > 1, unlike :func:`numpy.random.zipf`, because
    the support is bounded).
    """
    require(n > 0, "need at least one rank")
    require(theta >= 0.0, f"theta must be non-negative, got {theta}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-theta
    return weights / weights.sum()
