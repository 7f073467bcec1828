"""Acceptance corpus for the LP oracle: every solver path against it, at scale.

Not part of the test suite (it takes minutes).  Run from the repo root::

    PYTHONPATH=src python -m tests.oracle_corpus [--scalar 2000] [--vector 300]

Scalar draws cycle through four families: ``random_cluster`` plain, with
caps and weights, with caps, weights and ``sharing_incentive_floors``,
and small Zipf ``WorkloadSpec`` clusters (weighted on every other draw).
On each, ``amf_levels`` and ``solve_amf(...).aggregates`` must equal the
oracle's levels within 1e-9 x max(1, |levels|).  Vector draws are
``random_mr_cluster`` clusters as in ``tests/multiresource/test_freeze.py``
(floors on every fourth); the engine's fill and the served shares (the
last round's optimal vertex) must each equal the oracle's shares within
1e-9.  ``--scalar 0`` runs the vector half alone.  Prints the counts and
exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.amf import amf_levels, solve_amf
from repro.core.enhanced import sharing_incentive_floors
from repro.model.cluster import Cluster
from repro.workload.generator import WorkloadSpec, generate_jobs, sites_for
from tests.conftest import random_cluster
from tests.multiresource.test_freeze import corpus_draw, engine_fill
from tests.oracle import probe_fill_shares

FAMILIES = ("plain", "capped+weighted", "capped+weighted+floors", "zipf")


def scalar_draw(seed: int) -> tuple[str, Cluster, np.ndarray | None]:
    rng = np.random.default_rng(seed)
    family = FAMILIES[seed % len(FAMILIES)]
    if family == "plain":
        return family, random_cluster(rng), None
    if family == "zipf":
        spec = WorkloadSpec(
            n_jobs=int(rng.integers(4, 13)),
            n_sites=int(rng.integers(2, 6)),
            site_spread=int(rng.integers(1, 4)),
            theta=float(rng.uniform(0.0, 1.5)),
            weight_spread=1.0 if seed % 8 == 3 else 0.0,
        )
        jobs = generate_jobs(spec, rng)
        return family, Cluster(sites_for(spec, jobs), jobs), None
    cluster = random_cluster(rng, cap_prob=0.6, weight_spread=2.0)
    return family, cluster, sharing_incentive_floors(cluster) if family.endswith("floors") else None


def run_scalar(draws: int) -> int:
    bad, worst = 0, 0.0
    for seed in range(draws):
        family, cluster, floors = scalar_draw(seed)
        shares, _ = probe_fill_shares(cluster, floors)
        want = shares / cluster.dominant_factor()
        bound = 1e-9 * max(1.0, float(np.abs(want).max(initial=0.0)))
        for name, got in (
            ("amf_levels", amf_levels(cluster, floors)),
            ("solve_amf", solve_amf(cluster, floors).aggregates),
        ):
            gap = float(np.abs(got - want).max(initial=0.0))
            worst = max(worst, gap / bound * 1e-9)
            if gap > bound:
                bad += 1
                print(f"scalar seed {seed} ({family}): {name} off the oracle by {gap:.3g}")
    print(
        f"scalar: {draws} draws cycling {', '.join(FAMILIES)}; "
        f"{bad} disagreements, worst relative gap {worst:.2g}"
    )
    return bad


def run_vector(draws: int) -> int:
    bad = compared = refused = seed = 0
    worst = {"engine fill": 0.0, "served shares": 0.0}
    while compared < draws:
        draw = corpus_draw(seed)
        seed += 1
        if draw is None:
            continue
        cluster, floors = draw
        try:
            want, _ = probe_fill_shares(cluster, floors)
        except ValueError:  # infeasible floors: test_freeze checks the engine refuses them too
            refused += 1
            continue
        compared += 1
        fill, _ = engine_fill(cluster, floors)
        served = cluster.dominant_factor() * solve_amf(cluster, floors).aggregates
        for name, got, bound in (("engine fill", fill, 1e-9), ("served shares", served, 1e-9)):
            gap = float(np.abs(got - want).max(initial=0.0))
            worst[name] = max(worst[name], gap)
            if gap > bound:
                bad += 1
                print(f"vector seed {seed - 1}: {name} off the oracle by {gap:.3g}")
    print(
        f"vector: {compared} irreducible draws compared (seeds 0..{seed - 1}; "
        f"{refused} more had infeasible floors); {bad} disagreements, worst gaps "
        + ", ".join(f"{name} {gap:.2g}" for name, gap in worst.items())
    )
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scalar", type=int, default=2000)
    parser.add_argument("--vector", type=int, default=300)
    args = parser.parse_args(argv)
    return 1 if run_scalar(args.scalar) + run_vector(args.vector) else 0


if __name__ == "__main__":
    sys.exit(main())
