"""Micro-benchmarks of the core primitives (true repeated-measurement benches).

Not a paper figure — these track the library's own hot paths so performance
regressions in the flow engine or the water-filling kernels are visible.
"""

import numpy as np
import pytest

from repro.core.amf import amf_levels
from repro.core.persite import solve_psmf
from repro.core.waterfilling import water_fill
from repro.flownet.parametric import ParametricFeasibility
from repro.workload.generator import WorkloadSpec, generate_cluster


@pytest.fixture(scope="module")
def medium_cluster():
    return generate_cluster(WorkloadSpec(n_jobs=100, n_sites=20, theta=1.2), np.random.default_rng(0))


def _lambda_schedule(cluster, k=12):
    """An AMF-like ascending-then-bisecting λ sequence for probe benches."""
    hi = float(np.max(cluster.aggregate_demand / np.maximum(cluster.weights, 1e-12)))
    rising = list(np.linspace(0.05, 0.6, k // 2))
    lo, up = 0.0, hi
    bisect = []
    for _ in range(k - len(rising)):
        mid = 0.5 * (lo + up)
        bisect.append(mid)
        up = mid  # descending, as when bisection keeps failing high
    return [lam * hi for lam in rising] + bisect


def test_bench_water_fill(benchmark):
    rng = np.random.default_rng(1)
    caps = rng.uniform(0.1, 5.0, 1000)
    weights = rng.uniform(0.5, 2.0, 1000)
    result = benchmark(water_fill, 300.0, caps, weights)
    assert result.sum() == pytest.approx(300.0, rel=1e-6)


def test_bench_feasibility_maxflow(benchmark, medium_cluster):
    """One cold probe: build the oracle's network and solve it from zero flow."""
    targets = medium_cluster.aggregate_demand * 0.2

    def solve():
        return ParametricFeasibility(medium_cluster).probe(targets)

    outcome = benchmark(solve)
    assert outcome.demanded > 0 and outcome.mode == "flow-cold"


def test_bench_psmf(benchmark, medium_cluster):
    alloc = benchmark(solve_psmf, medium_cluster)
    assert alloc.utilization > 0


def test_bench_amf_levels(benchmark, medium_cluster):
    levels = benchmark.pedantic(amf_levels, args=(medium_cluster,), iterations=1, rounds=3)
    assert levels.min() >= 0


def test_bench_probe_sequence_parametric(benchmark, medium_cluster, record_bench):
    """Warm path: one ParametricFeasibility oracle across an AMF-like λ schedule.

    Asserts verdict-for-verdict agreement with the cold path, one fresh
    oracle per probe — the speedup is only meaningful if the answers are
    the same.
    """
    lams = _lambda_schedule(medium_cluster)
    weights = medium_cluster.weights
    caps = medium_cluster.aggregate_demand
    cold = [
        ParametricFeasibility(medium_cluster).probe(np.minimum(lam * weights, caps)).feasible
        for lam in lams
    ]

    def run():
        oracle = ParametricFeasibility(medium_cluster)
        return [oracle.probe(np.minimum(lam * weights, caps)).feasible for lam in lams]

    verdicts = benchmark(run)
    assert verdicts == cold
    record_bench("probe_sequence_parametric", benchmark)
