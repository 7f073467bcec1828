"""X9 (extension) — the online allocation service under Poisson churn.

Closed-loop load generator (arrivals + exponential sojourns) driving the
full service pipeline — coalescing queue, fingerprint cache, warm-started
incremental AMF behind the resilient chain — on a virtual clock.  Every
warm solution is verified against a cold ``solve_amf`` of the identical
snapshot behind the same resilient chain (docs/service.md).  Claims:
incremental == cold, and the persisted per-shard cut pools make warm
re-solves measurably faster (fewer max-flow feasibility probes per solve).
"""

from repro.analysis.experiments import run_x9_service


def test_x9_service(run_once):
    out = run_once(
        run_x9_service,
        scale=0.5,
        seeds=(0,),
        queries_per_batch=4,
    )
    agg = out.data["aggregate"]
    # the warm solver must agree with the cold oracle on every snapshot
    assert agg["max_abs_deviation"] <= agg["tolerance"]
    assert agg["fallbacks"] == 0.0
    # serving traffic between re-solves is absorbed by the cache
    assert agg["cache_hit_rate"] > 0.5
    # batching coalesces: fewer solves than events
    assert agg["solves"] < agg["events"]
    # the warm start pays for itself in max-flow feasibility probes
    assert agg["warm_feas_per_solve"] < agg["cold_feas_per_solve"]
