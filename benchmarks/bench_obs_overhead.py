"""Observability overhead gate: obs-off vs obs-on A/B on the solver hot path.

The :mod:`repro.obs` layer promises a near-free disabled path (one
attribute read per call site) and a cheap enabled path (counter folds at
solve granularity, spans around probes).  This benchmark prices both
against a flow-probe workload (``amf_levels`` + ``amf_levels_bisect`` on
three Zipf cluster sizes), and **fails the build** when the enabled path costs more
than ``--max-overhead`` (default 1.05 = +5%)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --out BENCH_OBS.json

Three configurations, timed on identical instances:

* ``off``       — registry and tracer disabled (the library default),
* ``metrics``   — registry enabled (counter folds, no spans),
* ``full``      — registry + tracer enabled (spans on every probe).

The gate compares ``full`` against ``off``; ``metrics`` is reported for
attribution.  Shared-machine noise swamps a 5% effect when the arms are
timed in separate blocks, so the statistic is drift-robust: every repeat
times all three arms back-to-back (one *pair*), the overhead of a repeat
is the within-pair ratio (slow minutes hit both arms alike and cancel),
and the reported overhead is the **median of per-repeat ratios** over the
workload total.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.amf import AmfDiagnostics, amf_levels, amf_levels_bisect  # noqa: E402
from repro.obs.registry import REGISTRY  # noqa: E402
from repro.obs.tracing import TRACER  # noqa: E402
from repro.workload.generator import WorkloadSpec, generate_cluster  # noqa: E402

CONFIGS = ("off", "metrics", "full")


def _scaled(n: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(n * scale)))


def _configure(config: str) -> None:
    REGISTRY.disable()
    TRACER.disable()
    TRACER.clear()
    if config in ("metrics", "full"):
        REGISTRY.enable()
    if config == "full":
        TRACER.enable()


def run(scale: float, repeats: int) -> dict:
    """Median of per-repeat paired ratios over the three flow-probe sizes."""
    sizes = [(_scaled(50, scale, 10), _scaled(10, scale, 3)),
             (_scaled(100, scale, 10), _scaled(20, scale, 3)),
             (_scaled(200, scale, 10), _scaled(20, scale, 3))]
    clusters = [
        generate_cluster(
            WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=1.2), np.random.default_rng(0)
        )
        for n_jobs, n_sites in sizes
    ]
    # untimed warmup so allocator pools and numpy buffers are primed
    # identically for every arm
    for cluster in clusters:
        amf_levels(cluster, diagnostics=AmfDiagnostics())

    levels: dict[str, list[np.ndarray]] = {c: [None] * len(sizes) for c in CONFIGS}
    # totals[config][repeat] = workload total for that arm within the pair
    totals: dict[str, list[float]] = {c: [] for c in CONFIGS}
    per_size: dict[str, list[list[float]]] = {c: [[] for _ in sizes] for c in CONFIGS}
    for _ in range(repeats):
        for config in CONFIGS:  # back-to-back arms form one paired repeat
            _configure(config)
            total = 0.0
            for k, cluster in enumerate(clusters):
                diag = AmfDiagnostics()
                t0 = time.perf_counter()
                levels[config][k] = amf_levels(cluster, diagnostics=diag)
                amf_levels_bisect(cluster, diagnostics=diag)
                dt = time.perf_counter() - t0
                per_size[config][k].append(dt)
                total += dt
            totals[config].append(total)
    _configure("off")
    for k in range(len(sizes)):
        np.testing.assert_allclose(levels["full"][k], levels["off"][k], atol=1e-9, rtol=1e-9)
        np.testing.assert_allclose(levels["metrics"][k], levels["off"][k], atol=1e-9, rtol=1e-9)

    def paired_overhead(config: str) -> float:
        ratios = [t / off for t, off in zip(totals[config], totals["off"])]
        return float(statistics.median(ratios))

    rows = [
        {
            "n_jobs": n_jobs,
            "n_sites": n_sites,
            **{f"{c}_ms": 1e3 * min(per_size[c][k]) for c in CONFIGS},
            "full_overhead": float(
                statistics.median(
                    t / off for t, off in zip(per_size["full"][k], per_size["off"][k])
                )
            ),
        }
        for k, (n_jobs, n_sites) in enumerate(sizes)
    ]
    return {
        "rows": rows,
        **{f"{c}_ms": 1e3 * min(totals[c]) for c in CONFIGS},
        "metrics_overhead": paired_overhead("metrics"),
        "full_overhead": paired_overhead("full"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0, help="instance size scale")
    ap.add_argument("--repeats", type=int, default=5, help="timed repeats (min is reported)")
    ap.add_argument("--out", default="BENCH_OBS.json", help="output JSON path")
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=1.05,
        help="fail if obs-on / obs-off exceeds this ratio (1.05 = +5%%)",
    )
    args = ap.parse_args(argv)

    result = {"scale": args.scale, "repeats": args.repeats, "flow_probe": run(args.scale, args.repeats)}
    stage = result["flow_probe"]
    result["summary"] = {
        "metrics_overhead": stage["metrics_overhead"],
        "full_overhead": stage["full_overhead"],
        "max_overhead": args.max_overhead,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"  metrics-only overhead: {100 * (stage['metrics_overhead'] - 1):+.2f}%")
    print(f"  metrics+traces overhead: {100 * (stage['full_overhead'] - 1):+.2f}%")

    if stage["full_overhead"] > args.max_overhead:
        print(
            f"FAIL: enabled-observability overhead {stage['full_overhead']:.3f} "
            f"exceeds the {args.max_overhead:.2f} gate",
            file=sys.stderr,
        )
        return 1
    print(f"gate OK: {stage['full_overhead']:.3f} <= {args.max_overhead:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
