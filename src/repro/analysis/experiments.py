"""The reproduction's experiment definitions (F1-F8, T1-T3 of DESIGN.md §4).

Each ``run_*`` function regenerates one figure/table: it returns an
:class:`ExperimentOutput` whose ``text`` is the printable series/table and
whose ``data`` carries the raw numbers (used by tests that assert the
*shape* of each result — who wins, by how much, where the gap grows).

Every function accepts ``scale`` (default 1.0): benchmarks use a reduced
scale so ``pytest benchmarks/`` stays fast, while the CLI runs full size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.sweep import sweep1d
from repro.analysis.tables import render_series, render_table
from repro.core import properties
from repro.core.amf import AmfDiagnostics, amf_levels, amf_levels_bisect
from repro.core.completion import optimize_completion_times, proportional_split
from repro.core.policies import get_policy
from repro.metrics.fairness import balance_report
from repro.model.cluster import Cluster
from repro.sim.engine import simulate
from repro.workload.arrivals import ArrivalSpec, generate_arrival_jobs, generate_churn_schedule
from repro.workload.generator import WorkloadSpec, generate_cluster, generate_jobs, sites_for


@dataclass(slots=True)
class ExperimentOutput:
    """Printable report + raw data of one experiment."""

    experiment: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _scaled(value: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(value * scale)))


DEFAULT_SEEDS = (11, 23, 37)


# ----------------------------------------------------------------------
# F1 / F2 — allocation balance vs workload skew
# ----------------------------------------------------------------------


def _balance_point(spec: WorkloadSpec, rng: np.random.Generator, policies: Sequence[str]) -> dict[str, float]:
    cluster = generate_cluster(spec, rng)
    out: dict[str, float] = {}
    for name in policies:
        rep = balance_report(get_policy(name)(cluster))
        for key, val in rep.row().items():
            out[f"{name}/{key}"] = val
    return out


def run_f1_balance_vs_skew(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F1: Jain index and CoV of comparable levels vs Zipf skew theta."""
    n_jobs = _scaled(100, scale)
    n_sites = _scaled(20, scale, minimum=4)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        return _balance_point(spec, rng, policies)

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    keys = [f"{p}/jain" for p in policies] + [f"{p}/cov" for p in policies]
    text = render_series("theta", sw.x_values, sw.series(keys), title="F1: allocation balance vs workload skew", sparklines=True)
    return ExperimentOutput("F1", text, {"sweep": sw, "n_jobs": n_jobs, "n_sites": n_sites})


def run_f2_minmax_vs_skew(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F2: min and max comparable level vs skew (who gets starved, who hoards)."""
    n_jobs = _scaled(100, scale)
    n_sites = _scaled(20, scale, minimum=4)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        return _balance_point(spec, rng, policies)

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    keys = [f"{p}/min_level" for p in policies] + [f"{p}/max_level" for p in policies] + [
        f"{p}/min_max" for p in policies
    ]
    text = render_series("theta", sw.x_values, sw.series(keys), title="F2: min/max allocation level vs skew", sparklines=True)
    return ExperimentOutput("F2", text, {"sweep": sw})


# ----------------------------------------------------------------------
# F3 / F4 — job completion time (dynamic batch simulation)
# ----------------------------------------------------------------------


def _sim_point(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    policies: Sequence[str],
) -> dict[str, float]:
    jobs = generate_jobs(spec, rng)
    sites = sites_for(spec, jobs)
    out: dict[str, float] = {}
    for name in policies:
        res = simulate(sites, jobs, name)
        for key, val in res.summary().items():
            out[f"{name}/{key}"] = val
    return out


def run_f3_jct_vs_skew(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    policies: Sequence[str] = ("psmf", "amf", "amf-ct-quick"),
) -> ExperimentOutput:
    """F3: mean JCT of a simulated batch vs skew."""
    n_jobs = _scaled(60, scale)
    n_sites = _scaled(12, scale, minimum=4)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        return _sim_point(spec, rng, policies)

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    keys = [f"{p}/mean_jct" for p in policies] + [f"{p}/makespan" for p in policies]
    text = render_series("theta", sw.x_values, sw.series(keys), title="F3: batch JCT vs workload skew", sparklines=True)
    return ExperimentOutput("F3", text, {"sweep": sw})


def run_f4_jct_distribution(
    scale: float = 1.0,
    seed: int = 11,
    theta: float = 1.5,
    policies: Sequence[str] = ("psmf", "amf", "amf-ct-quick"),
) -> ExperimentOutput:
    """F4: JCT distribution (deciles) at high skew — the CDF of the paper."""
    n_jobs = _scaled(60, scale)
    n_sites = _scaled(12, scale, minimum=4)
    spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
    rng = np.random.default_rng(seed)
    jobs = generate_jobs(spec, rng)
    sites = sites_for(spec, jobs)
    deciles = list(range(10, 101, 10))
    series: dict[str, list[float]] = {}
    results = {}
    for name in policies:
        res = simulate(sites, jobs, name)
        results[name] = res
        jcts = res.jcts()
        series[name] = [float(np.percentile(jcts, q)) if jcts.size else np.nan for q in deciles]
    text = render_series("percentile", deciles, series, title=f"F4: JCT deciles at theta={theta}", sparklines=True)
    return ExperimentOutput("F4", text, {"results": results, "deciles": deciles, "series": series})


# ----------------------------------------------------------------------
# F5 / F6 — sensitivity to #jobs and #sites
# ----------------------------------------------------------------------


def run_f5_vs_njobs(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    n_jobs_values: Sequence[int] = (20, 40, 80, 160, 320),
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F5: balance metrics vs number of jobs at fixed skew."""
    n_sites = _scaled(20, scale, minimum=4)
    values = [_scaled(v, scale) for v in n_jobs_values]

    def point(n, rng):
        spec = WorkloadSpec(n_jobs=int(n), n_sites=n_sites, theta=theta)
        return _balance_point(spec, rng, policies)

    sw = sweep1d("n_jobs", values, point, seeds=seeds)
    keys = [f"{p}/jain" for p in policies] + [f"{p}/min_max" for p in policies]
    text = render_series("n_jobs", sw.x_values, sw.series(keys), title="F5: balance vs number of jobs", sparklines=True)
    return ExperimentOutput("F5", text, {"sweep": sw})


def run_f6_vs_nsites(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    n_sites_values: Sequence[int] = (4, 8, 16, 32, 64),
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F6: balance metrics vs number of sites at fixed skew."""
    n_jobs = _scaled(100, scale)
    values = [max(2, int(round(v * max(scale, 0.25)))) for v in n_sites_values]

    def point(m, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=int(m), theta=theta, site_spread=min(4, int(m)))
        return _balance_point(spec, rng, policies)

    sw = sweep1d("n_sites", values, point, seeds=seeds)
    keys = [f"{p}/jain" for p in policies] + [f"{p}/min_max" for p in policies]
    text = render_series("n_sites", sw.x_values, sw.series(keys), title="F6: balance vs number of sites", sparklines=True)
    return ExperimentOutput("F6", text, {"sweep": sw})


# ----------------------------------------------------------------------
# F7 — dynamic open-system load sweep
# ----------------------------------------------------------------------


def run_f7_dynamic_load(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    loads: Sequence[float] = (0.3, 0.5, 0.7, 0.85, 0.95),
    policies: Sequence[str] = ("psmf", "amf", "amf-ct-quick"),
    theta: float = 1.2,
) -> ExperimentOutput:
    """F7: mean JCT and slowdown vs offered load (Poisson arrivals)."""
    n_jobs = _scaled(80, scale)
    n_sites = _scaled(10, scale, minimum=4)

    def point(load, rng):
        spec = ArrivalSpec(
            workload=WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta),
            load=float(load),
        )
        sites, jobs = generate_arrival_jobs(spec, rng)
        out: dict[str, float] = {}
        for name in policies:
            res = simulate(sites, jobs, name)
            out[f"{name}/mean_jct"] = res.mean_jct
            out[f"{name}/mean_slowdown"] = res.mean_slowdown
            out[f"{name}/p95_jct"] = res.jct_percentile(95)
        return out

    sw = sweep1d("load", list(loads), point, seeds=seeds)
    keys = [f"{p}/mean_jct" for p in policies] + [f"{p}/mean_slowdown" for p in policies]
    text = render_series("load", sw.x_values, sw.series(keys), title="F7: dynamic JCT vs offered load", sparklines=True)
    return ExperimentOutput("F7", text, {"sweep": sw})


# ----------------------------------------------------------------------
# F8 — solver scalability + ablation (cutting planes vs bisection)
# ----------------------------------------------------------------------


def run_f8_scalability(
    scale: float = 1.0,
    seed: int = 5,
    sizes: Sequence[tuple[int, int]] = ((50, 10), (100, 20), (200, 20), (500, 50), (1000, 50), (2000, 100)),
) -> ExperimentOutput:
    """F8: AMF solver wall time and max-flow count vs instance size."""
    sizes = [(max(4, int(n * scale)), max(2, int(m * max(scale, 0.2)))) for n, m in sizes]
    rng = np.random.default_rng(seed)
    rows = []
    data = []
    for n, m in sizes:
        spec = WorkloadSpec(n_jobs=n, n_sites=m, theta=1.2, site_spread=min(4, m))
        cluster = generate_cluster(spec, rng)
        d1 = AmfDiagnostics()
        t0 = time.perf_counter()
        amf_levels(cluster, diagnostics=d1)
        dt1 = time.perf_counter() - t0
        d2 = AmfDiagnostics()
        t0 = time.perf_counter()
        amf_levels_bisect(cluster, diagnostics=d2)
        dt2 = time.perf_counter() - t0
        rows.append([n, m, dt1 * 1e3, d1.feasibility_solves, dt2 * 1e3, d2.feasibility_solves])
        data.append(
            {
                "n": n,
                "m": m,
                "cutting_ms": dt1 * 1e3,
                "cutting_solves": d1.feasibility_solves,
                "bisect_ms": dt2 * 1e3,
                "bisect_solves": d2.feasibility_solves,
            }
        )
    text = render_table(
        ["n_jobs", "n_sites", "cutting ms", "cutting flows", "bisect ms", "bisect flows"],
        rows,
        title="F8: AMF solver scalability (cutting planes vs bisection)",
    )
    return ExperimentOutput("F8", text, {"rows": data})


# ----------------------------------------------------------------------
# T1 — property satisfaction matrix
# ----------------------------------------------------------------------


def run_t1_properties(
    scale: float = 1.0,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    policies: Sequence[str] = ("psmf", "amf", "amf-e"),
    sp_attempts: int = 4,
) -> ExperimentOutput:
    """T1: fraction of random instances satisfying each property, per policy.

    The paper's Table: AMF satisfies PE/EF/SP but not SI; enhanced AMF adds
    SI.  PSMF is per-site fair but not aggregate max-min fair.
    """
    from repro.workload.hubspoke import HubSpokeSpec, hub_and_spoke_cluster

    n_jobs = _scaled(12, scale, minimum=4)
    n_sites = _scaled(5, scale, minimum=2)
    counters: dict[str, dict[str, int]] = {p: {"pareto": 0, "max_min": 0, "envy_free": 0, "si": 0, "sp": 0} for p in policies}
    # Half the battery is generic Zipf batches, half is hub-and-spoke (the
    # regime where plain AMF fails sharing incentive — the paper's "not
    # necessarily" claim); all other properties are regime-independent.
    instances = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=1.5, site_spread=min(3, n_sites), demand_scale=0.03)
        instances.append((generate_cluster(spec, rng), rng))
        rng2 = np.random.default_rng(10_000 + seed)
        hub = HubSpokeSpec(n_jobs=max(3, n_jobs // 2), cap_spread=1.0)
        instances.append((hub_and_spoke_cluster(hub, rng2), rng2))
    total = len(instances)
    for cluster, rng in instances:
        for name in policies:
            policy = get_policy(name)
            alloc = policy(cluster)
            rep = properties.check_all(alloc)
            counters[name]["pareto"] += rep.pareto
            counters[name]["max_min"] += rep.max_min
            counters[name]["envy_free"] += rep.envy_free
            counters[name]["si"] += rep.sharing_incentive
            manip = properties.strategy_proofness_probe(cluster, policy, rng, attempts=sp_attempts)
            counters[name]["sp"] += not manip
    rows = [
        [name, *(f"{counters[name][k]}/{total}" for k in ("pareto", "max_min", "envy_free", "si", "sp"))]
        for name in policies
    ]
    text = render_table(
        ["policy", "pareto", "aggregate max-min", "envy-free", "sharing incentive", "strategy-proof (probe)"],
        rows,
        title="T1: property satisfaction over random instances",
    )
    return ExperimentOutput("T1", text, {"counters": counters, "total": total})


# ----------------------------------------------------------------------
# T2 — sharing-incentive violations: AMF vs AMF-E
# ----------------------------------------------------------------------


def run_t2_sharing_incentive(
    scale: float = 1.0,
    seeds: Sequence[int] = tuple(range(10)),
    theta: float = 1.5,
) -> ExperimentOutput:
    """T2: frequency and magnitude of SI violations, AMF vs enhanced AMF.

    Two instance families:

    * **hub-and-spoke** (the violation's structural home, see
      :mod:`repro.workload.hubspoke`): a shared hot hub plus per-job
      demand-capped satellites — jobs with above-average outside options
      end up *below* their equal-partition entitlement under plain AMF;
    * **generic Zipf batches**: shows that the failure is rare in
      unstructured workloads, which is the honest framing of the paper's
      "does not *necessarily* satisfy" claim.

    Enhanced AMF must report zero violations in both families.
    """
    from repro.workload.hubspoke import HubSpokeSpec, hub_and_spoke_cluster

    n_jobs = _scaled(30, scale, minimum=4)
    n_sites = _scaled(8, scale, minimum=2)

    def battery(make_cluster):
        stats = {
            "amf": {"instances": 0, "violated": 0, "jobs": 0, "worst": 0.0},
            "amf-e": {"instances": 0, "violated": 0, "jobs": 0, "worst": 0.0},
        }
        for seed in seeds:
            cluster = make_cluster(np.random.default_rng(seed))
            for name in ("amf", "amf-e"):
                alloc = get_policy(name)(cluster)
                violations = properties.sharing_incentive_violations(alloc)
                s = stats[name]
                s["instances"] += 1
                s["violated"] += bool(violations)
                s["jobs"] += len(violations)
                s["worst"] = max(s["worst"], max((v for _, v in violations), default=0.0))
        return stats

    hub_spec = HubSpokeSpec(n_jobs=_scaled(12, scale, minimum=3), cap_spread=1.0)
    hub_stats = battery(lambda rng: hub_and_spoke_cluster(hub_spec, rng))
    zipf_stats = battery(
        lambda rng: generate_cluster(
            WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta, demand_scale=0.03), rng
        )
    )
    rows = []
    for family, stats in (("hub-and-spoke", hub_stats), ("generic zipf", zipf_stats)):
        for name, s in stats.items():
            rows.append([family, name, f"{s['violated']}/{s['instances']}", s["jobs"], s["worst"]])
    text = render_table(
        ["family", "policy", "instances violated", "violating jobs", "worst shortfall"],
        rows,
        title="T2: sharing-incentive violations, AMF vs enhanced AMF",
    )
    return ExperimentOutput("T2", text, {"hub": hub_stats, "zipf": zipf_stats, "stats": hub_stats})


# ----------------------------------------------------------------------
# T3 — completion-time add-on ablation
# ----------------------------------------------------------------------


def run_t3_ct_ablation(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    theta: float = 1.5,
) -> ExperimentOutput:
    """T3: what each CT-add-on depth buys.

    Two views on identical AMF aggregates:

    * **static split quality** — per-job stretch ``T_i / (W_i / A_i)`` of
      the split each mode produces (one solve per mode; ``inf`` stretches
      from starved edges are reported as a count);
    * **simulated batch JCT** — for the variants cheap enough to re-solve
      at every event (raw ``amf``, ``amf-prop``, ``amf-ct-quick``); the
      full lexicographic mode is a static optimizer, not a per-event
      policy, so it appears in the static view only.
    """
    n_jobs = _scaled(40, scale, minimum=4)
    n_sites = _scaled(10, scale, minimum=3)
    static_modes = ("raw-maxflow", "proportional", "stretch1", "makespan", "stretch")
    sim_variants = ("amf", "amf-prop", "amf-ct-quick")

    static_acc: dict[str, list[float]] = {f"{m}/{k}": [] for m in static_modes for k in ("mean_stretch", "max_stretch", "starved")}
    sim_acc: dict[str, list[float]] = {f"{v}/{k}": [] for v in sim_variants for k in ("mean_jct", "p95_jct", "makespan")}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        cluster = Cluster(sites, jobs)
        levels = amf_levels(cluster)
        ideal = cluster.workloads.sum(axis=1) / np.maximum(levels, 1e-300)

        def record_static(mode: str, alloc) -> None:
            stretch = alloc.completion_times() / ideal
            finite = stretch[np.isfinite(stretch) & (levels > 1e-12)]
            static_acc[f"{mode}/mean_stretch"].append(float(finite.mean()) if finite.size else np.nan)
            static_acc[f"{mode}/max_stretch"].append(float(finite.max()) if finite.size else np.nan)
            static_acc[f"{mode}/starved"].append(float(np.isinf(stretch).sum()))

        from repro.core.amf import solve_amf

        record_static("raw-maxflow", solve_amf(cluster))
        record_static("proportional", proportional_split(cluster, levels))
        record_static("stretch1", optimize_completion_times(cluster, levels, mode="stretch1"))
        record_static("makespan", optimize_completion_times(cluster, levels, mode="makespan"))
        record_static("stretch", optimize_completion_times(cluster, levels, mode="stretch"))

        for name in sim_variants:
            res = simulate(sites, jobs, name)
            sim_acc[f"{name}/mean_jct"].append(res.mean_jct)
            sim_acc[f"{name}/p95_jct"].append(res.jct_percentile(95))
            sim_acc[f"{name}/makespan"].append(res.makespan)

    def _mean(values: list[float]) -> float:
        arr = np.asarray(values, dtype=float)
        finite = arr[np.isfinite(arr)]
        return float(finite.mean()) if finite.size else np.nan

    static_rows = [
        [m, *(_mean(static_acc[f"{m}/{k}"]) for k in ("mean_stretch", "max_stretch", "starved"))]
        for m in static_modes
    ]
    sim_rows = [
        [v, *(_mean(sim_acc[f"{v}/{k}"]) for k in ("mean_jct", "p95_jct", "makespan"))]
        for v in sim_variants
    ]
    text = render_table(
        ["split mode", "mean stretch", "max stretch", "starved edges"],
        static_rows,
        title=f"T3a: static split quality under fixed AMF aggregates (theta={theta})",
    )
    text += "\n\n" + render_table(
        ["policy", "mean JCT", "p95 JCT", "makespan"],
        sim_rows,
        title="T3b: simulated batch JCT (per-event re-solve)",
    )
    return ExperimentOutput("T3", text, {"static": static_acc, "sim": sim_acc})


# ----------------------------------------------------------------------
# T4 — extension: monotonicity axioms
# ----------------------------------------------------------------------


def run_t4_monotonicity(
    scale: float = 1.0,
    seeds: Sequence[int] = tuple(range(6)),
    policies: Sequence[str] = ("psmf", "amf", "amf-e"),
) -> ExperimentOutput:
    """T4 (extension): population and resource monotonicity per policy.

    Classic axioms the paper's property section sits next to: does a job
    ever *lose* when a competitor departs (population) or when a site
    grows (resource)?  Probed exhaustively over single departures /
    single-site growth on random demand-capped instances.

    Expected: PSMF and AMF are clean; **AMF-E is not monotone** — both a
    departure and a site growth raise everyone's equal-partition floors
    (``c_j / n`` grows), and the higher floors of *other* jobs can squeeze
    a previously-rich job.  Which axiom breaks depends on the instance; an
    inherent price of the sharing-incentive guarantee, surfaced honestly.
    """
    n_jobs = _scaled(6, scale, minimum=3)
    n_sites = _scaled(4, scale, minimum=2)
    rows = []
    data: dict[str, dict[str, int]] = {}
    for name in policies:
        policy = get_policy(name)
        pop = res = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=1.3, demand_scale=0.05)
            cluster = generate_cluster(spec, rng)
            pop += len(properties.population_monotonicity_probe(cluster, policy))
            res += len(properties.resource_monotonicity_probe(cluster, policy))
        rows.append([name, pop, res])
        data[name] = {"population_breaches": pop, "resource_breaches": res}
    text = render_table(
        ["policy", "population breaches", "resource breaches"],
        rows,
        title=f"T4: monotonicity probes over {len(seeds)} instances (all departures / site growths)",
    )
    return ExperimentOutput("T4", text, {"data": data})


# ----------------------------------------------------------------------
# X1 — extension: time-averaged dynamic balance
# ----------------------------------------------------------------------


def run_x1_dynamic_balance(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    thetas: Sequence[float] = (0.0, 1.0, 2.0),
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """X1 (extension): *time-averaged* Jain index over a simulated batch.

    F1 scores one static snapshot; this scores the balance the system
    actually sustains while the batch drains, which is the fairness a user
    experiences.  Expected shape: same ordering as F1 (AMF above PSMF,
    gap grows with skew).
    """
    from repro.sim.observers import BalanceObserver

    n_jobs = _scaled(40, scale)
    n_sites = _scaled(8, scale, minimum=3)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        out: dict[str, float] = {}
        for name in policies:
            obs = BalanceObserver()
            simulate(sites, jobs, name, observer=obs)
            out[f"{name}/time_avg_jain"] = obs.time_avg_jain
            out[f"{name}/time_avg_cov"] = obs.time_avg_cov
        return out

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    keys = [f"{p}/time_avg_jain" for p in policies] + [f"{p}/time_avg_cov" for p in policies]
    text = render_series("theta", sw.x_values, sw.series(keys), title="X1: time-averaged dynamic balance vs skew", sparklines=True)
    return ExperimentOutput("X1", text, {"sweep": sw})


# ----------------------------------------------------------------------
# X2 — extension: per-event scheduling overhead
# ----------------------------------------------------------------------


def run_x2_scheduler_overhead(
    scale: float = 1.0,
    seed: int = 17,
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf", "amf-e", "amf-ct-quick"),
) -> ExperimentOutput:
    """X2 (extension): wall time per scheduling event in a dynamic run.

    The fairness gains of AMF come at the cost of max-flow solves on every
    arrival/completion; this experiment quantifies that overhead per
    policy on the same simulated batch.
    """
    from repro.sim.scheduler import TimedPolicy

    n_jobs = _scaled(40, scale)
    n_sites = _scaled(10, scale, minimum=3)
    spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
    rng = np.random.default_rng(seed)
    jobs = generate_jobs(spec, rng)
    sites = sites_for(spec, jobs)
    rows = []
    data = {}
    for name in policies:
        timed = TimedPolicy(name)
        simulate(sites, jobs, timed)
        s = timed.stats
        rows.append([name, s.solves, s.mean_ms, s.percentile_ms(95), s.max_ms, s.mean_active_jobs])
        data[name] = {
            "solves": s.solves,
            "mean_ms": s.mean_ms,
            "p95_ms": s.percentile_ms(95),
            "max_ms": s.max_ms,
        }
    text = render_table(
        ["policy", "solves", "mean ms", "p95 ms", "max ms", "mean active jobs"],
        rows,
        title="X2: per-event scheduling overhead (dynamic batch)",
    )
    return ExperimentOutput("X2", text, {"stats": data})


# ----------------------------------------------------------------------
# X3 — extension: weighted AMF (priority classes)
# ----------------------------------------------------------------------


def run_x3_weighted_fairness(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    weight_ratios: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    theta: float = 1.2,
) -> ExperimentOutput:
    """X3 (extension): weighted AMF delivers allocations proportional to weights.

    Half the jobs are 'premium' with weight ``r``, half are 'standard' with
    weight 1.  The measured ratio of mean premium aggregate to mean
    standard aggregate should track ``r`` until demand caps flatten it.
    """
    n_jobs = _scaled(40, scale)
    n_sites = _scaled(10, scale, minimum=3)

    def point(ratio, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta, demand_scale=None)
        jobs = generate_jobs(spec, rng)
        premium = {j.name for k, j in enumerate(jobs) if k % 2 == 0}
        reweighted = [
            type(j)(
                name=j.name,
                workload=dict(j.workload),
                demand=dict(j.demand),
                weight=float(ratio) if j.name in premium else 1.0,
            )
            for j in jobs
        ]
        cluster = Cluster(sites_for(spec, jobs), reweighted)
        alloc = get_policy("amf")(cluster)
        prem = [alloc.aggregate_of(n) for n in premium]
        std = [alloc.aggregate_of(j.name) for j in jobs if j.name not in premium]
        measured = float(np.mean(prem) / np.mean(std)) if std else np.nan
        return {"measured_ratio": measured, "target_ratio": float(ratio)}

    sw = sweep1d("weight_ratio", list(weight_ratios), point, seeds=seeds)
    text = render_series(
        "weight_ratio",
        sw.x_values,
        sw.series(["target_ratio", "measured_ratio"]),
        title="X3: weighted AMF — premium/standard aggregate ratio",
    )
    return ExperimentOutput("X3", text, {"sweep": sw})


# ----------------------------------------------------------------------
# X4 — extension: the price of locality
# ----------------------------------------------------------------------


def run_x4_price_of_locality(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
) -> ExperimentOutput:
    """X4 (extension): how far each policy's poorest job is from the
    locality-oblivious ideal, vs workload skew.

    The locality-oblivious bound pools all capacity; its minimum level
    upper-bounds what any feasible policy can give the poorest job.  The
    ratio (bound / measured min level) is the *price of locality*: AMF
    should pay far less of it than PSMF, and the gap should widen with
    skew — this quantifies the abstract's headline claim against an
    absolute yardstick rather than just against the baseline.
    """
    from repro.core.bounds import locality_oblivious_levels, price_of_locality

    n_jobs = _scaled(100, scale)
    n_sites = _scaled(20, scale, minimum=4)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        cluster = generate_cluster(spec, rng)
        oblivious_min = float((locality_oblivious_levels(cluster) / cluster.weights).min())
        out: dict[str, float] = {"oblivious/min_level": oblivious_min}
        for name in ("psmf", "amf"):
            alloc = get_policy(name)(cluster)
            out[f"{name}/min_level"] = float(alloc.normalized_aggregates().min())
            out[f"{name}/locality_price"] = price_of_locality(cluster, alloc.aggregates)
        return out

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    keys = [
        "oblivious/min_level",
        "amf/min_level",
        "psmf/min_level",
        "amf/locality_price",
        "psmf/locality_price",
    ]
    text = render_series(
        "theta", sw.x_values, sw.series(keys), title="X4: the price of locality", sparklines=True
    )
    return ExperimentOutput("X4", text, {"sweep": sw})


# ----------------------------------------------------------------------
# X5 — extension: allocation churn (reallocation cost)
# ----------------------------------------------------------------------


def run_x5_allocation_churn(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf", "amf-ct-quick"),
) -> ExperimentOutput:
    """X5 (extension): fraction of the cluster reassigned per event.

    Fluid metrics hide reallocation cost; real schedulers pay for every
    ``a_ij`` change (preemptions / resizes).  This experiment measures the
    mean L1 churn per event for each policy on the same batch — the
    operational price of AMF's cross-site compensation.
    """
    from repro.sim.observers import ChurnObserver

    n_jobs = _scaled(40, scale)
    n_sites = _scaled(10, scale, minimum=3)
    acc: dict[str, list[float]] = {name: [] for name in policies}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        for name in policies:
            obs = ChurnObserver()
            simulate(sites, jobs, name, observer=obs)
            acc[name].append(obs.mean_churn)
    rows = [[name, float(np.mean(acc[name])), float(np.max(acc[name]))] for name in policies]
    text = render_table(
        ["policy", "mean churn / event", "max (over seeds)"],
        rows,
        title=f"X5: allocation churn (fraction of capacity reassigned, theta={theta})",
    )
    return ExperimentOutput("X5", text, {"acc": acc})


# ----------------------------------------------------------------------
# X6 — extension: discrete slot scheduling vs the fluid model
# ----------------------------------------------------------------------


def run_x6_discrete_convergence(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    granularities: Sequence[float] = (0.2, 0.5, 1.0, 2.0, 5.0),
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """X6 (extension): does the fluid evaluation predict slot-based reality?

    The same batch is run through the fluid simulator and through the
    discrete task-level scheduler at increasing task granularity (more,
    shorter tasks).  Expected shape: the discrete mean JCT converges to
    the fluid one from above, and the policy ordering (AMF <= PSMF) is
    preserved at every granularity.
    """
    from repro.discrete import discretize_jobs, simulate_discrete
    from repro.model.site import Site

    n_jobs = _scaled(24, scale, minimum=4)
    n_sites = _scaled(6, scale, minimum=2)

    def point(granularity, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta, demand_scale=None, mean_work=30.0)
        jobs = generate_jobs(spec, rng)
        sites = [Site(s.name, max(2.0, float(int(s.capacity)))) for s in sites_for(spec, jobs)]
        out: dict[str, float] = {}
        for name in policies:
            fluid = simulate(sites, jobs, name)
            discrete = simulate_discrete(sites, discretize_jobs(jobs, float(granularity)), name)
            out[f"{name}/fluid_jct"] = fluid.mean_jct
            out[f"{name}/discrete_jct"] = discrete.mean_jct
            out[f"{name}/gap_pct"] = 100.0 * (discrete.mean_jct / fluid.mean_jct - 1.0)
        return out

    sw = sweep1d("granularity", list(granularities), point, seeds=seeds)
    keys = [f"{p}/discrete_jct" for p in policies] + [f"{p}/fluid_jct" for p in policies] + [
        f"{p}/gap_pct" for p in policies
    ]
    text = render_series(
        "granularity",
        sw.x_values,
        sw.series(keys),
        title="X6: discrete slot scheduling converges to the fluid model",
        sparklines=True,
    )
    return ExperimentOutput("X6", text, {"sweep": sw})


# ----------------------------------------------------------------------
# X7 — extension: multi-resource fairness (per-site DRF vs AMRF)
# ----------------------------------------------------------------------


def run_x7_multiresource(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 1.0, 2.0),
) -> ExperimentOutput:
    """X7 (extension): the AMF story generalizes to resource vectors.

    Jobs demand (cpu, mem) vectors; sites offer vector capacities.  The
    per-site DRF baseline vs AMRF (max-min on aggregate dominant shares,
    i.e. :func:`~repro.core.amf.solve_amf` on the vector cluster),
    compared on the Jain index of dominant shares.  Expected shape: same
    as F1 — AMRF dominates, gap grows with skew.
    """
    from repro.core.amf import solve_amf
    from repro.metrics.fairness import jain_index
    from repro.model.job import Job
    from repro.model.site import Site
    from repro.multiresource import solve_persite_drf
    from repro.workload.zipf import zipf_probabilities

    n_jobs = _scaled(20, scale, minimum=4)
    n_sites = _scaled(5, scale, minimum=2)

    def point(theta, rng):
        popularity = zipf_probabilities(n_sites, float(theta))
        sites = [
            Site(f"s{j}", {"cpu": float(rng.uniform(8, 16)), "mem": float(rng.uniform(16, 64))})
            for j in range(n_sites)
        ]
        jobs = []
        for i in range(n_jobs):
            spread = min(n_sites, 3)
            chosen = rng.choice(n_sites, size=spread, replace=False, p=popularity)
            split = popularity[chosen] / popularity[chosen].sum()
            total_tasks = float(rng.uniform(20, 60))
            tasks = {f"s{j}": float(total_tasks * frac) for j, frac in zip(chosen, split)}
            demand = {"cpu": float(rng.uniform(0.5, 2.0)), "mem": float(rng.uniform(0.5, 8.0))}
            # ``tasks`` is both the work pinned per site and the bound on
            # simultaneous tasks there (bounded-task DRF's per-site cap).
            jobs.append(Job(f"j{i}", tasks, demand=tasks, resources=demand))
        cluster = Cluster(sites, jobs)
        dom = cluster.dominant_factor()
        drf = dom * solve_persite_drf(cluster).aggregates
        amrf = dom * solve_amf(cluster).aggregates
        return {
            "psdrf/jain": jain_index(drf),
            "amrf/jain": jain_index(amrf),
            "psdrf/min_share": float(drf.min()),
            "amrf/min_share": float(amrf.min()),
        }

    sw = sweep1d("theta", list(thetas), point, seeds=seeds)
    text = render_series(
        "theta",
        sw.x_values,
        sw.series(["psdrf/jain", "amrf/jain", "psdrf/min_share", "amrf/min_share"]),
        title="X7: multi-resource — per-site DRF vs AMRF (dominant-share balance)",
    )
    return ExperimentOutput("X7", text, {"sweep": sw})


# ----------------------------------------------------------------------
# X8 — extension: fault tolerance under site churn
# ----------------------------------------------------------------------


def run_x8_fault_tolerance(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    mtbf_factors: Sequence[float] = (8.0, 4.0, 2.0, 1.0),
    policies: Sequence[str] = ("psmf", "amf"),
    theta: float = 1.2,
    failure_mode: str = "migrate",
) -> ExperimentOutput:
    """X8 (extension): fairness and completion under site failures.

    Each site fails with Poisson MTBF/MTTR churn; the x axis sweeps the
    MTBF as a multiple of ``T0`` (the batch's ideal drain time: total work
    over total capacity), so smaller factor = harsher churn.  Every policy
    runs behind the :class:`~repro.core.policies.ResilientPolicy` fallback
    chain, with the same failure trace per (seed, factor) point.

    Claim under test (docs/robustness.md): AMF stays closer to the static
    fairness bound than per-site max-min under churn — its cross-site
    compensation re-balances around a lost site, while PSMF strands the
    jobs that were pinned to it.
    """
    from repro.core.policies import ResilientPolicy
    from repro.sim.observers import AvailabilityObserver, BalanceObserver, CompositeObserver
    from repro.workload.failures import FailureSpec, generate_failure_trace

    n_jobs = _scaled(30, scale)
    n_sites = _scaled(8, scale, minimum=3)
    resilience: dict[str, dict] = {
        name: {"solves": 0, "fallbacks": 0, "errors": 0, "served_by": {}} for name in policies
    }

    def point(factor, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        total_work = sum(j.total_work for j in jobs)
        total_cap = sum(s.capacity for s in sites)
        t0 = total_work / total_cap
        fspec = FailureSpec(mtbf=float(factor) * t0, mttr=0.25 * float(factor) * t0, horizon=4.0 * t0)
        faults = generate_failure_trace([s.name for s in sites], fspec, rng)
        out: dict[str, float] = {}
        for name in policies:
            resilient = ResilientPolicy(name)
            avail = AvailabilityObserver(policy=resilient)
            balance = BalanceObserver()
            result = simulate(
                sites,
                jobs,
                resilient,
                faults=faults,
                failure_mode=failure_mode,
                observer=CompositeObserver([balance, avail]),
            )
            out[f"{name}/mean_jct"] = result.mean_jct
            out[f"{name}/time_avg_jain"] = balance.time_avg_jain
            out[f"{name}/work_lost"] = result.work_lost
            out[f"{name}/work_reexecuted"] = result.work_reexecuted
            out[f"{name}/fallbacks"] = float(resilient.stats.fallback_activations)
            out[f"{name}/availability"] = avail.availability
            agg = resilience[name]
            agg["solves"] += resilient.stats.solves
            agg["fallbacks"] += resilient.stats.fallback_activations
            agg["errors"] += len(resilient.stats.errors)
            for served, count in resilient.stats.served_by.items():
                agg["served_by"][served] = agg["served_by"].get(served, 0) + count
        return out

    sw = sweep1d("mtbf_factor", list(mtbf_factors), point, seeds=seeds)
    keys = [f"{p}/time_avg_jain" for p in policies] + [f"{p}/mean_jct" for p in policies] + [
        f"{p}/work_reexecuted" for p in policies
    ]
    text = render_series(
        "mtbf_factor",
        sw.x_values,
        sw.series(keys),
        title=f"X8: fault tolerance under site churn ({failure_mode} mode; MTBF in units of T0)",
        sparklines=True,
    )
    lines = ["", "solver fallback chain (aggregated over the sweep):"]
    for name, agg in resilience.items():
        served = ", ".join(f"{k}={v}" for k, v in sorted(agg["served_by"].items())) or "none"
        lines.append(
            f"  {name}: {agg['solves']} solves, {agg['fallbacks']} fallback activations, "
            f"{agg['errors']} errors; served by: {served}"
        )
    text += "\n".join(lines)
    return ExperimentOutput("X8", text, {"sweep": sw, "resilience": resilience})


# ----------------------------------------------------------------------
# X9 — extension: online allocation service under Poisson churn
# ----------------------------------------------------------------------


def run_x9_service(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS[:2],
    load: float = 0.7,
    theta: float = 1.2,
    queries_per_batch: int = 4,
    coalesce_gaps: float = 3.0,
    verify: bool = True,
) -> ExperimentOutput:
    """X9 (extension): warm-started incremental AMF behind the service daemon.

    A closed-loop load generator drives Poisson job churn (arrivals +
    exponential sojourns, :func:`repro.workload.arrivals.generate_churn_schedule`)
    through the full :class:`~repro.service.daemon.AllocationService`
    pipeline on a *virtual* clock: events coalesce into batches
    (``max_delay`` = ``coalesce_gaps`` mean event gaps), each batch triggers
    one warm re-solve, and ``queries_per_batch`` read queries model the
    serving traffic the component memo answers without solving.

    Every warm solution is checked against a cold oracle on the identical
    snapshot: :func:`~repro.core.amf.solve_amf` behind the *same*
    resilient chain (validation, fallbacks), its probes counted through an
    :class:`~repro.core.amf.AmfDiagnostics`.  Both arms solve per connected
    component, so the timed A/B differs **only** in the warm state the
    daemon's solver keeps between solves (per-shard cut pools and the
    component memo).  The experiment thus simultaneously *proves*
    incremental == cold and *measures* what the warm start, the batching
    and the memo each buy.
    """
    from repro._util import ABS_TOL
    from repro.core.amf import AmfDiagnostics, solve_amf
    from repro.core.policies import ResilientPolicy
    from repro.service import AllocationService, ClusterState, events_from_schedule
    from repro.sim.scheduler import SolveStats

    n_arrivals = _scaled(120, scale, minimum=10)
    n_sites = _scaled(8, scale, minimum=3)
    population = _scaled(14, scale, minimum=4)

    def run_one(seed: int) -> dict[str, float]:
        rng = np.random.default_rng(seed)
        spec = ArrivalSpec(
            workload=WorkloadSpec(n_jobs=n_arrivals, n_sites=n_sites, theta=theta), load=load
        )
        sites, schedule = generate_churn_schedule(rng=rng, spec=spec, target_population=population)
        events = events_from_schedule(schedule)
        mean_gap = (schedule[-1][0] - schedule[0][0]) / max(1, len(schedule) - 1)
        now = [0.0]
        service = AllocationService(
            ClusterState(sites),
            max_delay=coalesce_gaps * mean_gap,
            clock=lambda: now[0],
        )
        cold_diag = AmfDiagnostics()

        def amf_cold(cluster):
            return solve_amf(cluster, diagnostics=cold_diag)

        cold_policy = ResilientPolicy(amf_cold, ("amf", "psmf"))
        cold_stats = SolveStats()
        max_dev = 0.0
        jobs_solved = 0

        def drain() -> None:
            nonlocal max_dev, jobs_solved
            served = service.allocation(fresh=False)
            if not served.cached:
                cluster = served.allocation.cluster
                jobs_solved += cluster.n_jobs
                if verify:
                    t0 = time.perf_counter()
                    oracle = cold_policy(cluster)
                    cold_stats.record(time.perf_counter() - t0, cluster.n_jobs)
                    dev = float(np.abs(served.allocation.aggregates - oracle.aggregates).max(initial=0.0))
                    max_dev = max(max_dev, dev)
            for _ in range(queries_per_batch - 1):
                service.allocation(fresh=False)

        for event in events:
            now[0] = event.time
            service.submit(event)
            if service.queue.due():
                drain()
        now[0] = float("inf")
        drain()

        inc = service.incremental.stats
        warm = service.solve_stats
        qstats = service.queue.stats
        out = {
            "events": float(service.events_accepted),
            "batches": float(qstats.batches),
            "mean_batch": qstats.mean_batch,
            "solves": float(warm.solves),
            "solves_per_sec": warm.solves / warm.total_seconds if warm.total_seconds else np.nan,
            "warm_mean_ms": warm.mean_ms,
            "warm_p50_ms": warm.percentile_ms(50),
            "warm_p99_ms": warm.percentile_ms(99),
            "cache_hit_rate": service.stats()["cache"]["hit_rate"],
            "warm_feas_per_solve": inc.feasibility_solves / max(1, inc.solves),
            "warm_cuts_per_solve": inc.cuts_generated / max(1, inc.solves),
            # component fills certified by one probe of their final levels,
            # and how many of those the probe refuted
            "warm_deferred_per_solve": inc.deferred_checks / max(1, inc.solves),
            "warm_refuted_per_solve": inc.deferred_refuted / max(1, inc.solves),
            "fallbacks": float(service.resilience.fallback_activations),
            "mean_active_jobs": jobs_solved / max(1, warm.solves),
        }
        if verify:
            out.update(
                {
                    "cold_mean_ms": cold_stats.mean_ms,
                    "cold_p50_ms": cold_stats.percentile_ms(50),
                    "cold_p99_ms": cold_stats.percentile_ms(99),
                    "cold_feas_per_solve": cold_diag.feasibility_solves / max(1, cold_stats.solves),
                    "speedup": cold_stats.mean_ms / warm.mean_ms if warm.solves else np.nan,
                    "max_abs_deviation": max_dev,
                    "tolerance": ABS_TOL * max(1.0, float(population)) * 10,
                }
            )
        return out

    runs = [run_one(seed) for seed in seeds]
    agg = {k: float(np.mean([r[k] for r in runs])) for k in runs[0]}
    if verify:
        agg["max_abs_deviation"] = float(max(r["max_abs_deviation"] for r in runs))
    rows = [[k, f"{v:.4g}"] for k, v in agg.items()]
    text = render_table(
        ["metric", "mean over seeds"],
        rows,
        title=(
            f"X9: online service under Poisson churn "
            f"(~{population} concurrent jobs, {n_sites} sites, load={load}, "
            f"{queries_per_batch} queries/batch)"
        ),
    )
    return ExperimentOutput("X9", text, {"aggregate": agg, "runs": runs})


# ----------------------------------------------------------------------
# Registry (used by the CLI)
# ----------------------------------------------------------------------

EXPERIMENTS: Mapping[str, object] = {
    "F1": run_f1_balance_vs_skew,
    "F2": run_f2_minmax_vs_skew,
    "F3": run_f3_jct_vs_skew,
    "F4": run_f4_jct_distribution,
    "F5": run_f5_vs_njobs,
    "F6": run_f6_vs_nsites,
    "F7": run_f7_dynamic_load,
    "F8": run_f8_scalability,
    "T1": run_t1_properties,
    "T2": run_t2_sharing_incentive,
    "T3": run_t3_ct_ablation,
    "T4": run_t4_monotonicity,
    "X1": run_x1_dynamic_balance,
    "X2": run_x2_scheduler_overhead,
    "X3": run_x3_weighted_fairness,
    "X4": run_x4_price_of_locality,
    "X5": run_x5_allocation_churn,
    "X6": run_x6_discrete_convergence,
    "X7": run_x7_multiresource,
    "X8": run_x8_fault_tolerance,
    "X9": run_x9_service,
}
