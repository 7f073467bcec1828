"""The reproduction's experiment definitions (F1-F8, T1-T4, X1-X9 of DESIGN.md §4).

Each ``run_*`` function regenerates one figure/table and returns an
:class:`ExperimentOutput`: its ``tables`` hold the numbers as rows
(:class:`~repro.analysis.tables.Table`), ``text`` is their one rendering,
``data`` carries the raw values the shape claims read, and ``timed`` names
the columns and rows that hold wall-clock times.  The twelve swept
experiments share one form, :func:`_swept`: ``sweep1d`` over the x axis,
``f"{policy}/{metric}"`` columns of seed means, one table.

``tests/analysis/test_experiments.py`` holds one shape claim per
:data:`EXPERIMENTS` id — who wins, by how much, where the gap grows — and
pins every untimed cell of its run to ``tests/analysis/claims_golden.json``.

Every function accepts ``scale`` (default 1.0): the claim gates use a
reduced scale so tier-1 stays fast, while the CLI runs full size
(``python -m repro.cli experiment <ids> --scale 0.3`` prints the reduced
tables).  A swept axis that shrinks with ``scale`` goes through
:func:`_axis`, so no point is solved or printed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.sweep import finite_mean, sweep1d
from repro.analysis.tables import Table, series_table
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
    """One experiment's tables, their printable text and its raw data.

    ``text`` is rendered from ``tables`` unless given.  ``timed`` names the
    header columns and row labels (first cells) whose cells are wall-clock
    times: they differ from run to run, so no golden pins them.
    """

    experiment: str
    text: str = ""
    data: dict = field(default_factory=dict)
    tables: Sequence[Table] = ()
    timed: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.text:
            self.text = "\n\n".join(t.render() for t in self.tables)

    def __str__(self) -> str:
        return self.text


def _scaled(value: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(value * scale)))


def _axis(values: Sequence, scale: float | tuple[float, ...]) -> list:
    """A swept axis at ``scale``: each value :func:`_scaled`, repeats dropped in order.

    A tuple value (F8's ``(n_jobs, n_sites)``) scales coordinate-wise by a
    tuple ``scale``.  Two values that scale onto one point would solve and
    print it twice, so the later one goes.
    """
    if isinstance(scale, tuple):
        points = (tuple(_scaled(v, s) for v, s in zip(value, scale)) for value in values)
    else:
        points = (_scaled(value, scale) for value in values)
    return list(dict.fromkeys(points))


def _per_policy(policies: Sequence[str], metrics_of: Callable[[str], Mapping[str, float]]) -> dict[str, float]:
    """``{f"{policy}/{metric}": value}`` over ``policies``, one ``metrics_of(policy)`` each."""
    return {f"{name}/{key}": val for name in policies for key, val in metrics_of(name).items()}


def _columns(policies: Sequence[str], *metrics: str) -> list[str]:
    """The ``f"{policy}/{metric}"`` columns, grouped by metric."""
    return [f"{name}/{metric}" for metric in metrics for name in policies]


def _swept(
    eid: str,
    title: str,
    x_label: str,
    x_values: Sequence,
    point: Callable[[object, np.random.Generator], Mapping[str, float]],
    seeds: Sequence[int],
    columns: Sequence[str],
    *,
    sparklines: bool = True,
    **data,
) -> ExperimentOutput:
    """The one sweep form: ``point(x, rng)`` per x and seed, then one row per x
    of ``columns``' seed means.  ``data`` gets the sweep under ``"sweep"``."""
    sw = sweep1d(x_label, list(x_values), point, seeds=seeds)
    table = series_table(x_label, sw.x_values, sw.series(columns), title=title, sparklines=sparklines)
    return ExperimentOutput(eid, data={"sweep": sw, **data}, tables=[table])


DEFAULT_SEEDS = (11, 23, 37)


# ----------------------------------------------------------------------
# F1 / F2 — allocation balance vs workload skew
# ----------------------------------------------------------------------


def _balance_point(spec: WorkloadSpec, rng: np.random.Generator, policies: Sequence[str]) -> dict[str, float]:
    cluster = generate_cluster(spec, rng)
    return _per_policy(policies, lambda name: balance_report(get_policy(name)(cluster)).row())


def _balance_vs_skew(eid, title, scale, seeds, thetas, policies, metrics) -> ExperimentOutput:
    n_jobs = _scaled(100, scale)
    n_sites = _scaled(20, scale, minimum=4)

    def point(theta, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=float(theta))
        return _balance_point(spec, rng, policies)

    columns = _columns(policies, *metrics)
    return _swept(eid, title, "theta", thetas, point, seeds, columns, n_jobs=n_jobs, n_sites=n_sites)


def run_f1_balance_vs_skew(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F1: Jain index and CoV of comparable levels vs Zipf skew theta."""
    title = "F1: allocation balance vs workload skew"
    return _balance_vs_skew("F1", title, scale, seeds, thetas, policies, ("jain", "cov"))


def run_f2_minmax_vs_skew(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F2: min and max comparable level vs skew (who gets starved, who hoards)."""
    title = "F2: min/max allocation level vs skew"
    return _balance_vs_skew("F2", title, scale, seeds, thetas, policies, ("min_level", "max_level", "min_max"))


# ----------------------------------------------------------------------
# F3 / F4 — job completion time (dynamic batch simulation)
# ----------------------------------------------------------------------


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
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        return _per_policy(policies, lambda name: simulate(sites, jobs, name).summary())

    columns = _columns(policies, "mean_jct", "makespan")
    return _swept("F3", "F3: batch JCT vs workload skew", "theta", thetas, point, seeds, columns)


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
    results = {}
    series: dict[str, list[float]] = {}
    for name in policies:
        results[name] = simulate(sites, jobs, name)
        jcts = results[name].jcts()
        series[name] = [float(np.percentile(jcts, q)) if jcts.size else np.nan for q in deciles]
    table = series_table("percentile", deciles, series, title=f"F4: JCT deciles at theta={theta}", sparklines=True)
    return ExperimentOutput("F4", data={"results": results, "deciles": deciles, "series": series}, tables=[table])


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

    def point(n, rng):
        spec = WorkloadSpec(n_jobs=int(n), n_sites=n_sites, theta=theta)
        return _balance_point(spec, rng, policies)

    columns = _columns(policies, "jain", "min_max")
    title = "F5: balance vs number of jobs"
    return _swept("F5", title, "n_jobs", _axis(n_jobs_values, scale), point, seeds, columns)


def run_f6_vs_nsites(
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    n_sites_values: Sequence[int] = (4, 8, 16, 32, 64),
    theta: float = 1.2,
    policies: Sequence[str] = ("psmf", "amf"),
) -> ExperimentOutput:
    """F6: balance metrics vs number of sites at fixed skew."""
    n_jobs = _scaled(100, scale)

    def point(m, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=int(m), theta=theta, site_spread=min(4, int(m)))
        return _balance_point(spec, rng, policies)

    columns = _columns(policies, "jain", "min_max")
    title = "F6: balance vs number of sites"
    return _swept("F6", title, "n_sites", _axis(n_sites_values, max(scale, 0.25)), point, seeds, columns)


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

        def metrics(name):
            res = simulate(sites, jobs, name)
            return {"mean_jct": res.mean_jct, "mean_slowdown": res.mean_slowdown, "p95_jct": res.jct_percentile(95)}

        return _per_policy(policies, metrics)

    columns = _columns(policies, "mean_jct", "mean_slowdown")
    return _swept("F7", "F7: dynamic JCT vs offered load", "load", loads, point, seeds, columns)


# ----------------------------------------------------------------------
# F8 — solver scalability + ablation (cutting planes vs bisection)
# ----------------------------------------------------------------------


def run_f8_scalability(
    scale: float = 1.0,
    seed: int = 5,
    sizes: Sequence[tuple[int, int]] = ((50, 10), (100, 20), (200, 20), (500, 50), (1000, 50), (2000, 100)),
) -> ExperimentOutput:
    """F8: AMF solver wall time and max-flow count vs instance size."""
    rng = np.random.default_rng(seed)
    rows = []
    for n, m in _axis(sizes, (scale, max(scale, 0.2))):
        spec = WorkloadSpec(n_jobs=n, n_sites=m, theta=1.2, site_spread=min(4, m))
        cluster = generate_cluster(spec, rng)
        row = [n, m]
        for solve in (amf_levels, amf_levels_bisect):
            diag = AmfDiagnostics()
            t0 = time.perf_counter()
            solve(cluster, diagnostics=diag)
            row += [(time.perf_counter() - t0) * 1e3, diag.feasibility_solves]
        rows.append(row)
    keys = ("n", "m", "cutting_ms", "cutting_solves", "bisect_ms", "bisect_solves")
    table = Table(
        "F8: AMF solver scalability (cutting planes vs bisection)",
        ["n_jobs", "n_sites", "cutting ms", "cutting flows", "bisect ms", "bisect flows"],
        rows,
    )
    data = {"rows": [dict(zip(keys, row)) for row in rows]}
    return ExperimentOutput("F8", data=data, tables=[table], timed=frozenset({"cutting ms", "bisect ms"}))


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
    props = ("pareto", "max_min", "envy_free", "si", "sp")
    counters: dict[str, dict[str, int]] = {p: dict.fromkeys(props, 0) for p in policies}
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
            rep = properties.check_all(policy(cluster))
            manip = properties.strategy_proofness_probe(cluster, policy, rng, attempts=sp_attempts)
            held = (rep.pareto, rep.max_min, rep.envy_free, rep.sharing_incentive, not manip)
            for prop, ok in zip(props, held):
                counters[name][prop] += ok
    table = Table(
        "T1: property satisfaction over random instances",
        ["policy", "pareto", "aggregate max-min", "envy-free", "sharing incentive", "strategy-proof (probe)"],
        [[name, *(f"{counters[name][k]}/{total}" for k in props)] for name in policies],
    )
    return ExperimentOutput("T1", data={"counters": counters, "total": total}, tables=[table])


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
    table = Table(
        "T2: sharing-incentive violations, AMF vs enhanced AMF",
        ["family", "policy", "instances violated", "violating jobs", "worst shortfall"],
        [
            [family, name, f"{s['violated']}/{s['instances']}", s["jobs"], s["worst"]]
            for family, stats in (("hub-and-spoke", hub_stats), ("generic zipf", zipf_stats))
            for name, s in stats.items()
        ],
    )
    return ExperimentOutput("T2", data={"hub": hub_stats, "zipf": zipf_stats, "stats": hub_stats}, tables=[table])


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
    from repro.core.amf import solve_amf

    n_jobs = _scaled(40, scale, minimum=4)
    n_sites = _scaled(10, scale, minimum=3)
    static_keys = ("mean_stretch", "max_stretch", "starved")
    sim_keys = ("mean_jct", "p95_jct", "makespan")
    splits = {
        "raw-maxflow": lambda cluster, levels: solve_amf(cluster),
        "proportional": proportional_split,
        **{
            mode: lambda cluster, levels, mode=mode: optimize_completion_times(cluster, levels, mode=mode)
            for mode in ("stretch1", "makespan", "stretch")
        },
    }
    sim_variants = ("amf", "amf-prop", "amf-ct-quick")

    static_acc: dict[str, list[float]] = {f"{m}/{k}": [] for m in splits for k in static_keys}
    sim_acc: dict[str, list[float]] = {f"{v}/{k}": [] for v in sim_variants for k in sim_keys}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        cluster = Cluster(sites, jobs)
        levels = amf_levels(cluster)
        ideal = cluster.workloads.sum(axis=1) / np.maximum(levels, 1e-300)

        for mode, split in splits.items():
            stretch = split(cluster, levels).completion_times() / ideal
            finite = stretch[np.isfinite(stretch) & (levels > 1e-12)]
            static_acc[f"{mode}/mean_stretch"].append(float(finite.mean()) if finite.size else np.nan)
            static_acc[f"{mode}/max_stretch"].append(float(finite.max()) if finite.size else np.nan)
            static_acc[f"{mode}/starved"].append(float(np.isinf(stretch).sum()))

        for name in sim_variants:
            res = simulate(sites, jobs, name)
            sim_acc[f"{name}/mean_jct"].append(res.mean_jct)
            sim_acc[f"{name}/p95_jct"].append(res.jct_percentile(95))
            sim_acc[f"{name}/makespan"].append(res.makespan)

    static = Table(
        f"T3a: static split quality under fixed AMF aggregates (theta={theta})",
        ["split mode", "mean stretch", "max stretch", "starved edges"],
        [[m, *(finite_mean(static_acc[f"{m}/{k}"]) for k in static_keys)] for m in splits],
    )
    sim = Table(
        "T3b: simulated batch JCT (per-event re-solve)",
        ["policy", "mean JCT", "p95 JCT", "makespan"],
        [[v, *(finite_mean(sim_acc[f"{v}/{k}"]) for k in sim_keys)] for v in sim_variants],
    )
    return ExperimentOutput("T3", data={"static": static_acc, "sim": sim_acc}, tables=[static, sim])


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
        data[name] = {"population_breaches": pop, "resource_breaches": res}
    table = Table(
        f"T4: monotonicity probes over {len(seeds)} instances (all departures / site growths)",
        ["policy", "population breaches", "resource breaches"],
        [[name, *breaches.values()] for name, breaches in data.items()],
    )
    return ExperimentOutput("T4", data={"data": data}, tables=[table])


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

        def metrics(name):
            obs = BalanceObserver()
            simulate(sites, jobs, name, observer=obs)
            return {"time_avg_jain": obs.time_avg_jain, "time_avg_cov": obs.time_avg_cov}

        return _per_policy(policies, metrics)

    columns = _columns(policies, "time_avg_jain", "time_avg_cov")
    title = "X1: time-averaged dynamic balance vs skew"
    return _swept("X1", title, "theta", thetas, point, seeds, columns)


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
    for name in policies:
        timed = TimedPolicy(name)
        simulate(sites, jobs, timed)
        s = timed.stats
        rows.append([name, s.solves, s.mean_ms, s.percentile_ms(95), s.max_ms, s.mean_active_jobs])
    keys = ("solves", "mean_ms", "p95_ms", "max_ms")
    table = Table(
        "X2: per-event scheduling overhead (dynamic batch)",
        ["policy", "solves", "mean ms", "p95 ms", "max ms", "mean active jobs"],
        rows,
    )
    data = {"stats": {row[0]: dict(zip(keys, row[1:])) for row in rows}}
    return ExperimentOutput("X2", data=data, tables=[table], timed=frozenset({"mean ms", "p95 ms", "max ms"}))


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

    title = "X3: weighted AMF — premium/standard aggregate ratio"
    columns = ["target_ratio", "measured_ratio"]
    return _swept("X3", title, "weight_ratio", weight_ratios, point, seeds, columns, sparklines=False)


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

        def metrics(name):
            alloc = get_policy(name)(cluster)
            return {
                "min_level": float(alloc.normalized_aggregates().min()),
                "locality_price": price_of_locality(cluster, alloc.aggregates),
            }

        return {"oblivious/min_level": oblivious_min, **_per_policy(("psmf", "amf"), metrics)}

    columns = ["oblivious/min_level", *_columns(("amf", "psmf"), "min_level", "locality_price")]
    return _swept("X4", "X4: the price of locality", "theta", thetas, point, seeds, columns)


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
    table = Table(
        f"X5: allocation churn (fraction of capacity reassigned, theta={theta})",
        ["policy", "mean churn / event", "max (over seeds)"],
        [[name, float(np.mean(acc[name])), float(np.max(acc[name]))] for name in policies],
    )
    return ExperimentOutput("X5", data={"acc": acc}, tables=[table])


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

        def metrics(name):
            fluid = simulate(sites, jobs, name)
            discrete = simulate_discrete(sites, discretize_jobs(jobs, float(granularity)), name)
            return {
                "fluid_jct": fluid.mean_jct,
                "discrete_jct": discrete.mean_jct,
                "gap_pct": 100.0 * (discrete.mean_jct / fluid.mean_jct - 1.0),
            }

        return _per_policy(policies, metrics)

    columns = _columns(policies, "discrete_jct", "fluid_jct", "gap_pct")
    title = "X6: discrete slot scheduling converges to the fluid model"
    return _swept("X6", title, "granularity", granularities, point, seeds, columns)


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
    solvers = {"psdrf": solve_persite_drf, "amrf": solve_amf}

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

        def metrics(name):
            shares = dom * solvers[name](cluster).aggregates
            return {"jain": jain_index(shares), "min_share": float(shares.min())}

        return _per_policy(solvers, metrics)

    title = "X7: multi-resource — per-site DRF vs AMRF (dominant-share balance)"
    columns = _columns(solvers, "jain", "min_share")
    return _swept("X7", title, "theta", thetas, point, seeds, columns, sparklines=False)


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
    fallbacks = ("psmf",)
    # every policy a point's chain can be served by: the counts travel in
    # each point's metrics, which a forked sweep worker returns (a tally
    # the points added to here would stay in the worker)
    rungs = {name: tuple(dict.fromkeys((name, *fallbacks, "proportional-fallback"))) for name in policies}

    def point(factor, rng):
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta)
        jobs = generate_jobs(spec, rng)
        sites = sites_for(spec, jobs)
        total_work = sum(j.total_work for j in jobs)
        total_cap = sum(s.capacity for s in sites)
        t0 = total_work / total_cap
        fspec = FailureSpec(mtbf=float(factor) * t0, mttr=0.25 * float(factor) * t0, horizon=4.0 * t0)
        faults = generate_failure_trace([s.name for s in sites], fspec, rng)

        def metrics(name):
            resilient = ResilientPolicy(name, fallbacks)
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
            served_by = resilient.stats.served_by
            return {
                "mean_jct": result.mean_jct,
                "time_avg_jain": balance.time_avg_jain,
                "work_lost": result.work_lost,
                "work_reexecuted": result.work_reexecuted,
                "fallbacks": float(resilient.stats.fallback_activations),
                "availability": avail.availability,
                "solves": float(resilient.stats.solves),
                "errors": float(len(resilient.stats.errors)),
                **{f"served_by:{rung}": float(served_by.get(rung, 0)) for rung in rungs[name]},
            }

        return _per_policy(policies, metrics)

    title = f"X8: fault tolerance under site churn ({failure_mode} mode; MTBF in units of T0)"
    columns = _columns(policies, "time_avg_jain", "mean_jct", "work_reexecuted")
    out = _swept("X8", title, "mtbf_factor", mtbf_factors, point, seeds, columns)
    sw = out.data["sweep"]

    def total(key: str) -> int:
        # a count's per-x mean over the seeds, times the seeds, summed over x
        return sum(round(mean * len(seeds)) for mean in sw.mean[key])

    resilience = {
        name: {
            "solves": total(f"{name}/solves"),
            "fallbacks": total(f"{name}/fallbacks"),
            "errors": total(f"{name}/errors"),
            "served_by": {
                rung: count for rung in rungs[name] if (count := total(f"{name}/served_by:{rung}"))
            },
        }
        for name in policies
    }
    lines = ["solver fallback chain (aggregated over the sweep):"]
    for name, agg in resilience.items():
        served = ", ".join(f"{k}={v}" for k, v in sorted(agg["served_by"].items())) or "none"
        lines.append(
            f"  {name}: {agg['solves']} solves, {agg['fallbacks']} fallback activations, "
            f"{agg['errors']} errors; served by: {served}"
        )
    data = {**out.data, "resilience": resilience}
    return ExperimentOutput("X8", data=data, tables=[replace(out.tables[0], note="\n".join(lines))])


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
    table = Table(
        f"X9: online service under Poisson churn (~{population} concurrent jobs, {n_sites} sites, "
        f"load={load}, {queries_per_batch} queries/batch)",
        ["metric", "mean over seeds"],
        [[k, v] for k, v in agg.items()],
    )
    timed = frozenset(k for k in agg if k.endswith("_ms") or k in ("speedup", "solves_per_sec"))
    return ExperimentOutput("X9", data={"aggregate": agg, "runs": runs}, tables=[table], timed=timed)


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
