"""Command-line entry points: ``python -m repro.cli`` / ``repro-amf``.

Subcommands
-----------

``experiment <ID ...>``
    Regenerate paper figures/tables (any id of ``experiment --list``, or ``all``).
``solve``
    Solve one random (or demo) instance under a policy and print the
    allocation, balance metrics and properties.
``simulate``
    Run the fluid simulator on a generated workload and print JCT stats.
``validate``
    Generate an instance and print its diagnostics.
``serve``
    Boot the online allocation service (HTTP/JSON; docs/service.md).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.analysis.experiments import EXPERIMENTS
from repro.core import properties
from repro.core.policies import POLICIES, get_policy
from repro.metrics.fairness import balance_report
from repro.model.validation import validate_instance
from repro.sim.engine import simulate
from repro.workload.generator import WorkloadSpec, generate_cluster, generate_jobs, sites_for


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        metavar="JSON",
        help="enable repro.obs and write collected trace spans as Chrome-trace "
        "JSON (load in chrome://tracing or ui.perfetto.dev)",
    )


def _start_tracing(args) -> bool:
    """Enable observability when ``--trace-out`` was given."""
    if not getattr(args, "trace_out", None):
        return False
    from repro import obs

    obs.enable()
    return True


def _finish_tracing(args) -> None:
    from repro.obs.tracing import TRACER

    n = TRACER.export(args.trace_out)
    print(f"wrote {n} trace spans to {args.trace_out}")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=20, help="number of jobs")
    p.add_argument("--sites", type=int, default=6, help="number of sites")
    p.add_argument("--theta", type=float, default=1.2, help="workload skew (0 = uniform)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument(
        "--scenario",
        metavar="NAME",
        help="use a named preset instead of --jobs/--sites/--theta (see repro.workload.scenarios)",
    )


def _spec(args) -> WorkloadSpec:
    if getattr(args, "scenario", None):
        from repro.workload.scenarios import get_scenario

        return get_scenario(args.scenario)
    return WorkloadSpec(n_jobs=args.jobs, n_sites=args.sites, theta=args.theta)


def cmd_experiment(args) -> int:
    if args.workers:
        # Experiments take no workers argument; raising the process-wide
        # default routes their internal sweep1d grids through the pool.
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.list:
        for eid, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{eid:4s} {doc}")
        return 0
    choices = f"choices: {' '.join(EXPERIMENTS)} or 'all'"
    if not args.ids:
        print(f"usage: repro-amf experiment <id ...|all> [--scale S]; {choices}", file=sys.stderr)
        return 2
    ids = list(EXPERIMENTS) if "all" in args.ids else [i.upper() for i in args.ids]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; {choices}", file=sys.stderr)
        return 2
    tracing = _start_tracing(args)
    for eid in ids:
        out = EXPERIMENTS[eid](scale=args.scale)
        print(out.text)
        print()
    if tracing:
        _finish_tracing(args)
    return 0


def cmd_solve(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.load:
        from repro.model.serialize import load_cluster

        cluster = load_cluster(args.load)
    else:
        cluster = generate_cluster(_spec(args), rng)
    tracing = _start_tracing(args)
    alloc = get_policy(args.policy)(cluster)
    if tracing:
        _finish_tracing(args)
    print(alloc.pretty())
    rep = balance_report(alloc)
    print(f"\nbalance: jain={rep.jain:.4f} cov={rep.cov:.4f} min/max={rep.min_max:.4f}")
    if args.check:
        prop = properties.check_all(alloc)
        print(
            f"properties: pareto={prop.pareto} max-min={prop.max_min} "
            f"envy-free={prop.envy_free} sharing-incentive={prop.sharing_incentive}"
        )
    if args.save:
        from repro.model.serialize import save_allocation

        save_allocation(alloc, args.save)
        print(f"allocation written to {args.save}")
    return 0


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    spec = _spec(args)
    jobs = generate_jobs(spec, rng)
    sites = sites_for(spec, jobs)
    trace = None
    observer = None
    observers = []
    policy = args.policy
    if args.resilient or args.failures:
        from repro.core.policies import ResilientPolicy

        policy = ResilientPolicy(args.policy)
    faults = None
    if args.failures:
        from repro.workload.failures import FailureSpec, generate_failure_trace

        # Failure horizon ~ the batch's drain time (total work over capacity,
        # with headroom for churn-induced slowdown).
        t0 = sum(j.total_work for j in jobs) / sum(s.capacity for s in sites)
        fspec = FailureSpec(mtbf=args.mtbf, mttr=args.mttr, horizon=4.0 * t0, degraded_fraction=args.degraded)
        faults = generate_failure_trace([s.name for s in sites], fspec, rng)
    if args.trace:
        from repro.sim.trace import Trace

        trace = Trace(max_events=10_000)
    if args.observe or args.failures:
        from repro.sim.observers import (
            AvailabilityObserver,
            BalanceObserver,
            ChurnObserver,
            CompositeObserver,
            UtilizationObserver,
        )

        wanted = list(args.observe)
        if args.failures and "availability" not in wanted:
            wanted.append("availability")
        named = {
            "balance": BalanceObserver(),
            "churn": ChurnObserver(),
            "utilization": UtilizationObserver(),
            "availability": AvailabilityObserver(policy=policy if not isinstance(policy, str) else None),
        }
        if "metrics" in wanted:
            from repro.obs import REGISTRY, SimObserver

            REGISTRY.enable()
            named["metrics"] = SimObserver()
        observers = [(n, named[n]) for n in wanted]
        observer = CompositeObserver([o for _, o in observers])
    tracing = _start_tracing(args)
    res = simulate(
        sites,
        jobs,
        policy,
        trace=trace,
        observer=observer,
        faults=faults,
        failure_mode=args.failure_mode,
        max_retries=args.max_retries,
        restart_penalty=args.restart_penalty,
    )
    if tracing:
        _finish_tracing(args)
    print(res)
    if not isinstance(policy, str) and hasattr(getattr(policy, "stats", None), "served_by"):
        stats = policy.stats
        served = ", ".join(f"{k}={v}" for k, v in sorted(stats.served_by.items())) or "none"
        print(
            f"resilience: {stats.solves} solves, {stats.fallback_activations} fallback "
            f"activations, {len(stats.errors)} errors; served by: {served}"
        )
        for line in stats.errors[:5]:
            print(f"  error: {line}")
    if args.failures:
        print(
            f"faults: {res.n_failures} failures, {res.n_recoveries} recoveries, "
            f"{res.n_requeues} requeues, {res.n_migrations} migrations; "
            f"work lost {res.work_lost:.3f}, re-executed {res.work_reexecuted:.3f}, "
            f"degraded jobs {res.n_degraded}"
        )
    if trace is not None:
        print("\nevent trace:")
        print(trace.render(limit=args.trace))
    for name, obs in observers:
        if name == "balance":
            print(f"\ntime-averaged balance: jain={obs.time_avg_jain:.4f} cov={obs.time_avg_cov:.4f}")
        elif name == "churn":
            print(f"\nmean allocation churn per event: {obs.mean_churn:.4f}")
        elif name == "utilization":
            avgs = ", ".join(f"{k}={v:.3f}" for k, v in obs.averages().items())
            print(f"\ntime-averaged site utilization: {avgs}")
        elif name == "availability":
            print(
                f"\navailability: {obs.availability:.4f} "
                f"(fallback activations: {obs.fallback_activations})"
            )
        elif name == "metrics":
            s = obs.summary()
            print(
                f"\nobs registry: {s['steps']:.0f} steps, "
                f"{s['simulated_time']:.3f} simulated time, "
                f"mean step wall {1e3 * s['mean_step_wall_seconds']:.3f} ms"
            )
    return 0


def cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    cluster = generate_cluster(_spec(args), rng)
    print(validate_instance(cluster))
    return 0


def _serve_state(args):
    from repro.service import ClusterState

    if args.load:
        from repro.model.serialize import load_cluster

        cluster = load_cluster(args.load)
        return ClusterState(cluster.sites, cluster.jobs)
    from repro.model.site import Site

    return ClusterState([Site(f"s{j}", args.capacity) for j in range(args.sites)])


def _serve_journal(args, state):
    """``serve --journal DIR``: recover the pre-crash state, open the WAL.

    A snapshot in the directory wins over ``--load``/``--sites`` (the
    journal is the durable truth of the previous incarnation); on a fresh
    directory the built state is checkpointed as the starting point.
    Returns ``(state, journal)`` — journal ``None`` without the flag.
    """
    if not args.journal:
        return state, None
    from repro.service.journal import open_journal

    state2, journal, rec = open_journal(
        args.journal,
        fallback_state=state,
        fsync_batch=args.journal_fsync,
    )
    if rec.cluster is not None or rec.events:
        print(
            f"journal: recovered state at seq {rec.seq} "
            f"({len(rec.events)} events replayed on top of snapshot {rec.snapshot_seq}"
            + (f", {rec.dropped_lines} torn lines dropped)" if rec.dropped_lines else ")")
        )
    return state2, journal


def _run_edge(args, service) -> int:
    """Serve ``service`` over HTTP (blocking until shutdown)."""
    from repro.service.aio import serve_aio

    serve_aio(
        service,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        quiet=args.quiet,
    )
    return 0


def cmd_serve(args) -> int:
    from repro.service import AllocationService

    state, journal = _serve_journal(args, _serve_state(args))
    service = AllocationService(
        state,
        max_delay=args.max_delay,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        max_cuts=args.max_cuts,
        sharded=not args.no_shards,
        journal=journal,
        observability=not args.no_obs,
    )
    return _run_edge(args, service)


def cmd_report(args) -> int:
    from repro.analysis.report import write_report

    tracing = _start_tracing(args)
    report = write_report(args.out, scale=args.scale, experiments=args.only or None, workers=args.workers or None)
    if tracing:
        _finish_tracing(args)
    failed = [s.experiment for s in report.sections if s.error is not None]
    print(f"wrote {args.out}: {len(report.sections)} experiments in {report.total_seconds:.1f}s")
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-amf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate paper figures/tables")
    p_exp.add_argument("ids", nargs="*", default=[], help=f"experiment ids ({' '.join(EXPERIMENTS)}) or 'all'")
    p_exp.add_argument("--scale", type=float, default=1.0, help="size scale (use <1 for a quick run)")
    p_exp.add_argument("--list", action="store_true", help="list experiments and exit")
    p_exp.add_argument(
        "--workers", type=int, default=0, help="fan sweep grids over N processes (0 = REPRO_WORKERS or serial)"
    )
    _add_trace_arg(p_exp)
    p_exp.set_defaults(fn=cmd_experiment)

    p_solve = sub.add_parser("solve", help="solve one generated instance")
    _add_workload_args(p_solve)
    p_solve.add_argument("--policy", choices=sorted(POLICIES), default="amf")
    p_solve.add_argument("--check", action="store_true", help="also run property checks")
    p_solve.add_argument("--load", metavar="JSON", help="solve a cluster loaded from a JSON file instead of generating one")
    p_solve.add_argument("--save", metavar="JSON", help="write the allocation (with cluster) to a JSON file")
    _add_trace_arg(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_sim = sub.add_parser("simulate", help="simulate a generated batch")
    _add_workload_args(p_sim)
    p_sim.add_argument("--policy", choices=sorted(POLICIES), default="amf-ct-quick")
    p_sim.add_argument("--trace", type=int, nargs="?", const=25, default=0, metavar="N", help="print the first N events")
    p_sim.add_argument(
        "--observe",
        nargs="+",
        choices=["balance", "churn", "utilization", "availability", "metrics"],
        default=[],
        help="attach observers and print their summaries ('metrics' feeds the repro.obs registry)",
    )
    _add_trace_arg(p_sim)
    p_fail = p_sim.add_argument_group("fault tolerance (docs/robustness.md)")
    p_fail.add_argument("--failures", action="store_true", help="inject Poisson site failures/recoveries")
    p_fail.add_argument("--mtbf", type=float, default=50.0, help="mean time between failures per site")
    p_fail.add_argument("--mttr", type=float, default=10.0, help="mean time to repair per site")
    p_fail.add_argument(
        "--failure-mode",
        choices=["retry", "migrate"],
        default="retry",
        help="what happens to in-flight work at a failed site",
    )
    p_fail.add_argument("--max-retries", type=int, default=3, help="retries per job-site edge before abandoning work")
    p_fail.add_argument(
        "--restart-penalty", type=float, default=1.0, help="fraction of in-progress attempt lost on failure (0..1)"
    )
    p_fail.add_argument(
        "--degraded", type=float, default=0.0, help="capacity fraction a failed site keeps (0 = full outage)"
    )
    p_fail.add_argument(
        "--resilient", action="store_true", help="wrap the policy in the solver fallback chain (implied by --failures)"
    )
    p_sim.set_defaults(fn=cmd_simulate)

    p_val = sub.add_parser("validate", help="diagnostics of a generated instance")
    _add_workload_args(p_val)
    p_val.set_defaults(fn=cmd_validate)

    p_srv = sub.add_parser("serve", help="boot the online allocation service (docs/service.md)")
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    p_srv.add_argument("--sites", type=int, default=4, help="number of sites to boot with (s0..s{N-1})")
    p_srv.add_argument("--capacity", type=float, default=10.0, help="capacity per booted site")
    p_srv.add_argument("--load", metavar="JSON", help="boot from a cluster JSON file instead of empty sites")
    p_srv.add_argument("--max-delay", type=float, default=0.05, help="seconds an event may wait for its batch")
    p_srv.add_argument("--max-batch", type=int, default=256, help="max events coalesced into one re-solve")
    p_srv.add_argument("--cache-size", type=int, default=128, help="component memo entries (LRU)")
    p_srv.add_argument("--max-cuts", type=int, default=64, help="persistent cutting-plane pool bound")
    # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
    # reads ``args.no_shards``.  Every solve is per connected component, so
    # AllocationService refuses the flag before anything binds; it goes when
    # that harness may be edited.
    p_srv.add_argument("--no-shards", action="store_true", help=argparse.SUPPRESS)
    # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
    # reads ``args.serve_workers``.  Shards are solved serially; the flag
    # accepts only 0 and goes when that harness may be edited.
    p_srv.add_argument("--workers", dest="serve_workers", type=int, choices=(0,), default=0, help=argparse.SUPPRESS)
    # Vestige with one reader: benchmarks/ledger/client.py::InProcessServer
    # parses ``serve`` through this parser and reads ``args.oracle``.  There
    # is one feasibility oracle; the flag selects nothing and goes when that
    # harness may be edited.
    p_srv.add_argument(
        "--oracle", choices=("parametric",), default="parametric", help=argparse.SUPPRESS
    )
    # Vestige with one reader: benchmarks/ledger/client.py passes
    # ``--edge aio`` to ``serve``.  There is one HTTP edge; the flag selects
    # nothing and goes when that harness may be edited.
    p_srv.add_argument("--edge", choices=("aio",), default="aio", help=argparse.SUPPRESS)
    p_srv.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="write-ahead journal directory: accepted events are journaled before "
        "acknowledgement and the pre-crash state is recovered at boot (docs/service.md)",
    )
    p_srv.add_argument(
        "--journal-fsync",
        type=int,
        default=64,
        metavar="N",
        help="group-commit size: fsync after N journaled events (1 = synchronous durability)",
    )
    p_srv.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="shed writes with 429 beyond N undispatched work items",
    )
    p_srv.add_argument("--quiet", action="store_true", help="suppress per-request access logs")
    p_srv.add_argument(
        "--no-obs",
        action="store_true",
        help="leave the repro.obs metrics registry and tracer disabled (GET /v1/traces serves no spans and "
        "/v1/metrics only the counters it reads from /v1/stats)",
    )
    p_srv.set_defaults(fn=cmd_serve)

    p_rep = sub.add_parser("report", help="run all experiments and write a markdown report")
    p_rep.add_argument("--out", default="report.md", help="output path")
    p_rep.add_argument("--scale", type=float, default=1.0, help="experiment size scale")
    p_rep.add_argument("--only", nargs="*", default=[], help="restrict to these experiment ids")
    p_rep.add_argument(
        "--workers", type=int, default=0, help="run experiments in N parallel processes (0 = REPRO_WORKERS or serial)"
    )
    _add_trace_arg(p_rep)
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
