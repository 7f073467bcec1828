"""The perf ledger's command line (``BENCHMARK.json`` runs this file).

::

    python3 benchmarks/ledger/run.py --workload churn_sharded --seed 7 --seconds 18 --trace 0
    python3 benchmarks/ledger/run.py --seed 20260928 --out A.json      # all four, both passes
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --smoke
    python3 benchmarks/ledger/run.py --workload churn_sharded --edge thread   # ungated variant

See README.md beside this file for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "cli.py").is_file():
    sys.exit(f"ledger: {SRC / 'repro'} not found — run from a checkout that holds the program under test")
for entry in (str(SRC), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger import client, metrics, rounds, tracer, workloads  # noqa: E402

WORK = HERE / ".work"
OUT = HERE / "out"
DISTURBED = 1.03  # a round this much slower than the fastest round of the same requests is marked


class Ledger:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.flags = tuple(server_flags(args))
        self.workdir = WORK / f"{os.getpid()}"
        self.counter = 0
        self.warned: set[str] = set()
        self.pinned = client.pin_to_one_cpu()
        self.rounds = 1 if args.smoke else workloads.ROUNDS
        self._inputs: dict[str, workloads.Inputs] = {}

    def warn(self, message: str) -> None:
        if message not in self.warned:
            self.warned.add(message)
            print(f"ledger: warning: {message}", file=sys.stderr)

    def fresh_dir(self) -> Path:
        self.counter += 1
        return self.workdir / f"r{self.counter}"

    # ------------------------------------------------------------------
    def inputs(self, workload: str) -> workloads.Inputs:
        if workload not in self._inputs:
            seconds = self.args.seconds / 10.0 if self.args.smoke else self.args.seconds
            n_ops = workloads.ops_for(workload, seconds, self.rounds)
            self._inputs[workload] = workloads.build_inputs(workload, self.args.seed, n_ops)
        return self._inputs[workload]

    def untraced_round(self, workload: str, repetition: int) -> rounds.RoundResult:
        return rounds.run_round(
            self.inputs(workload), repetition, SRC, self.fresh_dir(), self.flags, crash_check=repetition == 0
        )

    def untraced_set(self, names: list[str]) -> dict[str, list[rounds.RoundResult]]:
        """Rounds interleaved across workloads (A B C D A B C D ...).

        Every round of a workload sends the same requests, so a round that
        took longer than the fastest was disturbed; it is marked, not dropped:
        each of its ops may still be the fastest repetition of that op."""
        done: dict[str, list[rounds.RoundResult]] = {w: [] for w in names}
        for repetition in range(self.rounds):
            for w in names:
                done[w].append(self.untraced_round(w, repetition))
        for w in names:
            fastest = min(r.wall_s for r in done[w])
            for result in done[w]:
                result.disturbed = result.wall_s > DISTURBED * fastest
        return done

    def traced_round(self, workload: str) -> tuple[rounds.RoundResult, tracer.Recorder]:
        """One in-process round with spans around every layer, one client."""
        inputs = self.inputs(workload)
        streams = inputs.streams
        if len(streams) > 1:  # one client: interleave the connections' ops
            streams = [[op for group in zip(*streams) for op in group]]
        recorder = tracer.Recorder()
        recorder.install()
        server = client.InProcessServer(self.fresh_dir(), inputs.cluster_json)
        conn = None
        try:
            calib = client.calibration_ms()
            recorder.enabled = True
            conn = server.start()
            result = rounds.RoundResult(workload, 0, calib, server.setup_s)

            def on_op(idx: int) -> None:
                recorder.op = idx

            rounds.measure(result, inputs, [conn], streams, on_op=on_op)
        finally:
            recorder.enabled = False
            if conn is not None:
                conn.close()
            server.stop()
            recorder.uninstall()
        OUT.mkdir(exist_ok=True)
        recorder.write_chrome_trace(OUT / f"trace-{workload}-{self.args.seed}.json")
        return result, recorder

    # ------------------------------------------------------------------
    def environment(self, names: list[str]) -> dict:
        import numpy
        import scipy

        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "pinned": self.pinned is not None,
            "pinned_cpu": self.pinned,
            "loopback": client.HOST,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "smoke": self.args.smoke,
            "rounds": self.rounds,
            "connections": {w: workloads.CONNECTIONS[w] for w in names},
            "ops_per_connection_and_round": {w: len(self.inputs(w).streams[0]) for w in names},
            "server_command": client.ServerProcess(SRC, self.workdir / "<round>", b"", self.flags).argv,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def server_flags(args: argparse.Namespace) -> list[str]:
    flags: list[str] = []
    if args.edge:
        flags += ["--edge", args.edge]
    if args.backend and args.backend != "local":
        kind, _, n = args.backend.partition(":")
        if kind != "dist":
            raise SystemExit(f"ledger: unknown backend {args.backend!r} (local or dist[:N])")
        flags += ["--distributed", n or "1"]
    return flags


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_rounds(workload: str, done: list[rounds.RoundResult]) -> None:
    print(f"\n[{workload}] rounds (the same requests, each time to a fresh server):")
    for r in done:
        s = round_summary(r)
        print(
            f"  repetition {r.repetition}: calib_ms {r.calib_ms:.1f}  setup_s {r.setup_s:.3f}  ops {r.n_ops}"
            f"  writes {s['writes']} p50 {_fmt(s['write_p50_ms'])} ms  reads {s['reads']} p50 {_fmt(s['read_p50_ms'])} ms"
            f"  wall {r.wall_s:.2f} s  cpu {_fmt(r.cpu_ms)} ms  rss {_fmt(r.peak_rss_mb)} MB"
            f"  failed {r.failed}/{r.attempted}" + (f"  recover_ms {r.recover_ms:.1f}" if r.recover_ms is not None else "")
            + ("  (disturbed)" if r.disturbed else "")
        )
        for message in r.failures:
            print(f"    FAILED {message}")


def print_metrics(title: str, values: dict, units: dict[str, str]) -> None:
    print(f"  {title}:")
    for name, value in values.items():
        print(f"    {name:32s} {_fmt(value):>14s} {units[name]}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ledger = Ledger(args)
    units = metrics.units()
    report: dict = {"workloads": {}}
    attempted = failed = 0
    try:
        env = report["environment"] = ledger.environment(names)
        print("environment:")
        for key, value in env.items():
            print(f"  {key}: {value}")
        want_e2e = args.trace in (None, 0)
        want_layers = args.trace in (None, 1) and not ledger.flags
        if want_e2e:
            done = ledger.untraced_set(names)
        else:  # --trace 1: one counted round is all the per-layer metrics need
            done = {w: [ledger.untraced_round(w, 0)] for w in names}
        for w in names:
            row = report["workloads"][w] = {"why": workloads.WORKLOADS[w]}
            print_rounds(w, done[w])
            row["attempted"] = sum(r.attempted for r in done[w])
            row["failed"] = sum(r.failed for r in done[w])
            row["failures"] = [m for r in done[w] for m in r.failures]
            row["rounds"] = [round_summary(r) for r in done[w]]
            if want_e2e:
                row["end_to_end"] = metrics.end_to_end(done[w])
                print_metrics("end to end", row["end_to_end"], units)
            if want_layers:
                traced, recorder = ledger.traced_round(w)
                row["attempted"] += traced.attempted
                row["failed"] += traced.failed
                row["failures"] += traced.failures
                row["rounds"].append({**round_summary(traced), "traced": True})
                ctx = metrics.LayerContext(done[w][0], traced, recorder.threads(), recorder.installed, ledger.warn)
                row["per_layer"] = metrics.per_layer(ctx)
                row["untraceable"] = recorder.missing
                print_metrics("per layer (ms and counts are per op)", row["per_layer"], units)
                print(f"  chrome trace: {OUT / f'trace-{w}-{args.seed}.json'}")
            attempted += row["attempted"]
            failed += row["failed"]
    finally:
        ledger.close()
    report["attempted"], report["failed"] = attempted, failed
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nfailed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops and checks)")
    print(json.dumps(result_line(report, names, args, units, ledger.warn)))
    return 0 if failed == 0 else 1


def round_summary(r: rounds.RoundResult) -> dict:
    return {
        "repetition": r.repetition,
        "disturbed": r.disturbed,
        "calib_ms": r.calib_ms,
        "setup_s": r.setup_s,
        "ops": r.n_ops,
        "wall_s": r.wall_s,
        "cpu_ms": r.cpu_ms,
        "peak_rss_mb": r.peak_rss_mb,
        "writes": len(r.write_ms),
        "write_p50_ms": metrics.percentile(r.write_ms, 50) if r.write_ms else None,
        "reads": len(r.read_ms),
        "read_p50_ms": metrics.percentile(r.read_ms, 50) if r.read_ms else None,
        "attempted": r.attempted,
        "failed": r.failed,
        "recover_ms": r.recover_ms,
    }


def result_line(report: dict, names: list[str], args, units: dict[str, str], warn) -> dict:
    """The driver's last line.  With one workload the metric names are bare;
    a full set prefixes them with the workload."""
    out: dict[str, dict] = {}
    for w in names:
        row = report["workloads"][w]
        if args.trace == 1:
            values = row.get("per_layer", {})
        else:  # the tails are printed above but are not gated metrics
            values = {name: row["end_to_end"][name] for name, _u, _b in metrics.END_TO_END}
        for name, value in values.items():
            if value is None:
                if args.trace != 1:
                    raise SystemExit(f"ledger: end-to-end metric {name} could not be measured on {w}")
                # a layer that no longer exists spends no time and counts nothing
                warn(f"{name} has no source on this commit; reported as 0 in the result line, null in --out")
                value = 0.0
            out[name if len(names) == 1 else f"{w}:{name}"] = {"value": value, "unit": units[name]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": out,
    }


def compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines, ok = metrics.compare(a, b, bounds)
    print("\n".join(lines))
    print("inside every bound" if ok else "OUTSIDE a bound")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.split("::")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=20260928)
    parser.add_argument("--seconds", type=float, default=18.0, help="measured time per workload, summed over its rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--smoke", action="store_true", help="one round per workload at a tenth of the ops")
    parser.add_argument("--out", metavar="JSON", help="write the full report (the input of --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="gate B against A with BENCHMARK.json's bounds")
    parser.add_argument("--edge", choices=("thread", "aio"), help="ungated variant: serve with this edge")
    parser.add_argument("--backend", metavar="local|dist[:N]", help="ungated variant: serve with --distributed N")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
