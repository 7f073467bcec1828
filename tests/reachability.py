"""Which ``src/repro`` functions no shipped entry point enters.

``python tests/reachability.py`` runs :data:`RUNS` and a ``serve`` daemon with
this file first on ``PYTHONPATH`` as ``sitecustomize.py``, so every Python
process they start records the code objects it enters and writes them at exit
(``os._exit`` and SIGKILL record nothing).  It exits 1 if a ``def`` under
``src/repro`` that no process entered is not kept by ``ALLOW`` (a def nested in
an unentered def counts with it), or if an ``ALLOW`` line is stale or bare.
"""

from __future__ import annotations

import ast
import atexit
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOW = ROOT / "tests" / "reachability_allow.txt"
REASONS = ("public API", "failure path", "flag- or size-selected path", "protocol dunder")
_LINE = re.compile(rf"(\S+)\s+({'|'.join(map(re.escape, REASONS))}):\s*(\S.*)")
CLI = ["-m", "repro.cli"]
RUNS = [
    [*CLI, "solve", "--check", "--save", "solved.json"],
    [*CLI, "simulate"],
    [*CLI, "simulate", "--policy", "amf", "--trace", "5"],
    [*CLI, "simulate", "--observe", "balance", "churn", "utilization", "availability", "metrics",
     "--failures", "--resilient"],
    [*CLI, "validate"],
    [*CLI, "report", "--scale", "0.1", "--workers", "1", "--out", "report.md"],
    *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
    [str(ROOT / "benchmarks" / "ledger" / "run.py"), "--smoke"],
]  # fmt: skip


def record() -> dict[int, object]:
    """Start recording, in this thread and every thread started after; returns the live record."""
    codes: dict[int, object] = {}

    def profile(frame, event, arg):  # noqa: ARG001 - profiler API
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code  # the value keeps the id unique

    sys.setprofile(profile)
    threading.setprofile(profile)
    return codes


def _dump(codes: dict[int, object], out_dir: Path) -> None:
    """Stop recording; write ``file<TAB>first line`` of each recorded code object."""
    sys.setprofile(None)
    threading.setprofile(None)
    lines = {f"{os.path.realpath(c.co_filename)}\t{c.co_firstlineno}\n" for c in list(codes.values())}
    (out_dir / f"{os.getpid()}.txt").write_text("".join(lines))


def entered(log_dir: Path, src: Path) -> set[tuple[str, int]]:
    """``(path under src, first line)`` of each code object the logs in ``log_dir`` recorded under ``src``."""
    root = os.path.realpath(src) + os.sep
    rows = (row.split("\t") for log in log_dir.glob("*.txt") for row in log.read_text().splitlines())
    return {(file.removeprefix(root), int(line)) for file, line in rows if file.startswith(root)}


def _defs(node, prefix: str, path: str, lines: set, out: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _defs(child, f"{prefix}{child.name}.", path, lines, out)
        elif isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
            # 3.11's co_firstlineno of a decorated function is its first decorator's line
            hit = (path, min([d.lineno for d in child.decorator_list] + [child.lineno])) in lines
            out.append((f"{prefix}{child.name}", hit))
            if hit:  # a def nested in an unentered def is counted with it
                _defs(child, f"{prefix}{child.name}.", path, lines, out)
        else:
            _defs(child, prefix, path, lines, out)


def _names_a_test(why: str) -> bool:
    """Whether ``why`` cites ``tests/<file>::[Class::]test`` and that file defines the test."""
    cited = re.search(r"(tests/\S+\.py)::(?:\w+::)?(\w+)", why)
    path = cited and ROOT / cited[1]
    return bool(path and path.is_file() and re.search(rf"def {cited[2]}\b", path.read_text()))


def findings(src: Path, lines: set[tuple[str, int]], allow_text: str) -> list[str]:
    """Unentered defs under ``src`` (a package's parent) not allowlisted, and every bad allowlist line."""
    unentered: list[str] = []
    for file in sorted(src.rglob("*.py")):
        path = str(file.relative_to(src))
        module = path.removesuffix(".py").removesuffix("/__init__").replace("/", ".")
        out: list = []
        _defs(ast.parse(file.read_text()), "", path, lines, out)
        unentered += [f"{module}:{name}" for name, hit in out if not hit]
    problems, allowed = [], set()
    for line in allow_text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _LINE.fullmatch(line.strip())
        if match is None or (match[2] in REASONS[1:3] and not _names_a_test(match[3])):
            problems.append(f"allowlist line without a reason, or a path without its test: {line}")
        elif match[1] not in unentered:
            problems.append(f"allowlist names no unentered function: {match[1]}")
        else:
            allowed.add(match[1])
    return problems + [f"no entry point enters {name}" for name in dict.fromkeys(unentered) if name not in allowed]


def _serve(env: dict, work: Path) -> None:
    """A journaled ``serve`` answers the wire corpus, is stopped by SIGTERM and reboots onto its journal."""
    from repro.model.serialize import save_cluster
    from tests.service.test_wire_golden import CORPUS, _service
    from tests.service.wire import exchange, request

    save_cluster(_service().state.snapshot(), work / "cluster.json")  # the corpus's own cluster
    argv = [sys.executable, "-u", *CLI, "serve", "--port", "0", "--quiet", "--load", "cluster.json", "--journal", "j"]
    for raws in ([case.raw for case in CORPUS] + [request("GET", "/v1/metrics"), request("GET", "/v1/traces")],
                 [request("GET", "/v1/allocate?fresh=true")]):  # fmt: skip
        proc = subprocess.Popen(argv, env=env, cwd=work, stdout=subprocess.PIPE)
        line = b""
        while b"listening on http://" not in line:
            line = proc.stdout.readline() or sys.exit(f"serve exited with {proc.wait()}")
        for raw in raws:  # one connection each, as the golden test sends them
            exchange(int(line.rsplit(b":", 1)[1]), raw)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
        if proc.returncode:
            sys.exit(f"serve exited with {proc.returncode} after SIGTERM")


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    with tempfile.TemporaryDirectory() as tmp:
        hook, work = Path(tmp, "hook"), Path(tmp, "work")
        hook.mkdir(), work.mkdir()
        shutil.copy(__file__, hook / "sitecustomize.py")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}  # report runs serially
        env["PYTHONPATH"] = os.pathsep.join(map(str, (hook, ROOT / "src", ROOT)))
        for argv in RUNS:
            subprocess.run([sys.executable, *argv], env=env, cwd=work, stdout=subprocess.DEVNULL, check=True)
        _serve(env, work)
        lines = entered(hook, ROOT / "src")
    problems = findings(ROOT / "src", lines, ALLOW.read_text())
    print("\n".join(problems) or "every src/ function is entered or allowlisted")
    return 1 if problems else 0


if __name__ == "sitecustomize":
    atexit.register(_dump, record(), Path(__file__).parent)
elif __name__ == "__main__":
    sys.exit(main())
