"""The generator's side of the socket, and the server process it talks to.

``Conn`` is a minimal keep-alive HTTP/1.1 client over one loopback socket
(one ``sendall`` per request, ``TCP_NODELAY``), timed from just before the
first byte is sent to just after the last byte of the body is read.
``ServerProcess`` boots ``python -m repro.cli serve`` exactly as an operator
would and reads its CPU time and peak RSS from ``/proc``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger.workloads import ALLOCATE_NOW, Request

HOST = "127.0.0.1"
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class Conn:
    """One keep-alive connection; ``send`` returns ``(status, body, t0, t1)``."""

    def __init__(self, port: int, host: str = HOST, timeout: float = 60.0):
        self.addr = (host, port)
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.buf = b""
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.addr, timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None

    def send(self, req: Request) -> tuple[int, bytes, float, float]:
        sock = self.sock
        t0 = time.perf_counter()
        sock.sendall(req.wire)
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
        head = buf[:end].decode("latin-1")
        status = int(head[9:12])
        length = 0
        close = False
        for line in head.split("\r\n")[1:]:
            key, _, value = line.partition(":")
            key = key.lower()
            if key == "content-length":
                length = int(value)
            elif key == "connection" and value.strip().lower() == "close":
                close = True
        need = end + 4 + length
        while len(buf) < need:
            chunk = sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buf += chunk
        t1 = time.perf_counter()
        body = buf[end + 4 : need]
        self.buf = buf[need:]
        if close:
            self.connect()
        return status, body, t0, t1


# ----------------------------------------------------------------------
# /proc readings (None when the platform has no /proc)
# ----------------------------------------------------------------------
def parse_stat_cpu_ticks(stat_line: str) -> int:
    """utime + stime + cutime + cstime of one ``/proc/<pid>/stat`` line.

    The command name (field 2) may contain spaces and parentheses, so the
    numeric fields are counted from the *last* ``)``.
    """
    fields = stat_line[stat_line.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime..cstime are fields 14..17
    return sum(int(fields[k]) for k in (11, 12, 13, 14))


def parse_status_kb(status_text: str, key: str) -> int | None:
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return None


def _descendants(pid: int, proc: Path) -> list[int]:
    out = [pid]
    try:
        tasks = list((proc / str(pid) / "task").iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            out.extend(_descendants(int(child), proc))
    return out


def process_cpu_ms(pid: int, proc: Path = Path("/proc")) -> float | None:
    """CPU time of ``pid`` and its live descendants, in ms.

    Read from the scheduler's own clock (``schedstat``, ns per thread) where
    the kernel keeps one: it is exact for a thread that sleeps, so it can be
    read after every op, where utime + stime are sampled at the timer tick
    (4 ms here).  It misses threads that have exited; the server keeps its
    three for life."""
    pids = _descendants(pid, proc)
    try:
        clocks = [path for p in pids for path in (proc / str(p) / "task").glob("*/schedstat")]
        ns = sum(int(path.read_text().split()[0]) for path in clocks)
        if ns:
            return ns / 1e6
    except (OSError, ValueError, IndexError):
        pass
    ticks = 0
    found = False
    for p in pids:
        try:
            ticks += parse_stat_cpu_ticks((proc / str(p) / "stat").read_text())
            found = True
        except (OSError, ValueError):
            continue
    return 1e3 * ticks / _CLK_TCK if found else None


def process_peak_rss_mb(pid: int, proc: Path = Path("/proc")) -> float | None:
    """Sum of ``VmHWM`` over ``pid`` and its live descendants, in MB."""
    total = 0
    found = False
    for p in _descendants(pid, proc):
        try:
            kb = parse_status_kb((proc / str(p) / "status").read_text(), "VmHWM")
        except OSError:
            continue
        if kb is not None:
            total += kb
            found = True
    return total / 1024.0 if found else None


# ----------------------------------------------------------------------
# Pinning and calibration
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> int | None:
    """Pin this process to one CPU; children (the server, its workers)
    inherit the mask.  Returns the CPU, or ``None`` when pinning is not
    available — the environment block records which."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except OSError:
        return None


def calibration_ms() -> float:
    """A fixed pure-Python spin (about 50 ms on the reference box): a round
    that starts while this runs slow ran on a noisy host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i & 7
    return 1e3 * (time.perf_counter() - t0)


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.cli serve`` as a subprocess, flags at their defaults."""

    def __init__(self, src_dir: Path, workdir: Path, cluster_json: bytes, extra_flags: tuple[str, ...] = ()):
        self.workdir = workdir
        self.cluster_json = cluster_json
        self.cluster_path = workdir / "cluster.json"
        self.journal_dir = workdir / "journal"
        flags = list(extra_flags)
        if "--edge" not in flags:
            flags = ["--edge", "aio", *flags]
        self.argv = [
            sys.executable, "-u", "-m", "repro.cli", "serve", *flags,
            "--port", "0", "--quiet",
            "--load", str(self.cluster_path), "--journal", str(self.journal_dir),
        ]  # fmt: skip
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src_dir) + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def start(self) -> Conn:
        """Boot and wait for the first allocation; sets ``setup_s``."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cluster_path.write_bytes(self.cluster_json)
        self._stderr = open(self.workdir / "server.stderr", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=self.env, stdout=subprocess.PIPE, stderr=self._stderr, cwd=self.workdir,
            start_new_session=True,
        )
        banner = b""
        while b"listening on http://" not in banner:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before listening (see {self.workdir / 'server.stderr'})")
            banner = line
        self.port = int(banner.rsplit(b":", 1)[1])
        conn = Conn(self.port)
        status, _body, _t0, t1 = conn.send(ALLOCATE_NOW)
        if status != 200:
            raise RuntimeError(f"first allocation answered {status}")
        self.setup_s = t1 - t0
        return conn

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_ms(self) -> float | None:
        return process_cpu_ms(self.pid)

    def peak_rss_mb(self) -> float | None:
        return process_peak_rss_mb(self.pid)

    def stop(self, *, kill: bool = False) -> None:
        """SIGTERM (graceful: drain, checkpoint) or SIGKILL, then reap.

        The server runs in its own process group so that ``--distributed``
        workers it forked cannot outlive it: the group is killed last.
        """
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None and not kill:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._stderr.close()
        self.proc = None


class InProcessServer:
    """The same service inside the harness process, for the traced round.

    Built from the CLI's own parser so every default (``max_delay``, cache
    and cut-pool sizes, fsync group, admission bound) is the shipped one;
    the construction mirrors ``repro.cli.cmd_serve``.
    """

    def __init__(self, workdir: Path, cluster_json: bytes):
        self.cluster_json = cluster_json
        self.cluster_path = workdir / "cluster.json"
        self.journal_dir = workdir / "journal"
        self.server = None
        self.setup_s: float | None = None

    def start(self) -> Conn:
        from repro.cli import build_parser
        from repro.model.serialize import load_cluster
        from repro.service import AllocationService, ClusterState
        from repro.service.aio import AioServiceServer
        from repro.service.journal import open_journal

        args = build_parser().parse_args(
            ["serve", "--edge", "aio", "--port", "0", "--quiet",
             "--load", str(self.cluster_path), "--journal", str(self.journal_dir)]
        )  # fmt: skip
        self.cluster_path.parent.mkdir(parents=True, exist_ok=True)
        self.cluster_path.write_bytes(self.cluster_json)
        t0 = time.perf_counter()
        cluster = load_cluster(args.load)
        state = ClusterState(cluster.sites, cluster.jobs)
        state, journal, _rec = open_journal(args.journal, fallback_state=state, fsync_batch=args.journal_fsync)
        service = AllocationService(
            state,
            max_delay=args.max_delay,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            max_cuts=args.max_cuts,
            sharded=not args.no_shards,
            workers=args.serve_workers or None,
            oracle=args.oracle,
            journal=journal,
            observability=not args.no_obs,
        )
        self.server = AioServiceServer(
            service, args.host, args.port, max_pending=args.max_pending, quiet=args.quiet
        ).start()
        self.port = self.server.port
        conn = Conn(self.port)
        status, _body, _t0, t1 = conn.send(ALLOCATE_NOW)
        if status != 200:
            raise RuntimeError(f"first allocation answered {status}")
        self.setup_s = t1 - t0
        return conn

    def stop(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None
