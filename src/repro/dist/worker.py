"""The solver worker: a TCP process owning its shards' warm cut bases.

A :class:`SolverWorker` is the distributed counterpart of one slot in the
PR 5 fork pool, made long-lived: it listens on a socket, answers the wire
protocol (:mod:`repro.dist.protocol`), and keeps a
:class:`~repro.core.sharding.ShardBasisPool` so consecutive solves of the
same shard warm-start exactly like the in-process sharded solver.  The
solve itself *is* :func:`repro.core.sharding._solve_shard` — the same pure
function of (sub-cluster, floors, seed cuts) the fork pool runs —
which is what makes a distributed allocation bit-identical to
``solve_amf(shards=True)``.

Connections are handled one thread each (the coordinator keeps a control
connection for heartbeats and a solve connection for RPCs, so a long solve
never blocks a ping).  Protocol violations are answered with an
``error`` frame where possible and always end with the connection closed —
a poisoned byte stream is never resynchronized.  ``SIGTERM``/``SIGINT``
trigger a graceful stop: in-flight solves finish, their replies flush, the
listener closes (mirroring the daemon-side drain of
:meth:`repro.service.daemon.AllocationService.close`).

:func:`spawn_local_workers` boots N workers as local processes for
``repro.cli serve --distributed N``, the benchmark and the smoke test.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
from dataclasses import asdict

import numpy as np

from repro._util import require
from repro.core.sharding import Shard, ShardBasisPool, _solve_shard
from repro.dist.protocol import (
    ConnectionClosed,
    ErrorReply,
    FrameTooLarge,
    Hello,
    HelloAck,
    Message,
    Ping,
    Pong,
    ProtocolError,
    ShardSolved,
    Shutdown,
    ShutdownAck,
    SolveShard,
    VersionMismatch,
    recv_message,
    send_message,
)
from repro.model.serialize import cluster_from_dict

__all__ = ["SolverWorker", "run_worker", "spawn_local_workers"]

#: Per-connection socket timeout: bounds how long a worker waits on a
#: stalled peer mid-frame (idle connections between frames are also
#: bounded — the coordinator heartbeats far more often than this).
CONNECTION_TIMEOUT = 120.0


class SolverWorker:
    """One solver process: TCP listener + per-shard warm bases.

    Parameters
    ----------
    host / port:
        Bind address (``port=0`` picks an ephemeral port; read
        :attr:`address` after construction).
    max_cuts:
        Bound on each per-shard cut basis (as in the in-process pool).
    worker_id:
        Stable identity reported in handshakes; defaults to
        ``worker-<port>``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_cuts: int = 64,
        worker_id: str | None = None,
        quiet: bool = True,
    ):
        require(max_cuts >= 1, "max_cuts must be at least 1")
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self.worker_id = worker_id or f"worker-{self.address[1]}"
        self.quiet = quiet
        self.bases = ShardBasisPool(max_cuts=max_cuts)
        self.solves = 0
        self.errors = 0
        self._lock = threading.Lock()  # bases + counters
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return not self._stop.is_set()

    def start(self) -> "SolverWorker":
        """Serve in a background thread (tests and embedded pools)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name=f"{self.worker_id}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept loop (blocking): one handler thread per connection."""
        self._log(f"{self.worker_id} listening on {self.address[0]}:{self.address[1]}")
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by close()
            thread = threading.Thread(
                target=self._handle, args=(conn,), name=f"{self.worker_id}-conn", daemon=True
            )
            thread.start()
            self._threads.append(thread)
            self._threads = [t for t in self._threads if t.is_alive()]

    def close(self) -> None:
        """Graceful stop: no new connections, in-flight handlers finish."""
        if self._stop.is_set():
            return
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SolverWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(message, flush=True)

    # -- connection handling -------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(CONNECTION_TIMEOUT)
        try:
            while not self._stop.is_set():
                try:
                    msg = recv_message(conn)
                except ConnectionClosed:
                    return
                except FrameTooLarge as exc:
                    # The oversized payload was never read; the stream is
                    # unusable, so answer once and hang up.
                    self._reply_error(conn, 0, "frame_too_large", str(exc))
                    return
                except VersionMismatch as exc:
                    # Fail closed: name the disagreement so the coordinator
                    # counts this backend dead instead of retrying blind.
                    self._reply_error(conn, 0, "version_mismatch", str(exc))
                    return
                except ProtocolError as exc:
                    self._reply_error(conn, 0, "bad_request", str(exc))
                    return
                except TimeoutError:
                    return  # stalled peer; drop the connection
                reply = self._dispatch(msg)
                send_message(conn, reply)
                if isinstance(reply, ShutdownAck):
                    self._stop.set()
                    self._listener.close()
                    return
        except OSError:
            return  # peer vanished mid-write; nothing to salvage
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _reply_error(self, conn: socket.socket, id: int, code: str, message: str) -> None:
        with self._lock:
            self.errors += 1
        try:
            send_message(conn, ErrorReply(id=id, code=code, message=message))
        except OSError:  # pragma: no cover - peer already gone
            pass

    def _dispatch(self, msg: Message) -> Message:
        if isinstance(msg, Ping):
            with self._lock:
                return Pong(id=msg.id, worker_id=self.worker_id, shards=len(self.bases), solves=self.solves)
        if isinstance(msg, Hello):
            with self._lock:
                return HelloAck(
                    id=msg.id, worker_id=self.worker_id, shards=len(self.bases), solves=self.solves
                )
        if isinstance(msg, SolveShard):
            try:
                return self._solve(msg)
            except Exception as exc:  # noqa: BLE001 - surfaced to the coordinator
                with self._lock:
                    self.errors += 1
                return ErrorReply(id=msg.id, code="internal", message=f"{type(exc).__name__}: {exc}")
        if isinstance(msg, Shutdown):
            self._log(f"{self.worker_id} shutting down on request")
            return ShutdownAck(id=msg.id)
        with self._lock:
            self.errors += 1
        return ErrorReply(
            id=msg.id, code="bad_request", message=f"unexpected message type {msg.TYPE!r}"
        )

    # -- the actual work -----------------------------------------------
    def _solve(self, msg: SolveShard) -> ShardSolved:
        if msg.cluster is None:
            raise ProtocolError("solve_shard needs a 'cluster' body field")
        sub = cluster_from_dict(msg.cluster)
        key = frozenset(msg.key)
        shard = Shard(
            key=key,
            site_indices=tuple(range(sub.n_sites)),
            job_indices=tuple(range(sub.n_jobs)),
            cluster=sub,
        )
        with self._lock:
            basis = self.bases.basis_for(key)
            for cut in msg.seed_cuts:
                basis.record(frozenset(cut))
            seeds = basis.sets()
            max_cuts = self.bases.max_cuts
        floors = None if msg.floors is None else list(msg.floors)
        totals = None if msg.resource_totals is None else dict(msg.resource_totals)
        result = _solve_shard(
            shard,
            None if floors is None else np.asarray(floors, dtype=float),
            seeds,
            max_cuts,
            resource_totals=totals,
        )
        with self._lock:
            pooled = self.bases.basis_for(key)
            for cut in result.discovered_cuts:
                pooled.record(cut)
            self.solves += 1
        return ShardSolved(
            id=msg.id,
            key=tuple(sorted(key)),
            matrix=tuple(tuple(float(x) for x in row) for row in result.matrix),
            diagnostics={k: int(v) for k, v in asdict(result.diagnostics).items()},
            seconds=float(result.seconds),
            discovered_cuts=tuple(tuple(sorted(cut)) for cut in result.discovered_cuts),
        )


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_cuts: int = 64,
    worker_id: str | None = None,
    quiet: bool = False,
    _conn=None,
) -> int:
    """Blocking entry point (``repro.cli worker``): serve until SIGTERM.

    ``_conn`` is the pipe :func:`spawn_local_workers` uses to learn the
    bound address of a child that asked for an ephemeral port.
    """
    worker = SolverWorker(host, port, max_cuts=max_cuts, worker_id=worker_id, quiet=quiet)
    if _conn is not None:
        _conn.send(worker.address)
        _conn.close()

    def _graceful(signum, frame):  # noqa: ARG001 - signal API
        worker.close()

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    worker.serve_forever()
    return 0


def _local_worker_main(host: str, port: int, max_cuts: int, worker_id: str, conn) -> None:
    run_worker(host, port, max_cuts=max_cuts, worker_id=worker_id, quiet=True, _conn=conn)


def spawn_local_workers(
    n: int, *, host: str = "127.0.0.1", max_cuts: int = 64
) -> tuple[list[multiprocessing.Process], list[tuple[str, int]]]:
    """Boot ``n`` worker processes on ephemeral ports; returns (procs, addresses).

    Uses ``fork`` where available (the workers import nothing new), else
    the platform default start method.  Caller owns the processes: send
    ``SIGTERM`` (or a ``shutdown`` frame) to stop them.
    """
    require(n >= 1, "need at least one worker")
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    processes: list[multiprocessing.Process] = []
    addresses: list[tuple[str, int]] = []
    for i in range(n):
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_local_worker_main,
            args=(host, 0, max_cuts, f"worker-{i}-{os.getpid()}", child),
            daemon=True,
        )
        proc.start()
        child.close()
        if not parent.poll(10.0):  # pragma: no cover - boot failure
            raise RuntimeError(f"local worker {i} did not report its address")
        addresses.append(tuple(parent.recv()))
        parent.close()
        processes.append(proc)
    return processes, addresses
