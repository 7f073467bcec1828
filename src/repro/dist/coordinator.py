"""Coordinator side of the pool: registry, shard assignment, failover.

The coordinator is the process that owns :class:`~repro.service.state
.ClusterState` and the coalescing queue (i.e. the
:class:`~repro.service.daemon.AllocationService`); this module gives it a
:class:`WorkerPool` whose :meth:`WorkerPool.solve_shards` is a drop-in for
:func:`repro.core.sharding.solve_shards` — same inputs, same
:class:`~repro.core.sharding.ShardResult` outputs, bit-identical matrices —
except the solves happen in remote worker processes over the wire protocol.

Three cooperating pieces:

* :class:`WorkerClient` — one worker's connections.  A *solve* connection
  carries RPCs (serialized per worker: a worker is one process solving one
  shard at a time anyway) and a separate *control* connection carries
  heartbeats, so a long solve never starves liveness probes.
* :class:`ShardAssignment` — the shard→worker map.  Sticky: a shard keeps
  its owner (whose :class:`~repro.core.sharding.ShardBasisPool` holds the
  warm cuts) while that owner lives; new keys go to the least-loaded live
  worker (ties by worker id, so assignment is deterministic).
* :class:`WorkerPool` — fans a solve batch out per owner (one thread per
  worker), detects failures fast (an RPC fault marks the worker dead
  immediately; the :class:`~repro.dist.membership.HeartbeatMonitor`
  catches silent deaths between solves), reassigns the dead worker's
  shards to survivors and *re-warms* them: the pool mirrors every cut a
  worker reports back, and the first solve of a reassigned shard ships the
  mirrored cuts as ``seed_cuts`` so the new owner starts warm instead of
  cold — the service-level analogue of the PR 1 failure machinery.

If every worker is dead a solve raises :class:`DistError`; the
:class:`~repro.core.policies.ResilientPolicy` chain above the solver then
degrades to the local cold path, so the public API keeps answering.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro._util import require
from repro.core.amf import AmfDiagnostics
from repro.core.sharding import Shard, ShardBasisPool, ShardResult, merge_diagnostics
from repro.dist.membership import HeartbeatMonitor, WorkerInfo
from repro.dist.protocol import (
    ErrorReply,
    Hello,
    HelloAck,
    Message,
    Ping,
    Pong,
    ProtocolError,
    ShardSolved,
    Shutdown,
    SolveShard,
    recv_message,
    send_message,
)
from repro.model.serialize import cluster_to_dict
from repro.obs.instruments import (
    record_dist_failover,
    record_dist_rpc,
    set_dist_workers_alive,
)

__all__ = ["DistError", "DistStats", "WorkerClient", "ShardAssignment", "WorkerPool"]


class DistError(RuntimeError):
    """The pool cannot serve a solve (no live workers / worker fault)."""


@dataclass(slots=True)
class DistStats:
    """Coordinator-side counters (surfaced in ``/v1/stats`` under ``dist``)."""

    rpcs: int = 0
    rpc_errors: int = 0
    solve_retries: int = 0  # shard solves replayed on a survivor
    failovers: int = 0  # workers declared dead
    reassignments: int = 0  # shard keys moved off a dead worker
    heartbeat_misses: int = 0
    rpc_seconds: float = 0.0  # cumulative round-trip time
    errors: list[str] = field(default_factory=list)  # bounded failure log
    # Oracle counters merged from every ShardSolved reply, so the dist
    # section of ``/v1/stats`` reports the same probes_*/reuse breakdown
    # the local backend does instead of dropping it at the wire.
    probes: AmfDiagnostics = field(default_factory=AmfDiagnostics)

    MAX_ERRORS = 20

    def log_error(self, message: str) -> None:
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def to_dict(self) -> dict:
        return {
            "rpcs": self.rpcs,
            "rpc_errors": self.rpc_errors,
            "solve_retries": self.solve_retries,
            "failovers": self.failovers,
            "reassignments": self.reassignments,
            "heartbeat_misses": self.heartbeat_misses,
            "rpc_seconds": self.rpc_seconds,
            "errors": list(self.errors[-5:]),
            "probes": {**asdict(self.probes), "probes_reused": self.probes.probes_reused},
        }


class WorkerClient:
    """RPC client for one worker: a solve connection plus a control one.

    Thread-safe: each connection has its own lock, so a heartbeat on the
    control connection proceeds while a solve RPC is in flight.  Any
    connection/protocol fault closes both sockets and marks the client
    unusable — the pool treats that as worker death.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        connect_timeout: float = 5.0,
        rpc_timeout: float = 120.0,
        ping_timeout: float = 2.0,
    ):
        self.address = (str(address[0]), int(address[1]))
        self.connect_timeout = connect_timeout
        self.rpc_timeout = rpc_timeout
        self.ping_timeout = ping_timeout
        self.worker_id: str = f"{self.address[0]}:{self.address[1]}"
        self._solve_sock: socket.socket | None = None
        self._control_sock: socket.socket | None = None
        self._solve_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _dial(self, timeout: float) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        sock.settimeout(timeout)
        return sock

    def connect(self) -> HelloAck:
        """Open both connections and handshake; returns the worker's hello."""
        self._solve_sock = self._dial(self.rpc_timeout)
        self._control_sock = self._dial(self.ping_timeout)
        reply = self._roundtrip(self._control_sock, Hello(id=self._next_id(), peer="coordinator"))
        if not isinstance(reply, HelloAck):
            raise ProtocolError(f"expected hello_ack, got {reply.TYPE!r}")
        self.worker_id = reply.worker_id or self.worker_id
        return reply

    def _roundtrip(self, sock: socket.socket | None, msg: Message) -> Message:
        if sock is None:
            raise DistError(f"worker {self.worker_id}: not connected")
        send_message(sock, msg)
        while True:
            reply = recv_message(sock)
            if reply.id == msg.id:
                return reply
            if isinstance(reply, ErrorReply) and reply.id == 0:
                # A stream-level refusal (version_mismatch, frame_too_large,
                # unparseable envelope): the worker answers once with id=0
                # and hangs up.  Surface it typed instead of spinning until
                # the RPC timeout — retrying elsewhere would refuse
                # identically, so the pool must fail closed.
                raise DistError(
                    f"worker {self.worker_id} refused the stream: [{reply.code}] {reply.message}"
                )
            # A stale reply (e.g. the answer to an RPC we gave up on)
            # is skipped, never misattributed.

    def ping(self) -> Pong:
        with self._control_lock:
            reply = self._roundtrip(self._control_sock, Ping(id=self._next_id()))
        if isinstance(reply, Pong):
            return reply
        raise ProtocolError(f"expected pong, got {reply.TYPE!r}")

    def solve(self, request: SolveShard) -> ShardSolved:
        """One solve RPC (errors from the worker surface as DistError)."""
        msg = SolveShard(
            id=self._next_id(),
            key=request.key,
            cluster=request.cluster,
            seed_cuts=request.seed_cuts,
            floors=request.floors,
            resource_totals=request.resource_totals,
        )
        with self._solve_lock:
            reply = self._roundtrip(self._solve_sock, msg)
        if isinstance(reply, ShardSolved):
            return reply
        if isinstance(reply, ErrorReply):
            raise DistError(f"worker {self.worker_id} refused solve: [{reply.code}] {reply.message}")
        raise ProtocolError(f"expected shard_solved, got {reply.TYPE!r}")

    def shutdown(self) -> None:
        """Best-effort graceful stop request."""
        try:
            with self._solve_lock:
                self._roundtrip(self._solve_sock, Shutdown(id=self._next_id()))
        except (OSError, ProtocolError, DistError):
            pass

    def close(self) -> None:
        for sock in (self._solve_sock, self._control_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
        self._solve_sock = self._control_sock = None


class ShardAssignment:
    """Sticky shard→worker map with deterministic least-loaded placement."""

    def __init__(self):
        self._owner: dict[frozenset[str], str] = {}

    def __len__(self) -> int:
        return len(self._owner)

    def owner_of(self, key: frozenset[str]) -> str | None:
        return self._owner.get(key)

    def shards_of(self, worker_id: str) -> list[frozenset[str]]:
        return [k for k, w in self._owner.items() if w == worker_id]

    def assign(self, key: frozenset[str], live: list[str]) -> str:
        """Current owner if alive, else the least-loaded live worker
        (ties broken by worker id, so placement is deterministic)."""
        require(bool(live), "cannot assign a shard with no live workers")
        owner = self._owner.get(key)
        if owner in live:
            return owner
        loads = {w: 0 for w in live}
        for w in self._owner.values():
            if w in loads:
                loads[w] += 1
        pick = min(sorted(loads), key=loads.__getitem__)
        self._owner[key] = pick
        return pick

    def drop_worker(self, worker_id: str) -> list[frozenset[str]]:
        """Forget a dead worker's ownerships; returns the orphaned keys."""
        orphaned = self.shards_of(worker_id)
        for key in orphaned:
            del self._owner[key]
        return orphaned

    def to_dict(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for key, worker in self._owner.items():
            out.setdefault(worker, []).append("+".join(sorted(key)))
        return {w: sorted(keys) for w, keys in sorted(out.items())}


class WorkerPool:
    """The coordinator's solver pool: N workers, one assignment map.

    Parameters
    ----------
    addresses:
        ``(host, port)`` pairs of the workers to connect to.
    max_cuts:
        Bound on the coordinator's *mirror* basis pool (used to re-warm
        reassigned shards after a failover).
    rpc_timeout / connect_timeout:
        Socket budgets for solve RPCs and dials.
    heartbeat_interval / miss_threshold / ping_timeout:
        Membership knobs (see :class:`HeartbeatMonitor`).
    """

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        *,
        max_cuts: int = 64,
        rpc_timeout: float = 120.0,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 3,
        ping_timeout: float = 2.0,
    ):
        require(len(addresses) >= 1, "worker pool needs at least one address")
        self.assignment = ShardAssignment()
        self.mirror = ShardBasisPool(max_cuts=max_cuts)
        self.stats = DistStats()
        self._clients: dict[str, WorkerClient] = {}
        self._info: dict[str, WorkerInfo] = {}
        self._reseed: set[frozenset[str]] = set()  # keys needing a seeded first solve
        self._lock = threading.RLock()
        self._started = False
        self._addresses = [(str(h), int(p)) for h, p in addresses]
        self._client_opts = dict(
            connect_timeout=connect_timeout, rpc_timeout=rpc_timeout, ping_timeout=ping_timeout
        )
        self.monitor = HeartbeatMonitor(
            self._heartbeat_targets,
            self._on_heartbeat_dead,
            on_alive=self._on_heartbeat_alive,
            on_miss=self._on_heartbeat_miss,
            interval=heartbeat_interval,
            miss_threshold=miss_threshold,
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Connect to every worker (all must answer) and start heartbeats."""
        with self._lock:
            require(not self._started, "pool already started")
            for address in self._addresses:
                client = WorkerClient(address, **self._client_opts)
                hello = client.connect()
                require(
                    hello.worker_id not in self._clients,
                    f"duplicate worker id {hello.worker_id!r} at {address}",
                )
                self._clients[hello.worker_id] = client
                self._info[hello.worker_id] = WorkerInfo(
                    worker_id=hello.worker_id, address=client.address, solves=hello.solves
                )
            self._started = True
        set_dist_workers_alive(len(self.live_workers))
        self.monitor.start()
        return self

    def stop(self, *, shutdown_workers: bool = False) -> None:
        self.monitor.stop()
        with self._lock:
            for client in self._clients.values():
                if shutdown_workers:
                    client.shutdown()
                client.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- membership ----------------------------------------------------
    @property
    def live_workers(self) -> list[str]:
        with self._lock:
            return sorted(w for w, info in self._info.items() if info.alive)

    @property
    def workers(self) -> dict[str, WorkerInfo]:
        with self._lock:
            for worker_id, info in self._info.items():
                info.shards = len(self.assignment.shards_of(worker_id))
            return dict(self._info)

    def _heartbeat_targets(self):
        with self._lock:
            live = [(w, self._clients[w]) for w, info in self._info.items() if info.alive]
        return [(w, client.ping) for w, client in live]

    def _on_heartbeat_alive(self, worker_id: str, pong) -> None:
        with self._lock:
            info = self._info.get(worker_id)
            if info is not None:
                info.heartbeats += 1
                info.consecutive_misses = 0
                if isinstance(pong, Pong):
                    info.solves = pong.solves
        # DistStats.heartbeat_misses mirrors the monitor's counter lazily;
        # successful probes need no bookkeeping here.

    def _on_heartbeat_miss(self, worker_id: str) -> None:
        with self._lock:
            info = self._info.get(worker_id)
            if info is not None:
                info.misses += 1
                info.consecutive_misses = self.monitor.misses_for(worker_id)

    def _on_heartbeat_dead(self, worker_id: str, reason: str) -> None:
        self.fail_worker(worker_id, reason)

    def fail_worker(self, worker_id: str, reason: str) -> None:
        """Declare a worker dead: close it, orphan + mark its shards.

        Idempotent; callable from the heartbeat thread and from any solve
        thread that sees an RPC fault.  Reassigned keys are flagged so
        their next solve ships the mirrored cuts as seeds (warm failover).
        """
        with self._lock:
            info = self._info.get(worker_id)
            if info is None or not info.alive:
                return
            info.alive = False
            info.last_error = reason
            self._clients[worker_id].close()
            orphaned = self.assignment.drop_worker(worker_id)
            self._reseed.update(orphaned)
            self.stats.failovers += 1
            self.stats.reassignments += len(orphaned)
            self.stats.log_error(f"worker {worker_id} failed over ({len(orphaned)} shards): {reason}")
            alive = sum(1 for i in self._info.values() if i.alive)
        record_dist_failover(len(orphaned))
        set_dist_workers_alive(alive)

    # -- solving -------------------------------------------------------
    def solve_shards(
        self,
        shards: list[Shard],
        *,
        floors: np.ndarray | None = None,
        resource_totals: dict[str, float] | None = None,
    ) -> list[ShardResult]:
        """Drop-in for :func:`repro.core.sharding.solve_shards` over RPC.

        Shards are grouped by owner and each group runs on its own thread
        (a worker serializes its own solves).  An RPC fault fails the
        worker over and replays its unfinished shards on the survivors;
        the call only raises :class:`DistError` when no worker is left or
        a live worker *refuses* a solve (solver fault or protocol-version
        disagreement — retrying elsewhere would refuse identically).
        ``resource_totals`` carries the federation-wide dominant-share
        denominators for multi-resource shards (``None`` for scalar).
        """
        solvable = [sh for sh in shards if sh.n_jobs > 0]
        if not solvable:
            return []
        results: dict[int, ShardResult] = {}
        pending = list(range(len(solvable)))
        rounds = 0
        while pending:
            rounds += 1
            if rounds > len(self._addresses) + 2:  # pragma: no cover - defensive
                raise DistError("shard solve did not converge after repeated failovers")
            live = self.live_workers
            if not live:
                raise DistError("no live workers in the pool")
            groups: dict[str, list[int]] = {}
            with self._lock:
                for idx in pending:
                    owner = self.assignment.assign(solvable[idx].key, live)
                    groups.setdefault(owner, []).append(idx)
            faults: list[str] = []
            threads = [
                threading.Thread(
                    target=self._solve_group,
                    args=(worker_id, idxs, solvable, floors, resource_totals, results, faults),
                    name=f"dist-solve-{worker_id}",
                    daemon=True,
                )
                for worker_id, idxs in groups.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if faults:
                # A live worker refused the solve: the failure is in the
                # instance, not the topology — surface it.
                raise DistError("; ".join(faults))
            still = [idx for idx in pending if idx not in results]
            if still:
                self.stats.solve_retries += len(still)
            pending = still
        return [results[i] for i in range(len(solvable))]

    def _solve_group(
        self,
        worker_id: str,
        idxs: list[int],
        solvable: list[Shard],
        floors: np.ndarray | None,
        resource_totals: dict[str, float] | None,
        results: dict[int, ShardResult],
        faults: list[str],
    ) -> None:
        client = self._clients[worker_id]
        for idx in idxs:
            shard = solvable[idx]
            with self._lock:
                reseed = shard.key in self._reseed
                seeds = self.mirror.basis_for(shard.key).sets() if reseed else ()
            sub_floors = (
                None if floors is None else tuple(float(floors[i]) for i in shard.job_indices)
            )
            request = SolveShard(
                id=0,  # assigned per-RPC by the client
                key=tuple(sorted(shard.key)),
                cluster=cluster_to_dict(shard.cluster),
                seed_cuts=tuple(tuple(sorted(cut)) for cut in seeds),
                floors=sub_floors,
                resource_totals=(
                    None
                    if resource_totals is None
                    else tuple(sorted(resource_totals.items()))
                ),
            )
            t0 = time.perf_counter()
            try:
                reply = client.solve(request)
            except DistError as exc:
                # the worker answered — it is alive but cannot solve this
                with self._lock:
                    self.stats.rpcs += 1
                    self.stats.rpc_errors += 1
                    self.stats.log_error(str(exc))
                record_dist_rpc(time.perf_counter() - t0, ok=False)
                faults.append(str(exc))
                return
            except (OSError, ProtocolError, TimeoutError) as exc:
                with self._lock:
                    self.stats.rpcs += 1
                    self.stats.rpc_errors += 1
                record_dist_rpc(time.perf_counter() - t0, ok=False)
                self.fail_worker(worker_id, f"{type(exc).__name__}: {exc}")
                return  # unfinished idxs retry next round on survivors
            seconds = time.perf_counter() - t0
            record_dist_rpc(seconds)
            result = self._to_result(shard, reply)
            with self._lock:
                self.stats.rpcs += 1
                self.stats.rpc_seconds += seconds
                merge_diagnostics(self.stats.probes, result.diagnostics)
                self._reseed.discard(shard.key)
                pooled = self.mirror.basis_for(shard.key)
                for cut in result.discovered_cuts:
                    pooled.record(cut)
                results[idx] = result

    @staticmethod
    def _to_result(shard: Shard, reply: ShardSolved) -> ShardResult:
        matrix = np.asarray(reply.matrix, dtype=float).reshape(
            shard.cluster.n_jobs, shard.cluster.n_sites
        )
        # Workers may run a build whose counter set differs by a field:
        # keep the integer counters this build knows, ignore the rest.
        known = {f.name for f in fields(AmfDiagnostics)}
        diagnostics = AmfDiagnostics(
            **{
                name: value
                for name, value in (reply.diagnostics or {}).items()
                if name in known and type(value) is int
            }
        )
        return ShardResult(
            shard=shard,
            matrix=matrix,
            diagnostics=diagnostics,
            seconds=reply.seconds,
            discovered_cuts=tuple(frozenset(cut) for cut in reply.discovered_cuts),
        )

    # -- introspection ---------------------------------------------------
    def stats_dict(self) -> dict:
        """JSON-ready pool state for ``/v1/stats`` (``dist`` section)."""
        with self._lock:
            self.stats.heartbeat_misses = sum(i.misses for i in self._info.values())
            workers = {w: info.to_dict() for w, info in self.workers.items()}
            out = {
                "workers": workers,
                "workers_alive": sum(1 for i in self._info.values() if i.alive),
                "assignment": self.assignment.to_dict(),
                "mirror_shards": len(self.mirror),
                "mirror_cuts": self.mirror.total_cuts,
                **self.stats.to_dict(),
            }
        # fold the monitor's lifetime misses into the per-worker view
        for worker_id in workers:
            workers[worker_id]["consecutive_misses"] = self.monitor.misses_for(worker_id)
        return out
