"""Fail-closed version gating, and resource totals on the wire.

A v1 peer has no notion of federation-wide dominant-share denominators —
cross-version "best effort" would silently solve multi-resource shards
with the wrong objective — and a v2 peer still names an ``oracle`` the v3
``SolveShard`` no longer has.  So version disagreement must *refuse*, typed,
at every layer: ``decode_message`` raises :class:`VersionMismatch`, the
worker answers one stream-level ``ErrorReply(id=0)`` and hangs up, and
the coordinator surfaces that refusal as :class:`DistError` (which the
resilient policy turns into a local fallback, never a degraded answer).
"""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.sharding import decompose, stitch
from repro.dist.coordinator import DistError, WorkerClient, WorkerPool
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ErrorReply,
    SolveShard,
    VersionMismatch,
    decode_message,
    encode_message,
    recv_message,
)
from repro.dist.worker import SolverWorker
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import solve_multiresource


def frame(obj: dict) -> bytes:
    payload = json.dumps(obj).encode()
    return struct.pack(">I", len(payload)) + payload


class TestVersionGate:
    def test_protocol_version_bumped_when_oracle_left_the_wire(self):
        assert PROTOCOL_VERSION == 3

    @pytest.mark.parametrize("v", [1, 2, 4, "3", None])
    def test_decode_rejects_foreign_versions(self, v):
        body = {"v": v, "type": "ping", "id": 7, "body": {}}
        with pytest.raises(VersionMismatch):
            decode_message(json.dumps(body).encode())

    def test_foreign_envelope_shape_still_answers_version(self):
        # a hypothetical v1/v3 frame with different fields must be judged
        # on its version, not on its shape
        with pytest.raises(VersionMismatch):
            decode_message(json.dumps({"v": 1, "t": "ping"}).encode())

    def test_version_mismatch_is_a_protocol_error(self):
        from repro.dist.protocol import ProtocolError

        assert issubclass(VersionMismatch, ProtocolError)

    def test_worker_refuses_v1_stream_then_hangs_up(self):
        worker = SolverWorker().start()
        try:
            with socket.create_connection(worker.address, timeout=10) as sock:
                sock.sendall(frame({"v": 1, "type": "ping", "id": 9, "body": {}}))
                reply = recv_message(sock)
                assert isinstance(reply, ErrorReply)
                assert reply.id == 0  # stream-level, not tied to the RPC id
                assert reply.code == "version_mismatch"
                with pytest.raises(ConnectionClosed):
                    recv_message(sock)
        finally:
            worker.close()

    def test_worker_refuses_v2_solve_shard_before_reading_its_body(self):
        """A v2 coordinator's ``solve_shard`` carries ``oracle``.  The v3
        worker must answer the typed version refusal, not ``bad_request``
        for an unknown body field — so the body here is one that would fail
        every later check (no cluster, an unknown field, a removed oracle)."""
        worker = SolverWorker().start()
        try:
            with socket.create_connection(worker.address, timeout=10) as sock:
                body = {"key": ["a"], "oracle": "ggt", "not_a_field": 1}
                sock.sendall(frame({"v": 2, "type": "solve_shard", "id": 5, "body": body}))
                reply = recv_message(sock)
                assert isinstance(reply, ErrorReply)
                assert (reply.id, reply.code) == (0, "version_mismatch")
                with pytest.raises(ConnectionClosed):
                    recv_message(sock)
            assert worker.solves == 0
        finally:
            worker.close()

    def test_coordinator_surfaces_refusal_as_dist_error(self):
        """A peer that answers every frame with a stream-level refusal
        (what our side of a cross-version pairing sends) yields a typed
        DistError immediately — no RPC-timeout spin, no retry storm."""
        server = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def refuse(conn):
            with conn:
                try:
                    header = conn.recv(4)
                    if len(header) < 4:
                        return
                    (length,) = struct.unpack(">I", header)
                    conn.recv(length)
                    conn.sendall(
                        encode_message(
                            ErrorReply(id=0, code="version_mismatch", message="speak v3")
                        )
                    )
                except OSError:
                    pass

        def accept_loop():
            # the client dials a solve and a control connection before its
            # first frame, so each connection needs its own servicing thread
            while not stop.is_set():
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                threading.Thread(target=refuse, args=(conn,), daemon=True).start()

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        client = WorkerClient(server.getsockname())
        try:
            with pytest.raises(DistError, match="refused the stream.*version_mismatch"):
                client.connect()
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5)


class TestResourceTotalsOnTheWire:
    def test_totals_canonicalized_and_round_tripped(self):
        msg = SolveShard(
            id=3,
            key=("a",),
            resource_totals=(("mem", 2.0), ("cpu", 1.0)),
        )
        assert msg.resource_totals == (("cpu", 1.0), ("mem", 2.0))
        decoded = decode_message(encode_message(msg)[4:])
        assert decoded == msg
        assert decoded.resource_totals == (("cpu", 1.0), ("mem", 2.0))

    def test_none_totals_stay_none(self):
        msg = SolveShard(id=4, key=("a",))
        assert decode_message(encode_message(msg)[4:]).resource_totals is None

    def test_pool_solves_mr_shards_under_federation_totals(self):
        """End-to-end: two crossing-dominance components solved remotely
        under the merged federation's denominators match the monolithic
        local solve — the exactness claim the totals field exists for."""

        def component(prefix: str, cpu: float, mem: float) -> tuple[list, list]:
            sites = [
                Site(f"{prefix}a", {"cpu": cpu, "mem": 2 * mem}),
                Site(f"{prefix}b", {"cpu": cpu / 2, "mem": 4 * mem}),
            ]
            jobs = [
                Job(
                    f"{prefix}j0",
                    {f"{prefix}a": 100.0, f"{prefix}b": 100.0},
                    resources={"cpu": 1.0, "mem": 4.0},
                ),
                Job(
                    f"{prefix}j1",
                    {f"{prefix}a": 100.0, f"{prefix}b": 100.0},
                    resources={"cpu": 4.0, "mem": 1.0},
                ),
            ]
            return sites, jobs

        s1, j1 = component("x", 8.0, 8.0)
        s2, j2 = component("y", 2.0, 1.0)
        merged = Cluster(s1 + s2, j1 + j2)
        local = solve_multiresource(merged)

        workers = [SolverWorker().start()]
        pool = WorkerPool([w.address for w in workers]).start()
        try:
            shards = decompose(merged)
            assert len(shards) == 2
            results = pool.solve_shards(shards, resource_totals=merged.resource_totals)
            matrix = stitch(merged, [(r.shard, r.matrix) for r in results])
        finally:
            pool.stop()
            for w in workers:
                w.close()
        dom = merged.dominant_factor()
        assert np.allclose(
            dom * matrix.sum(axis=1), dom * local.matrix.sum(axis=1), atol=1e-5
        )
