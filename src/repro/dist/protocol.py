"""Length-prefixed JSON wire protocol of the distributed control plane.

Everything the coordinator and the solver workers say to each other is a
*frame*: a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  The JSON is a versioned envelope

.. code-block:: json

    {"v": 3, "type": "solve_shard", "id": 7, "body": {...}}

``v`` is :data:`PROTOCOL_VERSION` (a peer speaking another version is
refused before its body is interpreted), ``type`` selects one of the
registered message classes below, and ``id`` is a request id the reply
echoes — the coordinator pipelines independent RPCs over one connection
and matches answers by id.

Framing is defensive at every step, because a TCP peer can die (or lie)
mid-byte:

* a length prefix above :data:`MAX_FRAME_BYTES` — the same 4 MiB ceiling
  the HTTP edge enforces with 413 (:data:`repro.service.schema
  .MAX_BODY_BYTES`) — raises :class:`FrameTooLarge` *before* any payload
  is read, so garbage bytes cannot make a peer buffer gigabytes;
* a socket that closes cleanly *between* frames raises
  :class:`ConnectionClosed` (normal end of conversation);
* a socket that closes *inside* a frame (header or payload) raises
  :class:`ProtocolError` — the peer must treat the stream as poisoned and
  drop the connection, never resynchronize;
* bytes that are not valid UTF-8 JSON, envelopes missing fields, unknown
  types and malformed bodies all raise :class:`ProtocolError` with a
  message naming the violation.

The adversarial cases (truncated frame, oversized prefix, garbage,
mid-frame disconnect) are pinned by ``tests/dist/test_protocol.py``
alongside a hypothesis round-trip of every message type.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Mapping

from repro.service.schema import MAX_BODY_BYTES

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "VersionMismatch",
    "FrameTooLarge",
    "ConnectionClosed",
    "Message",
    "MESSAGE_TYPES",
    "Hello",
    "HelloAck",
    "Ping",
    "Pong",
    "SolveShard",
    "ShardSolved",
    "ErrorReply",
    "Shutdown",
    "ShutdownAck",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
]

#: Version stamped into (and required of) every envelope.  Bumped to 2
#: when :class:`SolveShard` grew ``resource_totals`` (the federation-wide
#: dominant-share denominators a multi-resource shard solve depends on) —
#: a v1 peer would silently solve vector shards against the wrong
#: denominators, so version disagreement must fail closed, never degrade.
#: Bumped to 3 when :class:`SolveShard` lost ``oracle`` (there is one
#: feasibility oracle): a v2 coordinator naming one is refused at the
#: version gate instead of failing on an unknown body field mid-solve.
PROTOCOL_VERSION = 3

#: Frame ceiling — the HTTP edge's 413 limit, reused byte-for-byte.
MAX_FRAME_BYTES = MAX_BODY_BYTES

_HEADER = struct.Struct(">I")


class ProtocolError(ValueError):
    """A byte stream or envelope that violates the wire protocol."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different :data:`PROTOCOL_VERSION`.

    Fail-closed by design: the coordinator treats this as a dead backend
    (typed :class:`repro.dist.DistError` → local fallback) rather than
    attempting cross-version best effort — a v1 worker would solve a
    multi-resource shard against the wrong global denominators.
    """


class FrameTooLarge(ProtocolError):
    """A length prefix above :data:`MAX_FRAME_BYTES` (refused unread)."""


class ConnectionClosed(ProtocolError):
    """The peer closed cleanly at a frame boundary (normal hang-up)."""


# ----------------------------------------------------------------------
# Message types
# ----------------------------------------------------------------------

MESSAGE_TYPES: dict[str, type["Message"]] = {}


def _register(cls: type["Message"]) -> type["Message"]:
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


@dataclass(frozen=True, slots=True)
class Message:
    """Base envelope: every concrete message carries a request ``id``.

    Subclasses are frozen dataclasses whose remaining fields *are* the
    wire body — ``to_wire``/``from_wire`` are generic over the dataclass
    fields, so adding a message type is one class with a ``TYPE`` tag.
    """

    TYPE: ClassVar[str] = ""

    id: int

    def to_wire(self) -> dict[str, Any]:
        body = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "id"}
        return {"v": PROTOCOL_VERSION, "type": self.TYPE, "id": self.id, "body": body}

    @classmethod
    def from_body(cls, id: int, body: Mapping[str, Any]) -> "Message":
        names = {f.name for f in fields(cls)} - {"id"}
        unknown = set(body) - names
        if unknown:
            raise ProtocolError(f"{cls.TYPE!r} body has unknown fields {sorted(unknown)}")
        try:
            return cls(id=id, **dict(body))
        except TypeError as exc:
            raise ProtocolError(f"malformed {cls.TYPE!r} body: {exc}") from None


@_register
@dataclass(frozen=True, slots=True)
class Hello(Message):
    """Connection opener: who is calling (``peer`` is free-form)."""

    TYPE: ClassVar[str] = "hello"
    peer: str = "coordinator"


@_register
@dataclass(frozen=True, slots=True)
class HelloAck(Message):
    """Worker's answer to :class:`Hello`: identity plus a load sketch."""

    TYPE: ClassVar[str] = "hello_ack"
    worker_id: str = ""
    shards: int = 0
    solves: int = 0


@_register
@dataclass(frozen=True, slots=True)
class Ping(Message):
    """Heartbeat probe (sent on the control connection)."""

    TYPE: ClassVar[str] = "ping"


@_register
@dataclass(frozen=True, slots=True)
class Pong(Message):
    """Heartbeat answer, echoing the probe's id with a load sketch."""

    TYPE: ClassVar[str] = "pong"
    worker_id: str = ""
    shards: int = 0
    solves: int = 0


@_register
@dataclass(frozen=True, slots=True)
class SolveShard(Message):
    """Solve one shard: the sub-cluster plus warm-start seed cuts.

    ``key`` is the shard's site-name set (sorted for a canonical wire
    form); ``cluster`` is :func:`repro.model.serialize.cluster_to_dict`
    output; ``seed_cuts`` are site-name sets the worker folds into its
    local basis before solving (the coordinator sends its mirrored cuts
    here after a failover, re-warming the new owner); ``floors`` is an
    optional per-job lower-bound vector; ``resource_totals`` carries the
    *federation-wide* per-resource capacity totals a multi-resource shard
    must use as dominant-share denominators (``None`` for scalar shards).
    """

    TYPE: ClassVar[str] = "solve_shard"
    key: tuple[str, ...] = ()
    cluster: dict[str, Any] | None = None
    seed_cuts: tuple[tuple[str, ...], ...] = ()
    floors: tuple[float, ...] | None = None
    resource_totals: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(str(s) for s in self.key))
        object.__setattr__(
            self, "seed_cuts", tuple(tuple(str(s) for s in cut) for cut in self.seed_cuts)
        )
        if self.floors is not None:
            object.__setattr__(self, "floors", tuple(float(x) for x in self.floors))
        if self.resource_totals is not None:
            object.__setattr__(
                self,
                "resource_totals",
                tuple(sorted((str(res), float(amount)) for res, amount in self.resource_totals)),
            )


@_register
@dataclass(frozen=True, slots=True)
class ShardSolved(Message):
    """A solved shard: exact sub-matrix, diagnostics and discovered cuts.

    The matrix travels as nested JSON numbers — Python serializes floats
    via ``repr`` which round-trips IEEE-754 exactly, so a distributed
    solve is *bit-identical* to the in-process one (pinned by
    ``tests/dist/test_distributed.py``).
    """

    TYPE: ClassVar[str] = "shard_solved"
    key: tuple[str, ...] = ()
    matrix: tuple[tuple[float, ...], ...] = ()
    diagnostics: dict[str, int] | None = None
    seconds: float = 0.0
    discovered_cuts: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(str(s) for s in self.key))
        object.__setattr__(
            self, "matrix", tuple(tuple(float(x) for x in row) for row in self.matrix)
        )
        object.__setattr__(
            self,
            "discovered_cuts",
            tuple(tuple(str(s) for s in cut) for cut in self.discovered_cuts),
        )


@_register
@dataclass(frozen=True, slots=True)
class ErrorReply(Message):
    """The peer could not serve a request (echoes its id).

    ``code`` mirrors the HTTP envelope vocabulary: ``bad_request`` for a
    malformed message, ``internal`` for a solver fault, ``frame_too_large``
    for an oversized frame the peer refused.
    """

    TYPE: ClassVar[str] = "error"
    code: str = "internal"
    message: str = ""


@_register
@dataclass(frozen=True, slots=True)
class Shutdown(Message):
    """Ask the worker to finish its in-flight solve and exit."""

    TYPE: ClassVar[str] = "shutdown"


@_register
@dataclass(frozen=True, slots=True)
class ShutdownAck(Message):
    """Worker's last frame before closing its listener."""

    TYPE: ClassVar[str] = "shutdown_ack"


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------


def encode_message(msg: Message) -> bytes:
    """One wire frame: length prefix + compact JSON envelope."""
    payload = json.dumps(msg.to_wire(), separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"message of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def decode_message(payload: bytes) -> Message:
    """Parse one frame payload back into a typed message."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"envelope must be a JSON object, got {type(obj).__name__}")
    # Version is judged before the field inventory: a foreign version may
    # legitimately use a different envelope shape, and the answer must be
    # "speak v3", not "malformed frame".
    if obj.get("v") != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"unsupported protocol version {obj.get('v')!r} (speak {PROTOCOL_VERSION})"
        )
    missing = {"type", "id", "body"} - set(obj)
    if missing:
        raise ProtocolError(f"envelope missing fields {sorted(missing)}")
    cls = MESSAGE_TYPES.get(obj["type"])
    if cls is None:
        raise ProtocolError(f"unknown message type {obj['type']!r}")
    if not isinstance(obj["id"], int) or isinstance(obj["id"], bool):
        raise ProtocolError(f"message id must be an integer, got {obj['id']!r}")
    if not isinstance(obj["body"], dict):
        raise ProtocolError("message body must be a JSON object")
    return cls.from_body(obj["id"], obj["body"])


def _read_exact(sock: socket.socket, n: int, *, boundary: bool) -> bytes:
    """Read exactly ``n`` bytes or raise.

    ``boundary=True`` means a clean close before the first byte is a
    normal hang-up (:class:`ConnectionClosed`); any close after a byte of
    the frame has been seen is a protocol violation.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if boundary and not buf:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(f"peer closed mid-frame ({len(buf)} of {n} bytes)")
        buf += chunk
    return bytes(buf)


def send_message(sock: socket.socket, msg: Message) -> None:
    """Write one message as a single frame."""
    sock.sendall(encode_message(msg))


def recv_message(sock: socket.socket) -> Message:
    """Read one frame and parse it (see module docstring for error cases)."""
    header = _read_exact(sock, _HEADER.size, boundary=True)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if length == 0:
        raise ProtocolError("empty frame")
    return decode_message(_read_exact(sock, length, boundary=False))
