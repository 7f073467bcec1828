"""Wire protocol: hypothesis round-trips plus adversarial framing.

Two suites.  The round-trip suite generates every registered message type
with arbitrary field contents and asserts ``decode(encode(m)) == m`` both
in-memory and over a real socketpair — the JSON envelope must lose
nothing, including IEEE-754 floats bit-for-bit.  The adversarial suite
feeds the receiver the streams a broken or malicious peer can produce —
truncated frames, oversized length prefixes, garbage bytes, mid-frame
disconnects — and asserts each raises the *documented* error promptly
(no hangs, no partial messages)."""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ErrorReply,
    FrameTooLarge,
    Hello,
    HelloAck,
    Ping,
    Pong,
    ProtocolError,
    ShardSolved,
    Shutdown,
    ShutdownAck,
    SolveShard,
    decode_message,
    encode_message,
    recv_message,
    send_message,
)
from repro.service.schema import MAX_BODY_BYTES

# ----------------------------------------------------------------------
# Strategies: one per message type, arbitrary field contents
# ----------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=2**53)
names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)
site_sets = st.lists(names, min_size=0, max_size=4, unique=True).map(tuple)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

clusters = st.fixed_dictionaries(
    {
        "sites": st.lists(
            st.fixed_dictionaries({"name": names, "capacity": floats}), max_size=3
        ),
        "jobs": st.lists(st.fixed_dictionaries({"name": names}), max_size=3),
    }
)

MESSAGE_STRATEGIES = {
    "hello": st.builds(Hello, id=ids, peer=names),
    "hello_ack": st.builds(
        HelloAck, id=ids, worker_id=names, shards=st.integers(0, 99), solves=st.integers(0, 99)
    ),
    "ping": st.builds(Ping, id=ids),
    "pong": st.builds(
        Pong, id=ids, worker_id=names, shards=st.integers(0, 99), solves=st.integers(0, 99)
    ),
    "solve_shard": st.builds(
        SolveShard,
        id=ids,
        key=site_sets,
        cluster=st.one_of(st.none(), clusters),
        seed_cuts=st.lists(site_sets, max_size=3).map(tuple),
        floors=st.one_of(st.none(), st.lists(floats, max_size=4).map(tuple)),
        resource_totals=st.one_of(
            st.none(),
            st.dictionaries(names, st.floats(min_value=0.0, max_value=1e9), max_size=3).map(
                lambda d: tuple(sorted(d.items()))
            ),
        ),
    ),
    "shard_solved": st.builds(
        ShardSolved,
        id=ids,
        key=site_sets,
        matrix=st.lists(st.lists(floats, min_size=2, max_size=2), max_size=3).map(
            lambda rows: tuple(tuple(r) for r in rows)
        ),
        diagnostics=st.one_of(
            st.none(), st.dictionaries(st.sampled_from(["rounds", "cuts_generated"]), st.integers(0, 9))
        ),
        seconds=st.floats(min_value=0.0, max_value=1e6),
        discovered_cuts=st.lists(site_sets, max_size=3).map(tuple),
    ),
    "error": st.builds(ErrorReply, id=ids, code=names, message=st.text(max_size=40)),
    "shutdown": st.builds(Shutdown, id=ids),
    "shutdown_ack": st.builds(ShutdownAck, id=ids),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_registered_type_has_a_strategy():
    # A new message type must join the round-trip suite to ship.
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)


class TestRoundTrip:
    @given(msg=any_message)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_identity(self, msg):
        frame = encode_message(msg)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        decoded = decode_message(frame[4:])
        assert type(decoded) is type(msg)
        assert decoded == msg

    @given(msg=any_message)
    @settings(max_examples=50, deadline=None)
    def test_socket_round_trip(self, msg):
        a, b = socket.socketpair()
        try:
            send_message(a, msg)
            received = recv_message(b)
        finally:
            a.close()
            b.close()
        assert received == msg

    def test_floats_survive_bit_for_bit(self):
        # The bit-identity cornerstone: repr-based JSON floats round-trip
        # IEEE-754 exactly, even "ugly" values.
        values = (0.1 + 0.2, 1.0 / 3.0, 2.0**-1074, 1e308, 0.0, -0.0)
        msg = ShardSolved(id=1, key=("s",), matrix=(values,))
        assert decode_message(encode_message(msg)[4:]).matrix[0] == values


# ----------------------------------------------------------------------
# Adversarial framing
# ----------------------------------------------------------------------


def _recv_from(raw: bytes):
    """Run recv_message against a scripted peer that sends ``raw`` then
    closes.  Returns the message or raises what recv_message raised —
    with a watchdog proving it did not hang."""
    a, b = socket.socketpair()
    b.settimeout(5.0)

    def feed():
        try:
            a.sendall(raw)
        finally:
            a.close()

    t = threading.Thread(target=feed, daemon=True)
    t.start()
    try:
        return recv_message(b)
    finally:
        b.close()
        t.join(timeout=5.0)


class TestAdversarialFraming:
    def test_clean_close_between_frames(self):
        with pytest.raises(ConnectionClosed):
            _recv_from(b"")

    def test_truncated_header(self):
        with pytest.raises(ProtocolError) as exc:
            _recv_from(b"\x00\x00")
        assert not isinstance(exc.value, ConnectionClosed)
        assert "mid-frame" in str(exc.value)

    def test_truncated_payload(self):
        frame = encode_message(Ping(id=1))
        with pytest.raises(ProtocolError) as exc:
            _recv_from(frame[:-3])
        assert "mid-frame" in str(exc.value)

    def test_oversized_length_prefix_refused_unread(self):
        # 512 MiB announced; only the 4 header bytes ever sent.  The
        # receiver must refuse from the prefix alone.
        with pytest.raises(FrameTooLarge):
            _recv_from(struct.pack(">I", 512 << 20))

    def test_frame_limit_is_the_http_limit(self):
        assert MAX_FRAME_BYTES == MAX_BODY_BYTES
        with pytest.raises(FrameTooLarge):
            _recv_from(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_empty_frame(self):
        with pytest.raises(ProtocolError, match="empty frame"):
            _recv_from(struct.pack(">I", 0))

    def test_garbage_bytes(self):
        garbage = b"\xff\xfenot json at all"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            _recv_from(struct.pack(">I", len(garbage)) + garbage)

    @given(noise=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_noise_never_hangs(self, noise):
        # Any byte salad must resolve to a message or a typed error —
        # never a hang (the scripted peer closes after sending).
        try:
            _recv_from(noise)
        except ProtocolError:
            pass

    def _frame(self, obj) -> bytes:
        payload = json.dumps(obj).encode()
        return struct.pack(">I", len(payload)) + payload

    def test_wrong_version(self):
        with pytest.raises(ProtocolError, match="version"):
            _recv_from(self._frame({"v": PROTOCOL_VERSION + 1, "type": "ping", "id": 1, "body": {}}))

    def test_missing_envelope_fields(self):
        with pytest.raises(ProtocolError, match="missing"):
            _recv_from(self._frame({"v": PROTOCOL_VERSION, "type": "ping"}))

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            _recv_from(self._frame({"v": PROTOCOL_VERSION, "type": "nope", "id": 1, "body": {}}))

    def test_non_integer_id(self):
        with pytest.raises(ProtocolError, match="id"):
            _recv_from(
                self._frame({"v": PROTOCOL_VERSION, "type": "ping", "id": "seven", "body": {}})
            )

    def test_unknown_body_fields(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            _recv_from(
                self._frame(
                    {"v": PROTOCOL_VERSION, "type": "ping", "id": 1, "body": {"bogus": 1}}
                )
            )

    def test_non_object_body(self):
        with pytest.raises(ProtocolError, match="body"):
            _recv_from(self._frame({"v": PROTOCOL_VERSION, "type": "ping", "id": 1, "body": []}))

    def test_non_object_envelope(self):
        with pytest.raises(ProtocolError, match="object"):
            _recv_from(self._frame([1, 2, 3]))

    def test_oversized_message_refused_at_send(self):
        big = ErrorReply(id=1, code="x", message="y" * (MAX_FRAME_BYTES + 10))
        with pytest.raises(FrameTooLarge):
            encode_message(big)
