"""Asyncio HTTP edge: lock-free reads, admission-controlled writes.

The service's one HTTP front-end (``repro.cli serve``).  No read takes
the daemon's lock:

* **One event loop** (own thread) frames HTTP/1.1 and answers every read
  endpoint (``GET /v1/health``, ``/v1/stats``, ``/v1/metrics``, ``/v1/jobs``,
  ``/v1/allocate?fresh=false``) in the callback that received it, from a
  :class:`PublishedView` — an immutable snapshot with pre-rendered
  response bytes.  Swapping the view is a single attribute assignment
  (atomic under the GIL), so reads never take a lock, never block on the
  solver, and never touch the daemon.
* **One solver thread** is the *only* code that calls the
  :class:`~repro.service.daemon.AllocationService`.  Writes (``POST
  /v1/jobs``, ``/v1/capacity``, ``/v1/allocate``, ``DELETE
  /v1/jobs/<name>``, ``GET /v1/allocate?fresh=true``) travel to it
  through a bounded intake queue and come back as asyncio futures;
  ``AllocationService.submit_all`` stays the only path into the state.
* **Admission control**: when the intake queue holds ``max_pending``
  items the edge sheds new writes with ``429 too_many_requests`` and a
  ``Retry-After`` hint derived from the published solve p50 and the
  total backlog — open-loop load above solver capacity degrades into
  explicit backpressure instead of unbounded queueing (``/v1/stats``
  ``admission`` counts both outcomes).  Reads are never shed.

The solver thread publishes a fresh view after every batch of work it
processes and every due solve, *before* resolving the write futures — so
by the time a client sees its 202, the published view already counts it
pending; everything in a view (``uptime_seconds`` included) is as of its
publish, and ``/v1/metrics`` renders the service's counters from the
same view's stats.  Every route lives under ``/v1/``: any other
path answers the 404 envelope.  Every failure — framing, validation, the
solver's — is mapped by ``_error_for`` and rendered by ``_error``; a
request the edge cannot frame is answered 400 and its connection closed.
A due solve that raised is counted in ``repro_flush_errors_total`` and
the loop keeps running.
"""

from __future__ import annotations

import asyncio
import ctypes
import functools
import json
import math
import queue
import threading
import time
import traceback
from typing import Any, Callable, NamedTuple, Sequence
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.obs import instruments
from repro.obs.instruments import render_stats
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.daemon import AllocationService, ServedAllocation, ServiceClosed
from repro.service.schema import (
    API_SPEC,
    MAX_BODY_BYTES,
    AllocateRequest,
    CapacitySpec,
    JobsQuery,
    SchemaError,
    allocation_payload,
    error_envelope,
    jobs_listing_payload,
    parse_fresh,
)
from repro.model.resources import ResourceMismatchError, UnknownResourceError
from repro.service.state import CapacityChanged, ClusterEvent, JobArrived, JobDeparted

__all__ = ["PublishedView", "AioServiceServer", "serve_aio"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
_STOP = object()  # intake sentinel: solver loop exits after the final drain

#: Header-count bound, matching ``http.client``'s cap.
_MAX_HEADERS = 100

#: Longest line the edge frames, in bytes before its ``\n``: asyncio's
#: ``StreamReader`` limit, whose refusal messages :func:`_line_end` keeps.
_MAX_LINE = 1 << 16

#: Seconds shutdown waits for closed connections to flush before aborting
#: the rest.
_SHUTDOWN_GRACE = 2.0


#: Routes served from the published view: route -> ``PublishedView``
#: attribute prefix (``<kind>_resp`` keep-alive bytes, ``<kind>_json`` body).
_VIEW_READS = {"/health": "health", "/stats": "stats", "/allocate": "allocate"}

#: An allocation document's head keys: how it was served.  The tail, what
#: the allocation itself determines, follows them (see ``_rendered``).
_HEAD = ("policy", "cached", "solve_ms", "version", "fingerprint")


def _head(payload: dict[str, Any]) -> bytes:
    return json.dumps({key: payload[key] for key in _HEAD})[:-1].encode() + b", "


def _render(
    status: int,
    body: bytes,
    content_type: str = _JSON,
    *,
    extra: Sequence[tuple[str, str]] = (),
    close: bool = False,
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        "Server: repro-amf-aio",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for key, value in extra:
        head.append(f"{key}: {value}")
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class PublishedView:
    """One immutable serving snapshot: payloads pre-rendered to bytes.

    The solver thread builds a view after each unit of work; the event
    loop reads whichever view is current at request time.  Nothing in a
    view is ever mutated — ``jobs`` listings build their page from
    ``allocate`` as new dicts.  ``allocate_json`` arrives encoded: it is
    built once per answer of the service, not once per view.  ``stats`` is
    the dict ``stats_json`` encodes; ``/v1/metrics`` renders from it.
    """

    __slots__ = (
        "version",
        "fingerprint",
        "pending",
        "solve_p50_s",
        "health_resp",
        "stats_resp",
        "allocate_resp",
        "health_json",
        "stats_json",
        "stats",
        "allocate",
        "allocate_json",
        "pending_names",
    )

    def __init__(
        self,
        *,
        version: int,
        fingerprint: str,
        pending: int,
        solve_p50_s: float | None,
        health: dict[str, Any],
        stats: dict[str, Any],
        allocate: dict[str, Any],
        allocate_json: bytes,
        pending_names: tuple[str, ...],
    ):
        self.version = version
        self.fingerprint = fingerprint
        self.pending = pending
        self.solve_p50_s = solve_p50_s
        self.health_json = json.dumps(health).encode()
        self.stats_json = json.dumps(stats).encode()
        self.stats = stats
        self.allocate = allocate
        self.allocate_json = allocate_json
        # the fast path: complete keep-alive responses, written verbatim
        self.health_resp = _render(200, self.health_json)
        self.stats_resp = _render(200, self.stats_json)
        self.allocate_resp = _render(200, self.allocate_json)
        self.pending_names = pending_names


class _HttpError(Exception):
    """One error answer: status, envelope ``code`` and ``message``, an
    optional ``detail`` and extra response headers.

    Raised anywhere on a request's path; :func:`_error_for` passes it
    through unchanged and :meth:`AioServiceServer._error` renders it.
    """

    def __init__(
        self, status: int, code: str, message: str, detail: Any = None, headers: Sequence[tuple[str, str]] = ()
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail
        self.headers = headers


class _Work(NamedTuple):
    """One admitted write, en route from the event loop to the solver:
    ``call(payload)`` runs on the solver thread."""

    call: Callable[[Any], Any]
    payload: Any
    future: asyncio.Future


def _line_end(buf: bytearray, start: int, eof: bool) -> int | None:
    """Where the line at ``start`` ends (past its ``\\n``; at EOF the buffer's end), or ``None`` until it arrives."""
    end = buf.find(b"\n", start)
    if end < 0:
        if len(buf) - start > _MAX_LINE:
            raise ValueError("Separator is not found, and chunk exceed the limit")
        return len(buf) if eof else None
    if end - start > _MAX_LINE:
        raise ValueError("Separator is found, but chunk is longer than limit")
    return end + 1


def _frame(buf: bytearray, eof: bool = False) -> tuple[int, str, str, dict[str, str], bytes | None] | None:
    """The request ``buf`` starts with, ``(consumed, method, target, headers, body)``: ``None``
    until its head is in, ``body`` ``None`` until its body is (after ``eof`` a missing line is
    blank).  A refusal raises once its bytes are in.  Only ``Content-Length`` frames a body:
    bytes the edge cannot delimit must never run as the next request."""
    pos = _line_end(buf, 0, eof)
    if pos is None:
        return None
    parts = buf[:pos].decode("latin-1").split(None, 2)
    if len(parts) != 3:
        raise _HttpError(400, "bad_request", "malformed request line")
    headers: dict[str, str] = {}
    for lines in range(_MAX_HEADERS + 1):
        end = _line_end(buf, pos, eof)
        if end is None:
            return None
        line, pos = buf[pos:end], end
        if line in (b"\r\n", b"\n", b""):
            break
        if lines == _MAX_HEADERS:
            raise _HttpError(431, "headers_too_large", f"more than {_MAX_HEADERS} header lines")
        key, _, value = line.decode("latin-1").partition(":")
        key, value = key.strip().lower(), value.strip()
        if key == "content-length" and headers.get(key, value) != value:
            raise _HttpError(400, "bad_request", f"conflicting Content-Length {headers[key]!r} and {value!r}")
        headers[key] = value
    if "transfer-encoding" in headers:
        raise _HttpError(400, "bad_request", "Transfer-Encoding is not supported; send Content-Length")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise _HttpError(400, "bad_request", f"malformed Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, "payload_too_large", f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    short = len(buf) - pos < length
    if short and eof:
        why = f"{len(buf) - pos} bytes read on a total of {length} expected bytes"
        raise _HttpError(408, "request_timeout", f"timed out reading request: {why}")
    return pos + length, parts[0].upper(), parts[1], headers, None if short else bytes(buf[pos : pos + length])


class _HttpProtocol(asyncio.Protocol):
    """One accepted connection, answering its requests in order: a read in the
    callback that received it, a write once the solver's future resolves.
    Framing stops while a write waits or the transport is over its high-water
    mark.  One timer keeps the deadline (``idle_timeout`` to a request line,
    then ``request_timeout`` to its last body byte, and ``idle_timeout`` for
    a paused transport to drain), re-armed only when the deadline moves
    earlier."""

    def __init__(self, server: "AioServiceServer"):
        self._server, self._loop = server, server._loop
        self._buf = bytearray()
        self._eof = self._paused = False  # _paused: the transport is over its high-water mark
        self._waiting = False  # on the solver's answer to the last request
        self._t0: float | None = None  # when a partial request's line arrived
        self._need: int | None = None  # its length, once its head is in
        self._deadline: float | None = None
        self._timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._server._conns.add(self)
        self._arm(self._server.idle_timeout)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._conns.discard(self)
        if self._timer is not None:
            self._timer.cancel()

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        # framed again once these bytes can decide it: the body is in, or a head line ended or outgrew the limit
        if (len(buf) >= self._need) if self._need else (b"\n" in data or len(buf) - buf.rfind(b"\n") > _MAX_LINE + 1):
            self._next()

    def eof_received(self) -> bool:
        self._eof = True
        self._next()
        return True  # keep writing the answers still owed

    def pause_writing(self) -> None:
        self._paused = True
        self._arm(self._server.idle_timeout)  # a client that stops reading is cut off

    def resume_writing(self) -> None:
        self._paused = False
        self._deadline = None  # _next arms the next one
        # a turn later: a close inside the transport's write callback loses the connection twice
        self._loop.call_soon(self._next)

    def _next(self) -> None:
        """Answer buffered requests in order until one waits, the transport pauses or closes, or bytes run out."""
        server, buf, transport = self._server, self._buf, self.transport
        while not (self._waiting or self._paused or transport.is_closing()):
            if buf.startswith((b"\n", b"\r\n")) or (self._eof and not buf):
                return transport.close()  # a blank line or the end: no more requests
            t0 = self._t0 or time.perf_counter()
            try:
                framed = _frame(buf, self._eof)
                if framed is None or framed[4] is None:
                    self._need = None if framed is None else framed[0]
                    break
                consumed, method, target, headers, body = framed
                route, query = server._route(target)
            except Exception as exc:  # noqa: BLE001 - no request framed: answer, hang up
                return self._write(server._fail(exc, True, t0), True)
            del buf[:consumed]
            self._t0 = self._deadline = self._need = None
            close = headers.get("connection", "").lower() == "close"
            answer = server._dispatch(method, route, query, target, body, close=close, t0=t0)
            if isinstance(answer, bytes):
                self._write(answer, close)
            else:
                self._waiting = True
                answer.add_done_callback(functools.partial(self._answered, close, t0))
        else:  # waiting, paused or closing: past the bound, stop reading too
            if len(buf) > 2 * _MAX_LINE and not self._eof:
                transport.pause_reading()
            return
        if self._t0 is None and b"\n" in buf:  # awaiting bytes, the request line is in
            self._t0 = time.perf_counter()
            self._arm(server.request_timeout)
        elif self._t0 is None and self._deadline is None:  # awaiting the next request
            self._arm(server.idle_timeout)
        transport.resume_reading()

    def _answered(self, close: bool, t0: float, future: asyncio.Future) -> None:
        """Write the solver's result: ``(status, body)`` or the exception it raised."""
        self._waiting = False
        result, server = future.result(), self._server
        if not self.transport.is_closing():
            if isinstance(result, Exception):
                self._write(server._fail(result, close, t0), close)
            else:
                self._write(server._ok(result[1], close, t0, status=result[0]), close)
            self._next()

    def _write(self, answer: bytes, close: bool) -> None:
        self.transport.write(answer)
        # a 503 always closes (see _error); a prefix check keeps reads allocation-free
        if close or answer.startswith(b"HTTP/1.1 503 "):
            self.transport.close()

    def _arm(self, timeout: float | None) -> None:
        """Move the deadline to ``timeout`` seconds from now (``None``: none)."""
        self._deadline = when = None if timeout is None else self._loop.time() + timeout
        if when is not None and (self._timer is None or when < self._timer.when()):
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_at(when, self._expire)

    def _expire(self) -> None:
        self._timer = None
        if self._deadline is None or self.transport.is_closing():
            return
        if self._loop.time() < self._deadline:  # moved later since armed
            self._timer = self._loop.call_at(self._deadline, self._expire)
        elif self._paused:
            self.transport.abort()  # close() would wait on a buffer the client never reads
        elif self._t0 is None:
            self.transport.close()  # idle keep-alive expired: drop silently
        else:
            late = _HttpError(408, "request_timeout", "timed out reading request: ")
            self._write(self._server._fail(late, True, self._t0), True)


class AioServiceServer:
    """The asyncio edge bound to one :class:`AllocationService`.

    Use as a context manager (or call :meth:`start` / :meth:`shutdown`).
    The server owns two threads — the event loop and the solver — and, on
    shutdown, the service itself (:meth:`AllocationService.close` runs
    last, so the journal checkpoint sees the fully-drained state).

    Parameters
    ----------
    max_pending:
        Intake-queue bound: writes beyond this many undispatched work
        items are shed with 429 + ``Retry-After``.
    retry_floor:
        Smallest ``Retry-After`` hint handed to shed requests (seconds).
    request_timeout:
        Budget for one whole request, from the end of its request line to
        the last body byte: a client that has not delivered headers and
        body by then is answered 408, however steadily it dribbles.
    idle_timeout:
        How long a keep-alive connection may sit idle between requests
        before being dropped silently.  ``None`` inherits
        ``request_timeout``.
    """

    def __init__(
        self,
        service: AllocationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 1024,
        retry_floor: float = 0.1,
        request_timeout: float | None = 30.0,
        idle_timeout: float | None = None,
        quiet: bool = True,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_pending = max_pending
        self.retry_floor = retry_floor
        self.request_timeout = request_timeout
        self.idle_timeout = request_timeout if idle_timeout is None else idle_timeout
        self.quiet = quiet
        self.view: PublishedView | None = None
        # One slot, replaced, solver thread only: the state version of the
        # last allocation the service handed over, with the payload and the
        # encoded document it re-publishes as until the next solve.
        self._answer: tuple[int, dict[str, Any], bytes] | None = None
        self._intake: queue.Queue = queue.Queue()
        self.admitted = 0
        self.shed = 0
        self._closing = False
        self._solver_done = False
        self._started = False
        self._shutdown_lock = threading.Lock()
        self._view_ready = threading.Event()
        self._loop_ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_HttpProtocol] = set()  # accepted and not yet lost
        self._port: int | None = None
        self._solver_thread = threading.Thread(target=self._solver_loop, name="amf-aio-solver", daemon=True)
        self._loop_thread = threading.Thread(target=self._run_loop, name="amf-aio-loop", daemon=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    def start(self) -> "AioServiceServer":
        if self._started:
            return self
        self._started = True
        self._solver_thread.start()
        self._view_ready.wait(timeout=30.0)
        if self.view is None:
            raise RuntimeError("solver thread failed to publish the initial view")
        self._loop_thread.start()
        self._loop_ready.wait(timeout=30.0)
        if self._port is None:
            raise RuntimeError("event loop failed to bind the listening socket")
        return self

    def shutdown(self) -> None:
        """Graceful stop: drain writes, close the service, stop serving."""
        with self._shutdown_lock:
            if not self._started or self._closing:
                return
            self._closing = True
        self._intake.put(_STOP)
        self._solver_thread.join(timeout=30.0)
        # items that raced past the _closing check after the solver's
        # final drain: answer them 503 while the loop still runs
        self._drain_closed()
        self.service.close()
        if self._loop is not None and self._loop.is_running():
            asyncio.run_coroutine_threadsafe(self._shutdown_async(), self._loop)
        self._loop_thread.join(timeout=30.0)

    def __enter__(self) -> "AioServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                loop.create_server(lambda: _HttpProtocol(self), self.host, self._requested_port)
            )
            self._port = self._server.sockets[0].getsockname()[1]
            self._loop_ready.set()
            loop.run_forever()
        finally:
            self._loop_ready.set()  # unblock start() on bind failure too
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    async def _shutdown_async(self) -> None:
        loop = asyncio.get_running_loop()
        if self._server is not None:
            # Stop accepting, then give the connections already accepted two
            # turns to wrap their sockets in transports before the server
            # closes: on Python 3.11 a setup that runs after Server.close
            # fails and drops its socket unclosed.
            for sock in self._server.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
        # Close every connection (a transport writes out what it holds first);
        # one still being set up has its transport a turn later, so repeat.
        deadline = loop.time() + _SHUTDOWN_GRACE
        while self._conns and loop.time() < deadline:
            for conn in list(self._conns):
                conn.transport.close()
            await asyncio.sleep(0.01)
        for conn in list(self._conns):
            conn.transport.abort()  # still flushing to a client that stopped reading
        # a socket closes in its transport's connection_lost callback, which
        # runs on the loop's next turn: take that turn before stopping
        await asyncio.sleep(0)
        loop.stop()

    # ------------------------------------------------------------------
    # Solver thread: the only toucher of the AllocationService
    # ------------------------------------------------------------------
    def _solver_loop(self) -> None:
        try:
            self._publish()
        finally:
            self._view_ready.set()
        idle = max(0.002, (self.service.max_delay or 0.01) / 2)
        while True:
            wait = self.service.seconds_until_due()
            timeout = idle if wait is None else max(0.0, min(wait, idle))
            batch: list[_Work] = []
            stop = False
            try:
                first = self._intake.get(timeout=timeout)
                batch.append(first)
                while True:
                    batch.append(self._intake.get_nowait())
            except queue.Empty:
                pass
            if any(item is _STOP for item in batch):
                stop = True
                batch = [item for item in batch if item is not _STOP]
            results = [(item, self._process(item)) for item in batch]
            # a solve only when one is due, and a last one at shutdown;
            # otherwise the publish below re-uses the answer held
            due = stop or self.service.due()
            if due:
                try:
                    self._rendered(self.service.allocation(fresh=True))
                except ServiceClosed:
                    pass
                except Exception:  # noqa: BLE001 - the solver loop must survive
                    instruments.record_flush_error()
                    if not self.quiet:
                        traceback.print_exc()
            if batch or due:
                try:
                    self._publish()
                except Exception:  # noqa: BLE001 - reads outlive a bad publish
                    if not self.quiet:
                        traceback.print_exc()
            # resolve only after publishing: a client that sees its 202
            # can immediately read a view that reflects the write
            for item, result in results:
                self._resolve(item, result)
            if stop:
                self._solver_done = True
                self._drain_closed()
                return

    def _process(self, item: _Work) -> tuple[int, dict[str, Any] | bytes] | Exception:
        """Run one write: ``(status, body)``, or the exception it raised
        (answered on the event loop, like any other failure)."""
        try:
            return item.call(item.payload)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return exc

    def _submit(self, payload: tuple[tuple[ClusterEvent, ...], list[str] | None]) -> tuple[int, dict[str, Any]]:
        events, names = payload
        body: dict[str, Any] = {"pending_events": self.service.submit_all(events)}
        if names is not None:
            body["queued_jobs"] = names
        return 202, body

    def _depart(self, name: str) -> tuple[int, dict[str, Any]]:
        if not self.service.state.has_job(name):
            raise _HttpError(404, "not_found", f"unknown job {name!r}")
        return 202, {"pending_events": self.service.submit(JobDeparted(name))}

    def _allocate(self, payload: tuple[tuple[ClusterEvent, ...], list[str] | None]) -> tuple[int, bytes]:
        events, names = payload
        if events:
            self.service.submit_all(events)
        body = self._rendered(self.service.allocation(fresh=True))[1]
        if names is not None:
            body = body[:-1] + b', "queued_jobs": ' + json.dumps(names).encode() + b"}"
        return 200, body

    def _resolve(self, item: _Work, result: Any) -> None:
        try:  # once per item, and nothing cancels the future
            item.future.get_loop().call_soon_threadsafe(item.future.set_result, result)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _drain_closed(self) -> None:
        """503 anything still sitting in the intake after shutdown."""
        while True:
            try:
                item = self._intake.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                self._resolve(item, ServiceClosed("service is shutting down"))

    def _rendered(self, served: ServedAllocation) -> tuple[dict[str, Any], bytes]:
        """Render and encode ``served`` — the one time either happens.

        The document is ``head + tail``: five small fields, then everything
        the allocation determines (``allocation_payload`` encodes it, per
        component).  The tail is kept in :attr:`_answer` under the head a
        memo replay would carry (``cached``, 0 ms).
        """
        payload, tail = allocation_payload(served)
        again = {**payload, "cached": True, "solve_ms": 0.0}
        self._answer = (served.version, again, _head(again) + tail)
        return payload, _head(payload) + tail

    def _publish(self) -> None:
        service = self.service
        if self._answer is None or self._answer[0] != service.solved_version:
            # first boot, or a due solve that took its batch and then raised:
            # ask again; otherwise the answer held is the view's
            allocate, document = self._rendered(service.allocation(fresh=False))
        else:
            _, allocate, document = self._answer
        stats = service.stats()
        stats["edge"] = "aio"
        stats["admission"] = self.admission_stats()
        import repro

        health = {
            "status": "ok",
            "version": repro.__version__,
            "jobs": stats["state"]["jobs"],
            "sites": stats["state"]["sites"],
            "pending_events": stats["state"]["pending_events"],
        }
        p50_ms = stats["solver"]["p50_ms"]
        self.view = PublishedView(
            version=allocate["version"],
            fingerprint=allocate["fingerprint"],
            pending=stats["state"]["pending_events"],
            solve_p50_s=None if p50_ms is None else p50_ms / 1e3,
            health=health,
            stats=stats,
            allocate=allocate,
            allocate_json=document,
            pending_names=tuple(service.pending_job_names()),
        )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admission_stats(self) -> dict[str, Any]:
        return {
            "max_pending": self.max_pending,
            "intake_depth": self._intake.qsize(),
            "admitted": self.admitted,
            "shed": self.shed,
            "retry_floor": self.retry_floor,
        }

    def _retry_after(self) -> float:
        """Seconds until a shed client plausibly gets through.

        The backlog must drain through the solver: ``ceil(backlog /
        max_batch)`` coalesced batches, each costing roughly the published
        solve p50 (the coalescing delay when no solve has happened yet).
        """
        view = self.view
        p50 = None if view is None else view.solve_p50_s
        if p50 is None or p50 <= 0.0:
            p50 = max(self.service.max_delay, 1e-3)
        backlog = self._intake.qsize() + (view.pending if view is not None else 0) + 1
        batches = max(1, math.ceil(backlog / self.service.max_batch))
        return max(self.retry_floor, batches * p50)

    def _admit(self, call: Callable[[Any], Any], payload: Any) -> asyncio.Future:
        """Enqueue ``call(payload)`` for the solver thread and return the
        future of its result; raise the 429 when the intake is full."""
        if self._intake.qsize() >= self.max_pending:
            retry = self._retry_after()
            self.shed += 1
            instruments.record_admission_shed(retry)
            raise _HttpError(
                429,
                "too_many_requests",
                "solver intake queue is full; retry later",
                {"retry_after_seconds": retry},
                (("Retry-After", str(max(1, math.ceil(retry)))),),
            )
        work = _Work(call, payload, asyncio.get_running_loop().create_future())
        self._intake.put(work)
        self.admitted += 1
        if self._solver_done:
            # raced past the closing check after the solver's final drain
            self._drain_closed()
        return work.future

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _count(status: int, t0: float | None) -> None:
        if not REGISTRY.enabled:
            return
        instruments.SERVICE_REQUESTS.inc()
        if status >= 400:
            instruments.SERVICE_ERRORS.inc()
        if t0 is not None:
            instruments.SERVICE_REQUEST_SECONDS.observe(time.perf_counter() - t0)

    def _route(self, target: str) -> tuple[str | None, dict[str, str]]:
        """The route under ``/v1`` and the query; ``None`` off ``/v1``."""
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        path = parts.path
        if path == "/v1" or path.startswith("/v1/"):
            return path[3:] or "/", query
        return None, query

    def _dispatch(
        self, method: str, route: str | None, query: dict[str, str], target: str, body: bytes, *, close: bool, t0: float
    ) -> bytes | asyncio.Future:
        """Answer one framed request, or give the future of the solver's: every route, every way it fails."""
        try:
            if route is not None and method in ("GET", "POST", "DELETE"):
                if self._closing:
                    raise ServiceClosed("service is shutting down")
                if method == "GET":
                    if route == "/allocate" and parse_fresh(query, default=False):
                        return self._admit(self._allocate, ((), None))
                    kind = _VIEW_READS.get(route)
                    if kind is not None:
                        # the fast path: a published response, written verbatim
                        view = self._view_or_503()
                        self._count(200, t0)
                        if close:
                            return _render(200, getattr(view, kind + "_json"), close=True)
                        return getattr(view, kind + "_resp")
                    if route == "/metrics":
                        view = self._view_or_503()
                        if REGISTRY.enabled:
                            instruments.ADMISSION_QUEUE_DEPTH.set(self._intake.qsize())
                        self._count(200, t0)  # the scrape counts itself
                        text = REGISTRY.render_prometheus() + render_stats(view.stats)
                        return _render(200, text.encode(), _PROMETHEUS, close=close)
                    if route == "/traces":
                        return self._ok(TRACER.to_chrome(), close, t0)
                    if route == "/spec":
                        return self._ok(API_SPEC, close, t0)
                    if route == "/jobs":
                        q = JobsQuery.from_query(query)
                        view = self._view_or_503()
                        return self._ok(jobs_listing_payload(view.allocate, list(view.pending_names), q), close, t0)
                elif method == "POST":
                    # schema/model validation happens here on the loop, before
                    # admission; whatever it raises (a non-UTF-8 body included)
                    # is answered by _fail
                    data: dict[str, Any] = {}
                    if body:
                        data = json.loads(body.decode())
                        if not isinstance(data, dict):
                            raise SchemaError("request body must be a JSON object")
                    if route == "/allocate":
                        request = AllocateRequest.from_json(data)
                        return self._admit(self._allocate, self._events_from(request))
                    if route == "/jobs":
                        request = AllocateRequest.from_json(data, require_jobs=True)
                        return self._admit(self._submit, self._events_from(request))
                    if route == "/capacity":
                        spec = CapacitySpec.from_json(data)
                        event = CapacityChanged(spec.site, spec.capacity)
                        return self._admit(self._submit, ((event,), None))
                elif route.startswith("/jobs/") and len(route) > len("/jobs/"):
                    return self._admit(self._depart, unquote(route[len("/jobs/"):]))
            raise _HttpError(404, "not_found", f"unknown path {target!r}")
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return self._fail(exc, close, t0)

    def _fail(self, exc: Exception, close: bool, t0: float | None) -> bytes:
        """The one way a failure leaves the edge: mapped, then rendered."""
        return self._error(_error_for(exc), close, t0)

    def _error(self, err: _HttpError, close: bool, t0: float | None) -> bytes:
        self._count(err.status, t0)
        body = json.dumps(error_envelope(err.code, err.message, err.detail)).encode()
        # a 503 means the service is going away: end the connection too
        return _render(err.status, body, extra=err.headers, close=close or err.status == 503)

    def _ok(self, payload: dict[str, Any] | bytes, close: bool, t0: float, *, status: int = 200) -> bytes:
        self._count(status, t0)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return _render(status, body, close=close)

    def _view_or_503(self) -> PublishedView:
        view = self.view
        if view is None or (self._closing and self._solver_done):
            raise ServiceClosed("service is shutting down")
        return view

    @staticmethod
    def _events_from(request: AllocateRequest) -> tuple[tuple[ClusterEvent, ...], list[str]]:
        jobs = [spec.to_job() for spec in request.jobs]
        return tuple(JobArrived(job) for job in jobs), [job.name for job in jobs]


def _error_for(exc: Exception) -> _HttpError:
    """The error answer for ``exc``: the one exception map of every request
    path (an :class:`_HttpError` already is one)."""
    if isinstance(exc, _HttpError):
        return exc
    if isinstance(exc, ServiceClosed):
        return _HttpError(503, "unavailable", str(exc))
    if isinstance(exc, ResourceMismatchError):
        return _HttpError(400, "resource_mismatch", str(exc))
    if isinstance(exc, UnknownResourceError):
        return _HttpError(400, "unknown_resource", str(exc))
    if isinstance(exc, ValueError):
        # SchemaError, StateError, JSONDecodeError, UnicodeDecodeError, a line
        # over _MAX_LINE, a target urlsplit rejects, ...
        return _HttpError(400, "bad_request", str(exc))
    return _HttpError(500, "internal", f"{type(exc).__name__}: {exc}")


#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_receive_buffers_on_the_heap() -> None:
    """Pin glibc's mmap threshold above the event loop's receive buffer.

    asyncio receives every request into a fresh 256 KiB buffer (its socket
    transport's ``max_size``), in the event loop's thread.  That is above
    glibc's starting mmap threshold (128 KiB), so each read maps fresh
    pages and faults them in (two minor faults a read, measured on the
    ledger's ``churn_connected``) until the process happens to free a
    larger mmapped chunk, which raises the threshold for good; whether a
    server ever does depends on what else it allocates.  At 1 MiB,
    trimming at 2 MiB (the ratio glibc's own adaptive rule keeps), the
    buffer comes from the heap and its pages stay mapped.  A no-op where
    ``mallopt`` is missing (any C library but glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2 << 20)


def serve_aio(
    service: AllocationService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_pending: int = 1024,
    quiet: bool = False,
) -> None:
    """Blocking entry point of ``python -m repro.cli serve``.

    ``SIGTERM``/``SIGINT`` trigger the graceful stop: in-flight writes
    drain through the solver, the service closes (journal checkpoint
    included) and the listener shuts down.  The process's malloc keeps
    the edge's receive buffers on the heap
    (:func:`_keep_receive_buffers_on_the_heap`).
    """
    import signal

    _keep_receive_buffers_on_the_heap()
    stop = threading.Event()
    with AioServiceServer(service, host, port, max_pending=max_pending, quiet=quiet) as server:
        print(f"repro-amf asyncio service listening on http://{host}:{server.port}")
        print(
            "endpoints: GET /v1/health /v1/stats /v1/metrics /v1/traces /v1/jobs /v1/spec "
            "/v1/allocate | POST /v1/allocate /v1/jobs /v1/capacity | DELETE /v1/jobs/<name> "
            f"(writes shed with 429 beyond {max_pending} pending)"
        )

        def _graceful(signum, frame):  # noqa: ARG001 - signal API
            stop.set()

        try:
            signal.signal(signal.SIGTERM, _graceful)
            signal.signal(signal.SIGINT, _graceful)
        except ValueError:  # pragma: no cover - not the main thread
            pass
        try:
            stop.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    if not quiet:  # a supervisor may have closed the pipe after the banner
        print("\nshutting down: writes drained, service closed")
