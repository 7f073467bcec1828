"""Asyncio HTTP edge: lock-free reads, admission-controlled writes.

The service's one HTTP front-end (``repro.cli serve``).  No read takes
the daemon's lock:

* **One event loop** (own thread) parses HTTP/1.1 and serves every read
  endpoint (``GET /v1/health``, ``/v1/stats``, ``/v1/metrics``,
  ``/v1/jobs``, ``/v1/allocate?fresh=false``) from a
  :class:`PublishedView` — an immutable snapshot with pre-rendered
  response bytes.  Swapping the view is a single attribute assignment
  (atomic under the GIL), so reads never take a lock, never block on the
  solver, and never touch the daemon.
* **One solver thread** is the *only* code that calls the
  :class:`~repro.service.daemon.AllocationService`.  Writes (``POST
  /v1/jobs``, ``/v1/capacity``, ``/v1/allocate``, ``DELETE
  /v1/jobs/<name>``, ``GET /v1/allocate?fresh=true``) travel to it
  through a bounded intake queue and come back as asyncio futures; the
  coalescing queue stays the only path into the state.
* **Admission control**: when the intake queue holds ``max_pending``
  items the edge sheds new writes with ``429 too_many_requests`` and a
  ``Retry-After`` hint derived from the published solve p50 and the
  total backlog — open-loop load above solver capacity degrades into
  explicit backpressure instead of unbounded queueing (``/v1/stats``
  ``admission`` counts both outcomes).  Reads are never shed.

The solver thread publishes a fresh view after every batch of work it
processes and every queue flush, *before* resolving the write futures —
so by the time a client sees its 202, the published view already reflects
at least that state; everything in a view (``uptime_seconds`` included)
is as of its publish, and ``/v1/metrics`` renders the service's counters
from the same view's stats.  Every route lives under ``/v1/``: any other
path answers the 404 envelope.  Every failure — framing, validation, the
solver's — is mapped by ``_error_for`` and rendered by ``_error``; a
request the edge cannot frame is answered 400 and its connection closed.
A poisoned flush is counted in ``repro_flush_errors_total`` and the loop
keeps running.
"""

from __future__ import annotations

import asyncio
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

#: Header-count bound, matching ``http.client``'s cap (per-line size is
#: bounded separately by the StreamReader limit).
_MAX_HEADERS = 100

#: Seconds shutdown waits for closed connections' handlers to end before
#: cancelling the rest.
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
    loop: asyncio.AbstractEventLoop


class _Connection(asyncio.StreamReaderProtocol):
    """One accepted connection's stream protocol, holding its transport in
    ``open_transports`` from accept to loss so shutdown can close it."""

    def __init__(self, handler: Callable, open_transports: set):
        super().__init__(asyncio.StreamReader(), handler)
        self._open = open_transports
        self._tracked: asyncio.BaseTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._tracked = transport
        self._open.add(transport)
        super().connection_made(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._open.discard(self._tracked)
        super().connection_lost(exc)


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
        # encoded document it re-publishes as until that version moves.
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
        self._transports: set[asyncio.BaseTransport] = set()  # accepted and not yet lost
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
                loop.create_server(
                    lambda: _Connection(self._handle_conn, self._transports), self.host, self._requested_port
                )
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
        # Close every connection and let its handler end on the EOF; a
        # connection still being set up has its transport a turn later, so
        # repeat until no task is left.  Cancelling is the last resort: a
        # handler cancelled before its first step never closes its
        # transport.
        current = asyncio.current_task()
        deadline = loop.time() + _SHUTDOWN_GRACE
        while (tasks := [t for t in asyncio.all_tasks() if t is not current]) and loop.time() < deadline:
            for transport in list(self._transports):
                transport.close()
            await asyncio.wait(tasks, timeout=0.01)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for transport in list(self._transports):
            transport.abort()  # still flushing to a client that stopped reading
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
        idle = max(0.002, (self.service.queue.max_delay or 0.01) / 2)
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
            flushed = 0
            try:
                flushed = self.service.flush(force=stop)
            except ServiceClosed:
                pass
            except Exception:  # noqa: BLE001 - the flusher must survive
                instruments.record_flush_error()
                if not self.quiet:
                    traceback.print_exc()
            view = self.view
            if (
                batch
                or flushed
                or view is None
                or view.version != self.service.state.version
                or view.pending != self.service.pending()
            ):
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
        if not self.service.has_job(name):
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
        def _set() -> None:
            if not item.future.done():
                item.future.set_result(result)

        try:
            item.loop.call_soon_threadsafe(_set)
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
        if self._answer is None or self._answer[0] != service.state.version:
            # a due batch flushed (or first boot): the state moved past the
            # last answer, so ask again; otherwise that answer is the view
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
            p50 = max(self.service.queue.max_delay, 1e-3)
        backlog = self._intake.qsize() + (view.pending if view is not None else 0) + 1
        batches = max(1, math.ceil(backlog / self.service.queue.max_batch))
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
        loop = asyncio.get_running_loop()
        work = _Work(call, payload, loop.create_future(), loop)
        self._intake.put(work)
        self.admitted += 1
        if self._solver_done:
            # raced past the closing check after the solver's final drain
            self._drain_closed()
        return work.future

    # ------------------------------------------------------------------
    # HTTP plumbing (event loop)
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                t0 = None
                try:
                    try:
                        async with asyncio.timeout(self.idle_timeout):
                            line = await reader.readline()
                    except TimeoutError:
                        break  # idle keep-alive expired: drop silently
                    if line in (b"", b"\r\n", b"\n"):
                        break
                    t0 = time.perf_counter()
                    parts = line.decode("latin-1").split(None, 2)
                    if len(parts) != 3:
                        raise _HttpError(400, "bad_request", "malformed request line")
                    method, target = parts[0].upper(), parts[1]
                    # one deadline for the whole request, not one per line:
                    # a client cannot hold the connection by dribbling headers
                    async with asyncio.timeout(self.request_timeout):
                        headers = await self._read_headers(reader)
                        body = await self._read_body(reader, headers)
                    route, query = self._route(target)
                except ConnectionError:
                    raise  # the client went away: nobody to answer
                except Exception as exc:  # noqa: BLE001 - no request framed: answer, hang up
                    writer.write(self._fail(exc, True, t0))
                    break
                close = headers.get("connection", "").lower() == "close"
                raw = await self._dispatch(method, route, query, target, body, close=close, t0=t0)
                writer.write(raw)
                await writer.drain()
                # a 503 always closes (see _error); the prefix check keeps
                # the fast path allocation-free
                if close or raw.startswith(b"HTTP/1.1 503 "):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _read_headers(self, reader: asyncio.StreamReader) -> dict[str, str]:
        headers: dict[str, str] = {}
        lines = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            lines += 1
            if lines > _MAX_HEADERS:
                raise _HttpError(431, "headers_too_large", f"more than {_MAX_HEADERS} header lines")
            key, _, value = line.decode("latin-1").partition(":")
            key, value = key.strip().lower(), value.strip()
            if key == "content-length" and headers.get(key, value) != value:
                raise _HttpError(400, "bad_request", f"conflicting Content-Length {headers[key]!r} and {value!r}")
            headers[key] = value

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
        """The body ``Content-Length`` frames, refusing any other framing:
        bytes the edge cannot delimit must never run as the next request."""
        if "transfer-encoding" in headers:
            raise _HttpError(400, "bad_request", "Transfer-Encoding is not supported; send Content-Length")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(400, "bad_request", f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "payload_too_large", f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        return await reader.readexactly(length) if length else b""

    @staticmethod
    def _count(status: int, t0: float | None) -> None:
        if not REGISTRY.enabled:
            return
        instruments.SERVICE_REQUESTS.inc()
        if status >= 400:
            instruments.SERVICE_ERRORS.inc()
        if t0 is not None:
            instruments.SERVICE_REQUEST_SECONDS.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, target: str) -> tuple[str | None, dict[str, str]]:
        """The route under ``/v1`` and the query; ``None`` off ``/v1``."""
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        path = parts.path
        if path == "/v1" or path.startswith("/v1/"):
            return path[3:] or "/", query
        return None, query

    async def _dispatch(
        self, method: str, route: str | None, query: dict[str, str], target: str, body: bytes, *, close: bool, t0: float
    ) -> bytes:
        """Answer one framed request: every route, and every way it fails."""
        try:
            if route is not None and method in ("GET", "POST", "DELETE"):
                if self._closing:
                    raise ServiceClosed("service is shutting down")
                if method == "GET":
                    if route == "/allocate" and parse_fresh(query, default=False):
                        return await self._roundtrip(self._allocate, ((), None), close, t0)
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
                        return await self._roundtrip(self._allocate, self._events_from(request), close, t0)
                    if route == "/jobs":
                        request = AllocateRequest.from_json(data, require_jobs=True)
                        return await self._roundtrip(self._submit, self._events_from(request), close, t0)
                    if route == "/capacity":
                        spec = CapacitySpec.from_json(data)
                        event = CapacityChanged(spec.site, spec.capacity)
                        return await self._roundtrip(self._submit, ((event,), None), close, t0)
                elif route.startswith("/jobs/") and len(route) > len("/jobs/"):
                    return await self._roundtrip(self._depart, unquote(route[len("/jobs/"):]), close, t0)
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

    async def _roundtrip(self, call: Callable[[Any], Any], payload: Any, close: bool, t0: float) -> bytes:
        result = await self._admit(call, payload)
        if isinstance(result, Exception):
            raise result
        status, body = result
        return self._ok(body, close, t0, status=status)


def _error_for(exc: Exception) -> _HttpError:
    """The error answer for ``exc``: the one exception map of every request
    path (an :class:`_HttpError` already is one)."""
    if isinstance(exc, _HttpError):
        return exc
    if isinstance(exc, ServiceClosed):
        return _HttpError(503, "unavailable", str(exc))
    if isinstance(exc, (TimeoutError, asyncio.IncompleteReadError)):
        return _HttpError(408, "request_timeout", f"timed out reading request: {exc}")
    if isinstance(exc, ResourceMismatchError):
        return _HttpError(400, "resource_mismatch", str(exc))
    if isinstance(exc, UnknownResourceError):
        return _HttpError(400, "unknown_resource", str(exc))
    if isinstance(exc, ValueError):
        # SchemaError, StateError, JSONDecodeError, UnicodeDecodeError, a line
        # over the StreamReader's limit, a target urlsplit rejects, ...
        return _HttpError(400, "bad_request", str(exc))
    return _HttpError(500, "internal", f"{type(exc).__name__}: {exc}")


def serve_aio(
    service: AllocationService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_pending: int = 1024,
    request_timeout: float | None = 30.0,
    idle_timeout: float | None = None,
    quiet: bool = False,
) -> None:
    """Blocking entry point of ``python -m repro.cli serve``.

    ``SIGTERM``/``SIGINT`` trigger the graceful stop: in-flight writes
    drain through the solver, the service closes (journal checkpoint
    included) and the listener shuts down.
    """
    import signal

    stop = threading.Event()
    with AioServiceServer(
        service,
        host,
        port,
        max_pending=max_pending,
        request_timeout=request_timeout,
        idle_timeout=idle_timeout,
        quiet=quiet,
    ) as server:
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
    print("\nshutting down: writes drained, service closed")
