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
  explicit backpressure instead of unbounded queueing (the
  ``repro_admission_*`` instruments count both outcomes).  Reads are
  never shed.

The solver thread publishes a fresh view after every batch of work it
processes and every queue flush, *before* resolving the write futures —
so by the time a client sees its 202, the published view already reflects
at least that state; everything in a view (``uptime_seconds`` included)
is as of its publish.  Every route lives under ``/v1/``: any other path
answers the 404 envelope.  A poisoned flush is counted in
``repro_flush_errors_total`` and the loop keeps running.
"""

from __future__ import annotations

import asyncio
import json
import math
import queue
import threading
import time
import traceback
from typing import Any, Sequence
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.obs import instruments
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
from repro.service.state import CapacityChanged, ClusterEvent, JobArrived, JobDeparted, StateError

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
_STOP = object()  # intake sentinel: solver loop exits after the final drain

#: Header-count bound, matching ``http.client``'s cap (per-line size is
#: bounded separately by the StreamReader limit).
_MAX_HEADERS = 100


#: An allocation document's keys: the head names how it was served, the
#: tail is what the allocation itself determines (see ``_rendered``).
_HEAD = ("policy", "cached", "solve_ms", "version", "fingerprint")
_TAIL = ("jobs", "site_usage", "utilization")


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
    built once per answer of the service, not once per view.
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
        self.allocate = allocate
        self.allocate_json = allocate_json
        # the fast path: complete keep-alive responses, written verbatim
        self.health_resp = _render(200, self.health_json)
        self.stats_resp = _render(200, self.stats_json)
        self.allocate_resp = _render(200, self.allocate_json)
        self.pending_names = pending_names


class _Work:
    """One admitted write, en route from the event loop to the solver."""

    __slots__ = ("kind", "payload", "future", "loop")

    def __init__(self, kind: str, payload: Any, future: asyncio.Future, loop: asyncio.AbstractEventLoop):
        self.kind = kind
        self.payload = payload
        self.future = future
        self.loop = loop


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
                asyncio.start_server(self._handle_conn, self.host, self._requested_port)
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        if tasks:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        asyncio.get_running_loop().stop()

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

    def _process(self, item: _Work) -> tuple[int, dict[str, Any] | bytes]:
        service = self.service
        try:
            if item.kind == "submit":
                events, names, status_payload = item.payload
                pending = service.submit_all(events)
                payload = {"pending_events": pending}
                if names is not None:
                    payload["queued_jobs"] = names
                payload.update(status_payload)
                return 202, payload
            if item.kind == "delete":
                name = item.payload
                if not service.has_job(name):
                    return 404, error_envelope("not_found", f"unknown job {name!r}")
                pending = service.submit(JobDeparted(name))
                return 202, {"pending_events": pending}
            if item.kind == "allocate":
                events, names = item.payload
                if events:
                    service.submit_all(events)
                body = self._rendered(service.allocation(fresh=True))[1]
                if names is not None:
                    body = body[:-1] + b', "queued_jobs": ' + json.dumps(names).encode() + b"}"
                return 200, body
            return 500, error_envelope("internal", f"unknown work kind {item.kind!r}")
        except ServiceClosed as exc:
            return 503, error_envelope("unavailable", str(exc))
        except ResourceMismatchError as exc:
            return 400, error_envelope("resource_mismatch", str(exc))
        except UnknownResourceError as exc:
            return 400, error_envelope("unknown_resource", str(exc))
        except (SchemaError, StateError, ValueError) as exc:
            return 400, error_envelope("bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return 500, error_envelope("internal", f"{type(exc).__name__}: {exc}")

    def _resolve(self, item: _Work, result: tuple[int, dict[str, Any]]) -> None:
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
            if item is _STOP:
                continue
            self._resolve(item, (503, error_envelope("unavailable", "service is shutting down")))

    def _rendered(self, served: ServedAllocation) -> tuple[dict[str, Any], bytes]:
        """Render and encode ``served`` — the one time either happens.

        The document is ``head + tail``: five small fields, then everything
        the allocation determines.  The tail is kept in :attr:`_answer`
        under the head a memo replay would carry (``cached``, 0 ms).
        """
        payload = allocation_payload(served)
        tail = json.dumps({key: payload[key] for key in _TAIL})[1:].encode()
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

    def _admit(self, kind: str, payload: Any) -> asyncio.Future | float:
        """Try to enqueue work; returns a future, or the Retry-After on shed."""
        if self._intake.qsize() >= self.max_pending:
            retry = self._retry_after()
            self.shed += 1
            instruments.record_admission_shed(retry)
            return retry
        loop = asyncio.get_running_loop()
        work = _Work(kind, payload, loop.create_future(), loop)
        self._intake.put(work)
        self.admitted += 1
        instruments.record_admission(depth=self._intake.qsize())
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
                try:
                    async with asyncio.timeout(self.idle_timeout):
                        line = await reader.readline()
                except TimeoutError:
                    break  # idle keep-alive expired: drop silently
                if not line or line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = line.decode("latin-1").split(None, 2)
                except ValueError:
                    writer.write(
                        _render(
                            400,
                            json.dumps(error_envelope("bad_request", "malformed request line")).encode(),
                            close=True,
                        )
                    )
                    break
                t0 = time.perf_counter()
                try:
                    # one deadline for the whole request, not one per line:
                    # a client cannot hold the connection by dribbling headers
                    async with asyncio.timeout(self.request_timeout):
                        headers = await self._read_headers(reader)
                        body = await self._read_body(reader, headers)
                except _PayloadTooLarge as exc:
                    self._respond(writer, 413, error_envelope("payload_too_large", str(exc)), close=True, t0=t0)
                    break
                except _HeadersTooLarge as exc:
                    self._respond(writer, 431, error_envelope("headers_too_large", str(exc)), close=True, t0=t0)
                    break
                except (_BadRequest, ValueError) as exc:
                    # a malformed Content-Length, or a header line over the
                    # StreamReader's line-length limit
                    self._respond(writer, 400, error_envelope("bad_request", str(exc)), close=True, t0=t0)
                    break
                except (TimeoutError, asyncio.IncompleteReadError) as exc:
                    self._respond(
                        writer,
                        408,
                        error_envelope("request_timeout", f"timed out reading request: {exc}"),
                        close=True,
                        t0=t0,
                    )
                    break
                close = headers.get("connection", "").lower() == "close"
                raw = await self._dispatch(method.upper(), target, body, close=close, t0=t0)
                writer.write(raw)
                await writer.drain()
                if close or raw.startswith(b"HTTP/1.1 4") or raw.startswith(b"HTTP/1.1 5"):
                    # an error answered with Connection: close (a 503 while
                    # draining) ends the connection; the cheap prefix check
                    # keeps the fast path allocation-free
                    if close or b"Connection: close" in raw[:512]:
                        break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
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
                raise _HeadersTooLarge(f"more than {_MAX_HEADERS} header lines")
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest(
                f"malformed Content-Length {headers.get('content-length')!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length <= 0:
            return b""
        return await reader.readexactly(length)

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        close: bool = False,
        t0: float | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        raw = _render(status, body, close=close)
        self._count(status, t0)
        writer.write(raw)

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

    async def _dispatch(self, method: str, target: str, body: bytes, *, close: bool, t0: float) -> bytes:
        route, query = self._route(target)
        try:
            if route is not None:
                if method == "GET":
                    return await self._get(route, target, query, close, t0)
                if method == "POST":
                    return await self._post(route, target, body, close, t0)
                if method == "DELETE":
                    return await self._delete(route, target, close, t0)
            return self._error(404, "not_found", f"unknown path {target!r}", close, t0)
        except SchemaError as exc:
            return self._error(400, "bad_request", str(exc), close, t0)
        except ServiceClosed as exc:
            return self._error(503, "unavailable", str(exc), True, t0)
        except json.JSONDecodeError as exc:
            return self._error(400, "bad_request", str(exc), close, t0)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return self._error(500, "internal", f"{type(exc).__name__}: {exc}", close, t0)

    def _error(
        self,
        status: int,
        code: str,
        message: str,
        close: bool,
        t0: float,
        detail: Any = None,
        *,
        extra: Sequence[tuple[str, str]] = (),
    ) -> bytes:
        self._count(status, t0)
        body = json.dumps(error_envelope(code, message, detail)).encode()
        return _render(status, body, extra=extra, close=close)

    def _ok(self, payload: dict[str, Any] | bytes, close: bool, t0: float, *, status: int = 200) -> bytes:
        self._count(status, t0)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return _render(status, body, close=close)

    def _view_or_503(self) -> PublishedView:
        view = self.view
        if view is None or (self._closing and self._solver_done):
            raise ServiceClosed("service is shutting down")
        return view

    async def _get(self, route: str, target: str, query: dict[str, str], close: bool, t0: float) -> bytes:
        if self._closing:
            raise ServiceClosed("service is shutting down")
        if route == "/health":
            view = self._view_or_503()
            self._count(200, t0)
            return _render(200, view.health_json, close=True) if close else view.health_resp
        if route == "/stats":
            view = self._view_or_503()
            self._count(200, t0)
            return _render(200, view.stats_json, close=True) if close else view.stats_resp
        if route == "/allocate":
            if parse_fresh(query, default=False):
                return await self._roundtrip("allocate", ((), None), close, t0)
            view = self._view_or_503()
            self._count(200, t0)
            return _render(200, view.allocate_json, close=True) if close else view.allocate_resp
        if route == "/metrics":
            if REGISTRY.enabled:
                instruments.ADMISSION_QUEUE_DEPTH.set(self._intake.qsize())
            self._count(200, t0)
            return _render(
                200,
                REGISTRY.render_prometheus().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
                close=close,
            )
        if route == "/traces":
            self._count(200, t0)
            return _render(200, json.dumps(TRACER.to_chrome()).encode(), close=close)
        if route == "/spec":
            return self._ok(API_SPEC, close, t0)
        if route == "/jobs":
            q = JobsQuery.from_query(query)
            view = self._view_or_503()
            return self._ok(jobs_listing_payload(view.allocate, list(view.pending_names), q), close, t0)
        return self._error(404, "not_found", f"unknown path {target!r}", close, t0)

    async def _post(self, route: str, target: str, body: bytes, close: bool, t0: float) -> bytes:
        if self._closing:
            raise ServiceClosed("service is shutting down")
        data: dict[str, Any] = {}
        if body:
            data = json.loads(body.decode())
            if not isinstance(data, dict):
                raise SchemaError("request body must be a JSON object")
        try:
            if route == "/allocate":
                events, names = self._events_from(AllocateRequest.from_json(data))
                return await self._roundtrip("allocate", (events, names), close, t0)
            if route == "/jobs":
                events, names = self._events_from(AllocateRequest.from_json(data, require_jobs=True))
                return await self._roundtrip("submit", (events, names, {}), close, t0)
            if route == "/capacity":
                spec = CapacitySpec.from_json(data)
                event = CapacityChanged(spec.site, spec.capacity)
                return await self._roundtrip("submit", ((event,), None, {}), close, t0)
        except (StateError, ValueError) as exc:
            # schema/model validation happens on the loop, before admission
            if isinstance(exc, SchemaError):
                raise
            if isinstance(exc, ResourceMismatchError):
                return self._error(400, "resource_mismatch", str(exc), close, t0)
            if isinstance(exc, UnknownResourceError):
                return self._error(400, "unknown_resource", str(exc), close, t0)
            return self._error(400, "bad_request", str(exc), close, t0)
        return self._error(404, "not_found", f"unknown path {target!r}", close, t0)

    async def _delete(self, route: str, target: str, close: bool, t0: float) -> bytes:
        if self._closing:
            raise ServiceClosed("service is shutting down")
        prefix = "/jobs/"
        if route.startswith(prefix) and len(route) > len(prefix):
            name = unquote(route[len(prefix):])
            return await self._roundtrip("delete", name, close, t0)
        return self._error(404, "not_found", f"unknown path {target!r}", close, t0)

    @staticmethod
    def _events_from(request: AllocateRequest) -> tuple[tuple[ClusterEvent, ...], list[str]]:
        jobs = [spec.to_job() for spec in request.jobs]
        return tuple(JobArrived(job) for job in jobs), [job.name for job in jobs]

    async def _roundtrip(self, kind: str, payload: Any, close: bool, t0: float) -> bytes:
        admitted = self._admit(kind, payload)
        if not isinstance(admitted, asyncio.Future):
            retry = admitted
            return self._error(
                429,
                "too_many_requests",
                "solver intake queue is full; retry later",
                close,
                t0,
                detail={"retry_after_seconds": retry},
                extra=[("Retry-After", str(max(1, math.ceil(retry))))],
            )
        status, result = await admitted
        if status >= 400 and "error" in result:
            err = result["error"]
            return self._error(status, err["code"], err["message"], close, t0, detail=err.get("detail"))
        return self._ok(result, close, t0, status=status)


class _PayloadTooLarge(Exception):
    """Content-Length above :data:`MAX_BODY_BYTES` (mapped to 413)."""


class _HeadersTooLarge(Exception):
    """More than :data:`_MAX_HEADERS` header lines (mapped to 431)."""


class _BadRequest(Exception):
    """A request the parser cannot interpret (mapped to 400)."""


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
