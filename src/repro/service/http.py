"""Stdlib HTTP/JSON front-end for the allocation daemon — the v1 API.

No web framework — ``http.server.ThreadingHTTPServer`` plus ``json`` is
all the service needs, which keeps the dependency footprint identical to
the rest of the library.  All endpoints live under ``/v1/``; the
unversioned paths of the original API still answer identically but are
*deprecated aliases*: every response through one carries
``Deprecation: true`` and a ``Link: </v1/...>; rel="successor-version"``
header.  Endpoints (all JSON):

``GET /v1/health``
    Liveness: library version, state shape, pending events.
``GET /v1/stats``
    Full counter dump (solver timings, cache, batching, sharding,
    resilience).
``GET /v1/metrics``
    Prometheus text exposition of the :mod:`repro.obs` registry.
``GET /v1/traces``
    Recent trace spans as Chrome-trace JSON (load in ``chrome://tracing``).
``GET /v1/spec``
    Machine-readable API description (routes, schemas, error codes —
    :data:`repro.service.schema.API_SPEC`).  v1-only: no legacy alias.
``GET /v1/jobs``
    Jobs with their aggregate allocations.  Paginated: ``limit`` (default
    100, max 1000), ``offset`` (default 0) and a ``status`` filter
    (``active`` jobs in the state — the default, ``pending`` arrivals
    still in the queue, or ``all``).
``POST /v1/jobs``
    Body = one job object (``{"name", "workload", "demand"?, "weight"?}``)
    or ``{"jobs": [...]}``.  Queues arrivals; returns pending count.
``DELETE /v1/jobs/<name>``
    Queues a departure (the name is URL-decoded; unknown jobs are 404).
``POST /v1/capacity``
    Body ``{"site": str, "capacity": float}``.  Queues a capacity change.
``POST /v1/allocate``
    Optional body with ``"jobs"`` to queue first; forces the pending batch
    to apply and returns the (possibly cached) allocation with solver
    provenance.
``GET /v1/allocate``
    The read-side allocate: ``?fresh=false`` (default) answers from the
    batch-delayed state, ``?fresh=true`` forces the flush first — the same
    split :mod:`repro.service.aio` serves lock-free from published
    snapshots.

Request parsing is owned by the typed schema layer
(:mod:`repro.service.schema`); every error path answers the uniform
envelope ``{"error": {"code", "message", "detail"}}``: ``bad_request``
(400) for malformed JSON, schema violations or non-finite numbers,
``not_found`` (404) for unknown paths and job names,
``request_timeout`` (408) when a client stalls mid-body or the body is
shorter than its Content-Length (each connection carries a socket
timeout — ``request_timeout`` on :class:`ServiceServer` — so a dribbling
client cannot pin a handler thread forever), ``payload_too_large`` (413)
above :data:`MAX_BODY_BYTES`, ``internal`` (500) for anything else, and
``unavailable`` (503) once the daemon is draining for shutdown.  The full
table lives in docs/api.md.

A daemon thread flushes the coalescing queue every ``max_delay``, so
arrivals POSTed without a follow-up ``/v1/allocate`` still land in the
state.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.model.job import Job
from repro.obs import instruments
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.daemon import AllocationService, ServiceClosed
from repro.service.schema import (
    API_SPEC,
    MAX_BODY_BYTES as _MAX_BODY_BYTES,
    AllocateRequest,
    CapacitySpec,
    JobsQuery,
    JobSpec,
    SchemaError,
    allocation_payload,
    error_envelope,
    jobs_listing_payload,
    parse_fresh,
)
from repro.model.resources import ResourceMismatchError, UnknownResourceError
from repro.service.state import CapacityChanged, JobArrived, JobDeparted, StateError

__all__ = ["job_from_dict", "ServiceServer", "serve", "MAX_BODY_BYTES"]

#: Largest accepted request body; anything above is refused with 413
#: before a byte is read (a liveness guard, not a protocol limit).  The
#: value lives in :mod:`repro.service.schema` so the distributed wire
#: protocol shares the same ceiling; re-exported here for compatibility.
MAX_BODY_BYTES = _MAX_BODY_BYTES

#: Legacy (unversioned) paths that alias a ``/v1`` route and therefore
#: answer with the deprecation headers.  ``/v1/spec`` has no alias.
_ALIASED = frozenset({"/health", "/stats", "/metrics", "/traces", "/jobs", "/allocate", "/capacity"})


class _PayloadTooLarge(Exception):
    """Content-Length above :data:`MAX_BODY_BYTES` (mapped to 413)."""


class _RequestTimeout(Exception):
    """A body read that stalled or came up short (mapped to 408)."""


def job_from_dict(data: dict[str, Any]) -> Job:
    """Build a :class:`Job` from the wire format (same field names as
    :mod:`repro.model.serialize`).

    Thin wrapper over :meth:`repro.service.schema.JobSpec.from_json`, kept
    as the stable library entry point.  Malformed shapes raise
    :class:`~repro.service.schema.SchemaError` and invalid values
    :class:`ValueError` — the HTTP layer maps both to 400.
    """
    return JobSpec.from_json(data).to_job()


# The payload renderer moved to the schema layer so both HTTP edges share
# it (bit-identical bodies whichever edge answers); kept under its old
# private name for anything that imported it from here.
_allocation_payload = allocation_payload


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-amf"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two unbuffered writes; on a keep-alive
    # socket Nagle holds the second until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    @property
    def service(self) -> AllocationService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        # Per-connection socket timeout (StreamRequestHandler honours
        # self.timeout in setup): a client that stalls mid-request gets a
        # 408 instead of pinning this handler thread indefinitely.
        self.timeout = getattr(self.server, "request_timeout", None)
        super().setup()

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover - noise control
        if not getattr(self.server, "quiet", False):
            super().log_message(fmt, *args)

    # -- plumbing ------------------------------------------------------
    def _route(self) -> tuple[str, dict[str, str]]:
        """Split the request into a version-free route plus query params.

        ``/v1/...`` is the canonical surface; a known unversioned path is
        the deprecated alias of the same route and marks the response for
        the ``Deprecation``/``Link`` header pair.
        """
        parts = urlsplit(self.path)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        path = parts.path
        if path == "/v1" or path.startswith("/v1/"):
            self._versioned = True
            return path[3:] or "/", query
        if path in _ALIASED or path.startswith("/jobs/"):
            self._deprecation = f"/v1{path}"
        return path, query

    def _send_raw(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        deprecation = getattr(self, "_deprecation", None)
        if deprecation:
            self.send_header("Deprecation", "true")
            self.send_header("Link", f'<{deprecation}>; rel="successor-version"')
        if self.close_connection:
            # e.g. after a 413 whose body was never read: tell the client
            # instead of silently dropping the keep-alive socket
            self.send_header("Connection", "close")
        self.end_headers()
        if REGISTRY.enabled:
            # before the body flush, so the counters are visible to any
            # request a client issues after reading this response
            instruments.SERVICE_REQUESTS.inc()
            if status >= 400:
                instruments.SERVICE_ERRORS.inc()
            t0 = getattr(self, "_t0", None)
            if t0 is not None:
                instruments.SERVICE_REQUEST_SECONDS.observe(time.perf_counter() - t0)
        self.wfile.write(body)

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        self._send_raw(status, json.dumps(payload).encode(), "application/json")

    def _body(self) -> dict[str, Any]:
        # A bad Content-Length raises ValueError here -> 400.
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length <= 0:
            return {}
        try:
            raw = self.rfile.read(length)
        except TimeoutError as exc:
            raise _RequestTimeout(f"timed out reading request body: {exc}") from None
        if len(raw) < length:
            # The peer closed (or stalled past the socket timeout) before
            # delivering its declared Content-Length.
            raise _RequestTimeout(
                f"incomplete request body ({len(raw)} of {length} declared bytes)"
            )
        data = json.loads(raw.decode())
        if not isinstance(data, dict):
            raise SchemaError("request body must be a JSON object")
        return data

    def _fail(self, status: int, code: str, message: str, detail: Any = None) -> None:
        self._send(status, error_envelope(code, message, detail))

    def _begin(self) -> None:
        self._t0 = time.perf_counter()
        self._deprecation: str | None = None
        self._versioned = False

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._begin()
        try:
            route, query = self._route()
            if route == "/metrics":
                if REGISTRY.enabled:
                    instruments.QUEUE_DEPTH.set(self.service.pending())
                self._send_raw(
                    200,
                    REGISTRY.render_prometheus().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/traces":
                self._send_raw(200, json.dumps(TRACER.to_chrome()).encode(), "application/json")
            elif route == "/health":
                import repro

                stats = self.service.stats()
                self._send(
                    200,
                    {
                        "status": "ok",
                        "version": repro.__version__,
                        "jobs": stats["state"]["jobs"],
                        "sites": stats["state"]["sites"],
                        "pending_events": stats["state"]["pending_events"],
                    },
                )
            elif route == "/stats":
                self._send(200, self.service.stats())
            elif route == "/spec" and self._versioned:
                self._send(200, API_SPEC)
            elif route == "/allocate":
                # The read-side allocate: fresh=false (default) serves the
                # batch-delayed state, fresh=true forces the flush — the
                # same split the asyncio edge serves lock-free.
                served = self.service.allocation(fresh=parse_fresh(query, default=False))
                self._send(200, _allocation_payload(served))
            elif route == "/jobs":
                self._send(200, self._jobs_listing(JobsQuery.from_query(query)))
            else:
                self._fail(404, "not_found", f"unknown path {self.path!r}")
        except SchemaError as exc:
            self._fail(400, "bad_request", str(exc))
        except ServiceClosed as exc:
            self.close_connection = True
            self._fail(503, "unavailable", str(exc))
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._fail(500, "internal", f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        self._begin()
        try:
            route, _ = self._route()
            body = self._body()
            if route == "/allocate":
                queued = self._queue_jobs(AllocateRequest.from_json(body))
                served = self.service.allocation(fresh=True)
                payload = _allocation_payload(served)
                payload["queued_jobs"] = queued
                self._send(200, payload)
            elif route == "/jobs":
                queued = self._queue_jobs(AllocateRequest.from_json(body, require_jobs=True))
                self._send(202, {"queued_jobs": queued, "pending_events": self.service.pending()})
            elif route == "/capacity":
                # Validated here, not at flush time: the queue applies
                # batches asynchronously, so a bad value rejected there
                # would only surface as a silent rejection-log entry.
                # json.loads happily parses the Infinity/NaN literals.
                spec = CapacitySpec.from_json(body)
                pending = self.service.submit(CapacityChanged(spec.site, spec.capacity))
                self._send(202, {"pending_events": pending})
            else:
                self._fail(404, "not_found", f"unknown path {self.path!r}")
        except _PayloadTooLarge as exc:
            # The oversized body was never read off the socket; close the
            # connection rather than let keep-alive parse it as a request.
            self.close_connection = True
            self._fail(413, "payload_too_large", str(exc))
        except _RequestTimeout as exc:
            # The stream is mid-body and unsynchronizable; answer once on
            # a connection marked for close.
            self.close_connection = True
            self._fail(408, "request_timeout", str(exc))
        except ServiceClosed as exc:
            self.close_connection = True
            self._fail(503, "unavailable", str(exc))
        # Resource-shape violations carry their own codes (before the
        # generic ValueError arm, which would claim them as bad_request).
        except ResourceMismatchError as exc:
            self._fail(400, "resource_mismatch", str(exc))
        except UnknownResourceError as exc:
            self._fail(400, "unknown_resource", str(exc))
        except (SchemaError, StateError, ValueError, json.JSONDecodeError) as exc:
            self._fail(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001
            self._fail(500, "internal", f"{type(exc).__name__}: {exc}")

    def do_DELETE(self) -> None:  # noqa: N802
        self._begin()
        try:
            route, _ = self._route()
            prefix = "/jobs/"
            if route.startswith(prefix) and len(route) > len(prefix):
                # The path arrives percent-encoded ("map%20reduce"); decode
                # before touching state or names with spaces are undeletable.
                name = unquote(route[len(prefix):])
                if not self.service.has_job(name):
                    self._fail(404, "not_found", f"unknown job {name!r}")
                    return
                pending = self.service.submit(JobDeparted(name))
                self._send(202, {"pending_events": pending})
            else:
                self._fail(404, "not_found", f"unknown path {self.path!r}")
        except ServiceClosed as exc:
            self.close_connection = True
            self._fail(503, "unavailable", str(exc))
        except ResourceMismatchError as exc:
            self._fail(400, "resource_mismatch", str(exc))
        except UnknownResourceError as exc:
            self._fail(400, "unknown_resource", str(exc))
        except (SchemaError, StateError, ValueError) as exc:
            self._fail(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001
            self._fail(500, "internal", f"{type(exc).__name__}: {exc}")

    # -- helpers -------------------------------------------------------
    def _jobs_listing(self, q: JobsQuery) -> dict[str, Any]:
        """``GET /v1/jobs``: the allocation payload with a paginated,
        status-filtered ``jobs`` mapping (see :class:`JobsQuery`)."""
        served = self.service.allocation(fresh=False)
        payload = _allocation_payload(served)
        return jobs_listing_payload(payload, self.service.pending_job_names(), q)

    def _queue_jobs(self, request: AllocateRequest) -> list[str]:
        jobs = [spec.to_job() for spec in request.jobs]
        for job in jobs:
            self.service.submit(JobArrived(job))
        return [job.name for job in jobs]


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`AllocationService`.

    Runs a background *flusher* thread so batches apply within
    ``max_delay`` even when no request forces them.  Use as a context
    manager or call :meth:`shutdown` (both stop the flusher).
    ``request_timeout`` is the per-connection socket budget: a client
    stalled that long mid-request is answered 408 (mid-body) or dropped
    (idle between requests).
    """

    daemon_threads = True

    def __init__(
        self,
        service: AllocationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quiet: bool = True,
        request_timeout: float | None = 30.0,
    ):
        super().__init__((host, port), _Handler)
        self.service = service
        self.quiet = quiet
        self.request_timeout = request_timeout
        self._stop = threading.Event()
        self._flusher = threading.Thread(target=self._flush_loop, name="amf-flusher", daemon=True)
        self._flusher.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def _flush_loop(self) -> None:
        idle = max(0.01, self.service.queue.max_delay / 2) if self.service.queue.max_delay else 0.01
        while not self._stop.is_set():
            wait = self.service.seconds_until_due()
            if wait is None:
                self._stop.wait(idle)
                continue
            if wait > 0.0:
                self._stop.wait(min(wait, idle))
            try:
                self.service.flush()
            except ServiceClosed:
                # racing a shutdown: the close() path drained the queue
                return
            except Exception as exc:  # noqa: BLE001 - the flusher must survive
                # One poisoned batch (solver fault, state bug) must not
                # silently kill the flusher and strand every future batch:
                # count it, say so, keep flushing.  The failed drain's
                # events are lost to the state but remain in the journal
                # and the rejection accounting of the next stats() read.
                instruments.record_flush_error()
                if not self.quiet:
                    import traceback

                    traceback.print_exc()
                self._stop.wait(idle)

    def shutdown(self) -> None:  # pragma: no cover - exercised via context exit
        self._stop.set()
        super().shutdown()

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        super().__exit__(*exc_info)


def serve(
    service: AllocationService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    quiet: bool = False,
    request_timeout: float | None = 30.0,
) -> None:
    """Blocking entry point used by ``python -m repro.cli serve``.

    ``SIGTERM``/``SIGINT`` trigger a graceful stop: the listener closes
    (no new requests), the pending batch drains into the state — flushing
    the touched-sites journal — and a distributed backend's worker pool is
    disconnected (see :meth:`AllocationService.close`).
    """
    with ServiceServer(service, host, port, quiet=quiet, request_timeout=request_timeout) as server:
        print(f"repro-amf service listening on http://{host}:{server.port}")
        print(
            "endpoints: GET /v1/health /v1/stats /v1/metrics /v1/traces /v1/jobs /v1/spec | "
            "POST /v1/allocate /v1/jobs /v1/capacity | DELETE /v1/jobs/<name> "
            "(unversioned aliases deprecated)"
        )

        def _graceful(signum, frame):  # noqa: ARG001 - signal API
            # shutdown() joins serve_forever's loop, so it must run off
            # the main thread (which is inside that loop right now).
            threading.Thread(target=server.shutdown, name="amf-shutdown", daemon=True).start()

        try:
            signal.signal(signal.SIGTERM, _graceful)
            signal.signal(signal.SIGINT, _graceful)
        except ValueError:  # pragma: no cover - not the main thread
            pass
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            service.close()
            print("\nshutting down: batch drained, state journal flushed")
