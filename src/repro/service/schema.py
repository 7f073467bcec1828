"""Typed wire schema for the v1 control-plane API.

One place defines what travels over HTTP into the service: frozen
dataclasses with validating ``from_json`` constructors, replacing the
ad-hoc dict parsing the front-end grew organically.  Nothing here writes a
request back out; a job's canonical dict is
:func:`repro.model.serialize.job_to_dict`.  The HTTP layer
(:mod:`repro.service.aio`) maps :class:`SchemaError` to a 400 with the
uniform error envelope; nothing schema-shaped is parsed anywhere else.

The machine-readable counterpart is :data:`API_SPEC`, served verbatim at
``GET /v1/spec``: every route, its request schema and its response fields,
plus the versioning/deprecation policy — a client can discover the whole
surface without reading docs/api.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

import numpy as np

from repro.model.job import Job
from repro.model.resources import ResourceMismatchError

__all__ = [
    "MAX_BODY_BYTES",
    "SchemaError",
    "JobSpec",
    "CapacitySpec",
    "AllocateRequest",
    "JobsQuery",
    "error_envelope",
    "allocation_payload",
    "jobs_listing_payload",
    "parse_fresh",
    "API_SPEC",
]

#: Largest accepted request body (HTTP answers 413 above it).
MAX_BODY_BYTES = 4 << 20

#: ``GET /v1/jobs`` pagination bounds (documented in docs/api.md).
DEFAULT_LIMIT = 100
MAX_LIMIT = 1000
JOB_STATUSES = ("active", "pending", "all")


class SchemaError(ValueError):
    """A request body or query string that does not match the v1 schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _number(value: Any, what: str) -> float:
    """A finite float, rejecting bools (JSON ``true`` is not a number)."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be a number")
    out = float(value)
    _require(math.isfinite(out), f"{what} must be finite, got {out}")
    return out


def _site_map(value: Any, what: str) -> dict[str, float]:
    _require(isinstance(value, Mapping), f"{what} must be an object of site -> number")
    return {str(k): _number(v, f"{what}[{k!r}]") for k, v in value.items()}


def _resource_map(value: Any, what: str) -> dict[str, float]:
    """A resource-name → amount object (shape only; semantics live in the
    model's :func:`~repro.model.resources.normalize_resources`)."""
    _require(isinstance(value, Mapping), f"{what} must be an object of resource -> number")
    out: dict[str, float] = {}
    for key, raw in value.items():
        _require(isinstance(key, str) and bool(key), f"{what} keys must be non-empty strings")
        out[key] = _number(raw, f"{what}[{key!r}]")
    return out


def _demand_map(value: Any, what: str, resources: dict[str, float]) -> dict[str, float]:
    """Per-site demand caps: each entry a number (task-rate cap) or a
    resource map, converted to the task rate that vector supports
    (``min_r entry[r] / resources[r]``)."""
    _require(isinstance(value, Mapping), f"{what} must be an object of site -> number | resource map")
    per_task = resources or {"slots": 1.0}
    out: dict[str, float] = {}
    for site, raw in value.items():
        site = str(site)
        if isinstance(raw, Mapping):
            vec = _resource_map(raw, f"{what}[{site!r}]")
            _require(bool(vec), f"{what}[{site!r}] vector must not be empty")
            extra = set(vec) - set(per_task)
            if extra:
                raise ResourceMismatchError(
                    f"{what}[{site!r}] names resources {sorted(extra)} the job does not "
                    f"consume (job resources: {sorted(per_task)})"
                )
            out[site] = min(vec[r] / per_task[r] for r in vec)
        else:
            out[site] = _number(raw, f"{what}[{site!r}]")
    return out


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Wire form of one job (``POST /v1/jobs`` / ``POST /v1/allocate``).

    ``resources`` is the per-task demand vector (resource → amount,
    uniform across sites); omitted means the scalar world's ``{"slots": 1}``.
    ``demand`` entries accept a plain number (aggregate task-rate cap, the
    historical form) or a resource map, normalized at parse time to the
    task rate that vector supports.
    """

    name: str
    workload: dict[str, float]
    demand: dict[str, float] = field(default_factory=dict)
    weight: float = 1.0
    arrival: float = 0.0
    resources: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: Any) -> "JobSpec":
        _require(isinstance(data, Mapping), "job must be a JSON object")
        _require("name" in data and "workload" in data, "job object needs at least 'name' and 'workload'")
        unknown = set(data) - {"name", "workload", "demand", "weight", "arrival", "resources"}
        _require(not unknown, f"job object has unknown fields {sorted(unknown)}")
        name = data["name"]
        _require(isinstance(name, str) and bool(name), "job 'name' must be a non-empty string")
        try:
            resources = _resource_map(data.get("resources", {}), "resources")
            return cls(
                name=name,
                workload=_site_map(data["workload"], "workload"),
                demand=_demand_map(data.get("demand", {}), "demand", resources),
                weight=_number(data.get("weight", 1.0), "weight"),
                arrival=_number(data.get("arrival", 0.0), "arrival"),
                resources=resources,
            )
        except SchemaError as exc:
            raise SchemaError(f"malformed job object: {exc}") from exc

    def to_job(self) -> Job:
        """Build the model object (its validation — positivity, demand only
        on support — still applies and also maps to 400)."""
        return Job(
            self.name,
            self.workload,
            self.demand,
            weight=self.weight,
            arrival=self.arrival,
            resources=self.resources,
        )


@dataclass(frozen=True, slots=True)
class CapacitySpec:
    """Wire form of ``POST /v1/capacity``.

    ``capacity`` is a positive number (scalar site, the historical form)
    or a resource → amount map; a vector update must keep the site's
    resource-name set (the state enforces that, answering
    ``resource_mismatch`` otherwise).
    """

    site: str
    capacity: float | dict[str, float]

    @classmethod
    def from_json(cls, data: Any) -> "CapacitySpec":
        _require(isinstance(data, Mapping), "body must be a JSON object")
        _require("site" in data and "capacity" in data, "body needs 'site' and 'capacity'")
        if isinstance(data["capacity"], Mapping):
            vec = _resource_map(data["capacity"], "capacity")
            _require(bool(vec), "capacity vector must not be empty")
            for res, amount in vec.items():
                _require(amount > 0.0, f"capacity[{res!r}] must be positive and finite, got {amount}")
            return cls(site=str(data["site"]), capacity=vec)
        capacity = _number(data["capacity"], "capacity")
        _require(capacity > 0.0, f"capacity must be positive and finite, got {capacity}")
        return cls(site=str(data["site"]), capacity=capacity)


@dataclass(frozen=True, slots=True)
class AllocateRequest:
    """Wire form of ``POST /v1/allocate``: jobs to queue before solving.

    Accepts ``{"jobs": [job, ...]}``, a bare job object, or an empty body
    (allocate whatever the state holds).
    """

    jobs: tuple[JobSpec, ...] = ()

    @classmethod
    def from_json(cls, data: Any, *, require_jobs: bool = False) -> "AllocateRequest":
        _require(isinstance(data, Mapping), "request body must be a JSON object")
        entries = data.get("jobs")
        if entries is None:
            entries = [data] if "name" in data else []
        _require(isinstance(entries, list), "'jobs' must be a list of job objects")
        if require_jobs:
            _require(bool(entries), "body needs a job object or a 'jobs' list")
        return cls(jobs=tuple(JobSpec.from_json(entry) for entry in entries))


@dataclass(frozen=True, slots=True)
class JobsQuery:
    """Validated query string of ``GET /v1/jobs``."""

    limit: int = DEFAULT_LIMIT
    offset: int = 0
    status: str = "active"

    @classmethod
    def from_query(cls, params: Mapping[str, str]) -> "JobsQuery":
        unknown = set(params) - {"limit", "offset", "status"}
        _require(not unknown, f"unknown query parameters {sorted(unknown)}")

        def _int(key: str, default: int) -> int:
            raw = params.get(key)
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError:
                raise SchemaError(f"'{key}' must be an integer, got {raw!r}") from None

        limit = _int("limit", DEFAULT_LIMIT)
        _require(1 <= limit <= MAX_LIMIT, f"'limit' must be in 1..{MAX_LIMIT}, got {limit}")
        offset = _int("offset", 0)
        _require(offset >= 0, f"'offset' must be non-negative, got {offset}")
        status = params.get("status", "active")
        _require(status in JOB_STATUSES, f"'status' must be one of {list(JOB_STATUSES)}, got {status!r}")
        return cls(limit=limit, offset=offset, status=status)


def error_envelope(code: str, message: str, detail: Any = None) -> dict[str, Any]:
    """The uniform v1 error body: ``{"error": {code, message, detail}}``."""
    return {"error": {"code": code, "message": message, "detail": detail}}


_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off"))


def parse_fresh(params: Mapping[str, str], *, default: bool) -> bool:
    """The ``fresh`` query flag of ``GET /v1/allocate``.

    ``fresh=true`` forces pending deltas to apply before answering (the
    ``POST /v1/allocate`` semantics); ``fresh=false`` serves the
    batch-delayed published state — the lock-free fast path of the asyncio
    edge.
    """
    raw = params.get("fresh")
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise SchemaError(f"'fresh' must be a boolean flag, got {raw!r}")


def allocation_payload(served) -> tuple[dict[str, Any], bytes]:
    """JSON body of a :class:`~repro.service.daemon.ServedAllocation`, as a
    payload dict and its encoded tail.

    The document is a head (``policy``, ``cached``, ``solve_ms``,
    ``version``, ``fingerprint``) and a tail (``jobs``, ``site_usage``,
    ``utilization``).  ``tail`` is the tail fields' encoding without the
    opening brace, so ``json.dumps`` of the head fields with its closing
    brace replaced by ``", "``, then ``tail``, is ``json.dumps(payload)``.
    The HTTP edge (:mod:`repro.service.aio`) renders every allocation it
    serves through this.

    Jobs are rendered per component (``served.components``, else the whole
    allocation as one block), and a component whose memo entry already
    holds its rendered jobs is not rendered again: the tail's ``jobs`` is
    a join, in job order, of each job's encoded ``"name": {...}``.  A
    component rendered anew reuses the encoding of each job whose cells
    are bit-equal to those of the last render of that component key
    (``entry.prior``, see :class:`RenderedBlock`).
    """
    alloc = served.allocation
    cluster = alloc.cluster
    sites = [site.name for site in cluster.sites]
    blocks = served.components
    if blocks is None:
        blocks = ((range(cluster.n_jobs), range(cluster.n_sites), None),)
    rendered: list = [None] * cluster.n_jobs
    for job_idx, site_idx, entry in blocks:
        done = None if entry is None else entry.rendered
        if done is None:
            done = RenderedBlock(alloc, sites, job_idx, site_idx, None if entry is None else entry.prior)
            if entry is not None:
                entry.rendered, entry.prior = done, None
        for i, job in zip(job_idx, done.jobs):
            rendered[i] = job
    site_usage = dict(zip(sites, alloc.site_usage.tolist()))
    utilization = alloc.utilization if cluster.n_jobs else 0.0
    payload = {
        "policy": alloc.policy,
        "cached": served.cached,
        "solve_ms": 1e3 * served.seconds,
        "version": served.version,
        "fingerprint": served.fingerprint,
        "jobs": {name: entry for name, entry, _ in rendered},
        "site_usage": site_usage,
        "utilization": utilization,
    }
    jobs_json = ", ".join(text for _, _, text in rendered)
    tail = f'"jobs": {{{jobs_json}}}, "site_usage": {json.dumps(site_usage)}, '
    tail += f'"utilization": {json.dumps(utilization)}}}'
    return payload, tail.encode()


class RenderedBlock:
    """One block of an allocation as rendered: its site names, per job the
    aggregate and cells it encodes (``cells``, ``[aggregate, *shares]``),
    its row by job name (``index``), and ``jobs``, each job's ``(name,
    entry, '"name": entry' encoded)``.

    ``prior`` is an earlier render of the same component key, or ``None``.
    A job whose aggregate and cells equal its row there, over the same
    sites, keeps that row's encoding: the text is a function of the name,
    the site names, the positive cells and the aggregate alone (a zero
    aggregate must also keep its sign, which ``repr`` shows).  The rest are
    encoded at O(their positive cells): one ``nonzero`` walked in row-major
    order, which is each job's site order.  The aggregate is the job's
    full-width row sum (``alloc.aggregates``): a sum over the block's
    columns alone can differ from it in the last bit.  The text is what
    ``json.dumps`` writes for this one shape — names through its ASCII
    string encoder, floats (all finite) through ``float.__repr__`` —
    without its per-call cost, which a per-job ``json.dumps`` pays twice.
    """

    __slots__ = ("sites", "cells", "index", "jobs")

    def __init__(self, alloc, sites: list[str], job_idx, site_idx, prior: "RenderedBlock | None" = None):
        rows, cols = list(job_idx), list(site_idx)
        values = np.empty((len(rows), 1 + len(cols)))
        values[:, 0] = alloc.aggregates[rows]
        values[:, 1:] = alloc.matrix[np.ix_(rows, cols)]
        self.cells = cells = values.tolist()
        self.sites = block_sites = [sites[j] for j in cols]
        jobs = alloc.cluster.jobs
        self.index = index = {jobs[i].name: k for k, i in enumerate(rows)}
        out: list = [None] * len(rows)
        if prior is not None and prior.sites == block_sites:
            for name, k in index.items():
                was = prior.index.get(name)
                if was is not None:
                    row, old = cells[k], prior.cells[was]
                    if row == old and (row[0] or math.copysign(1.0, row[0]) == math.copysign(1.0, old[0])):
                        out[k] = prior.jobs[was]
        shares: list[list[int]] = [[] for _ in rows]
        hit_rows, hit_cols = np.nonzero(values[:, 1:] > 0.0)
        for k, j in zip(hit_rows.tolist(), hit_cols.tolist()):
            shares[k].append(j)
        quoted = [_quote(site) for site in block_sites]
        for (name, k), row in zip(index.items(), shares):
            if out[k] is not None:
                continue
            aggregate, cell = cells[k][0], cells[k]
            entry = {"aggregate": aggregate, "shares": {block_sites[j]: cell[j + 1] for j in row}}
            text = ", ".join(f"{quoted[j]}: {cell[j + 1]!r}" for j in row)
            out[k] = (name, entry, f'{_quote(name)}: {{"aggregate": {aggregate!r}, "shares": {{{text}}}}}')
        self.jobs = out


def jobs_listing_payload(
    payload: dict[str, Any], pending_names: list[str], q: JobsQuery
) -> dict[str, Any]:
    """``GET /v1/jobs``: paginate + status-filter an allocation payload.

    ``payload`` is :func:`allocation_payload`'s dict and is left untouched
    (the asyncio edge hands in the published view's own copy): only the
    requested page's entries are built, as new dicts.
    """
    active = payload["jobs"]
    names = list(active) if q.status in ("active", "all") else []
    if q.status in ("pending", "all"):
        names.extend(name for name in pending_names if name not in active)
    page = {
        name: {**active[name], "status": "active"} if name in active else {"status": "pending"}
        for name in names[q.offset : q.offset + q.limit]
    }
    return {
        **payload,
        "jobs": page,
        "pagination": {
            "limit": q.limit,
            "offset": q.offset,
            "total": len(names),
            "returned": len(page),
            "status": q.status,
        },
    }


_JOB_FIELDS = {
    "name": "string (required, non-empty, unique)",
    "workload": "object site -> finite number >= 0 (required, >= 1 positive entry)",
    "demand": (
        "object site -> finite number >= 0 | object resource -> finite number "
        "(optional; only on workload sites; a resource map converts to the "
        "task rate it supports: min_r demand[r] / resources[r])"
    ),
    "weight": "finite number > 0 (optional, default 1.0)",
    "arrival": "finite number >= 0 (optional, default 0.0)",
    "resources": (
        "object resource -> finite number > 0 (optional; per-task demand vector, "
        "uniform across sites; omitted = {'slots': 1})"
    ),
}

_ALLOCATION_FIELDS = {
    "policy": "string — solver that produced the matrix",
    "cached": "bool — replayed from the component memo: no component was solved",
    "solve_ms": "number — solve wall time (0 on a cache hit)",
    "version": "int — state version the allocation reflects",
    "fingerprint": "string — canonical cluster fingerprint",
    "jobs": "object name -> {aggregate, shares: {site: number}}",
    "site_usage": "object site -> allocated capacity",
    "utilization": "number — total usage / total capacity",
}

#: Served verbatim at ``GET /v1/spec``.
API_SPEC: dict[str, Any] = {
    "api_version": "v1",
    # Bumped to 2 with the resource-vector forms of JobSpec.resources,
    # vector demand entries and CapacitySpec.capacity maps (all additive:
    # every schema_version-1 body is still accepted unchanged).
    "schema_version": 2,
    "versioning": {
        "policy": "All endpoints live under /v1/. Breaking changes only ever ship as /v2/.",
    },
    "error_envelope": {
        "shape": {"error": {"code": "string", "message": "string", "detail": "any | null"}},
        "codes": {
            "bad_request": (
                "400 — malformed JSON, schema violation, non-finite number; or a request the edge "
                "cannot frame (malformed request line or target, Transfer-Encoding, a Content-Length "
                "that is not one non-negative decimal), answered with Connection: close"
            ),
            "resource_mismatch": (
                "400 — resource-name sets disagree: a vector capacity update that adds or "
                "drops a site resource, a scalar update on a vector site, or a demand map "
                "naming resources the job does not consume"
            ),
            "unknown_resource": "400 — a job demands a resource no site offers",
            "not_found": "404 — unknown path or unknown job name",
            "request_timeout": "408 — body read stalled or shorter than Content-Length",
            "payload_too_large": "413 — request body above the size limit",
            "too_many_requests": (
                "429 — admission control shed the request (solver intake queue full); "
                "the Retry-After header and detail.retry_after_seconds say when to retry "
                "(derived from recent solve p50 and queue depth)"
            ),
            "internal": "500 — unexpected server fault (class name in message)",
            "unavailable": "503 — service draining for shutdown; retry against a fresh instance",
        },
    },
    "pagination": {
        "limit": {"default": DEFAULT_LIMIT, "min": 1, "max": MAX_LIMIT},
        "offset": {"default": 0, "min": 0},
        "status": {"default": "active", "values": list(JOB_STATUSES)},
    },
    "schemas": {
        "JobSpec": _JOB_FIELDS,
        "CapacitySpec": {
            "site": "string (required)",
            "capacity": (
                "finite number > 0 | object resource -> finite number > 0 (required; "
                "a vector must keep the site's existing resource-name set)"
            ),
        },
        "Allocation": _ALLOCATION_FIELDS,
    },
    "routes": [
        {
            "method": "GET",
            "path": "/v1/health",
            "response": ["status", "version", "jobs", "sites", "pending_events"],
        },
        {
            "method": "GET",
            "path": "/v1/stats",
            "response": [
                "uptime_seconds",
                "state",
                "solver",
                "incremental",
                "cache",
                "batching",
                "sharding",
                "resilience",
            ],
        },
        {
            "method": "GET",
            "path": "/v1/metrics",
            "response": ["(Prometheus 0.0.4 text exposition)"],
        },
        {
            "method": "GET",
            "path": "/v1/traces",
            "response": ["traceEvents"],
        },
        {
            "method": "GET",
            "path": "/v1/jobs",
            "query": ["limit", "offset", "status"],
            "response": [*_ALLOCATION_FIELDS, "pagination"],
        },
        {
            "method": "POST",
            "path": "/v1/jobs",
            "request": "JobSpec | {jobs: [JobSpec, ...]}",
            "response": ["queued_jobs", "pending_events"],
        },
        {
            "method": "DELETE",
            "path": "/v1/jobs/<name>",
            "response": ["pending_events"],
        },
        {
            "method": "POST",
            "path": "/v1/capacity",
            "request": "CapacitySpec",
            "response": ["pending_events"],
        },
        {
            "method": "POST",
            "path": "/v1/allocate",
            "request": "{} | JobSpec | {jobs: [JobSpec, ...]}",
            "response": [*_ALLOCATION_FIELDS, "queued_jobs"],
        },
        {
            "method": "GET",
            "path": "/v1/allocate",
            "query": ["fresh"],
            "response": [*_ALLOCATION_FIELDS],
        },
        {
            "method": "GET",
            "path": "/v1/spec",
            "response": [
                "api_version",
                "schema_version",
                "versioning",
                "error_envelope",
                "pagination",
                "schemas",
                "routes",
            ],
        },
    ],
}
