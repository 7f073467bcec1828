"""Reference renderers: the dense, whole-document code the service used
before the renderer walked ``nonzero`` and the jobs listing paged before
copying.  Tests compare ``json.dumps`` of the served functions against
these byte for byte; nothing under ``src/`` imports this module."""

from __future__ import annotations

from typing import Any

from repro.service.schema import JobsQuery


def allocation_payload(served) -> dict[str, Any]:
    """One numpy scalar read per cell of the ``(n, m)`` matrix, twice."""
    alloc = served.allocation
    cluster = alloc.cluster
    return {
        "policy": alloc.policy,
        "cached": served.cached,
        "solve_ms": 1e3 * served.seconds,
        "version": served.version,
        "fingerprint": served.fingerprint,
        "jobs": {
            job.name: {
                "aggregate": float(alloc.aggregates[i]),
                "shares": {
                    site.name: float(alloc.matrix[i, j])
                    for j, site in enumerate(cluster.sites)
                    if alloc.matrix[i, j] > 0.0
                },
            }
            for i, job in enumerate(cluster.jobs)
        },
        "site_usage": {s.name: float(u) for s, u in zip(cluster.sites, alloc.site_usage)},
        "utilization": alloc.utilization if cluster.n_jobs else 0.0,
    }


def jobs_listing_payload(
    payload: dict[str, Any], pending_names: list[str], q: JobsQuery
) -> dict[str, Any]:
    """Stamps every entry, then slices; mutates ``payload`` in place, so
    callers hand in a private deep copy."""
    active = payload["jobs"]
    for entry in active.values():
        entry["status"] = "active"
    items: list[tuple[str, dict[str, Any]]] = []
    if q.status in ("active", "all"):
        items.extend(active.items())
    if q.status in ("pending", "all"):
        items.extend((name, {"status": "pending"}) for name in pending_names if name not in active)
    page = items[q.offset : q.offset + q.limit]
    payload["jobs"] = dict(page)
    payload["pagination"] = {
        "limit": q.limit,
        "offset": q.offset,
        "total": len(items),
        "returned": len(page),
        "status": q.status,
    }
    return payload
