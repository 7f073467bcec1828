"""JSON (de)serialization of clusters, jobs and allocations.

A downstream user needs to persist instances and results: experiment
configs live in version control, allocations get shipped to dashboards.
The format is a plain JSON object (versioned with ``"format"``), stable
across library versions:

.. code-block:: json

    {
      "format": "repro-cluster-v1",
      "sites": [{"name": "east", "capacity": 10.0}],
      "jobs": [
        {"name": "j0", "workload": {"east": 5.0},
         "demand": {"east": 1.0}, "weight": 1.0, "arrival": 0.0}
      ]
    }

``inf`` demand caps are simply omitted (absent = uncapped), so the files
stay valid strict JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro._util import require
from repro.core.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site

CLUSTER_FORMAT = "repro-cluster-v1"
ALLOCATION_FORMAT = "repro-allocation-v1"


# ----------------------------------------------------------------------
# Job (the one job encoding: clusters and the service journal both use it)
# ----------------------------------------------------------------------


def job_to_dict(job: Job) -> dict[str, Any]:
    """Serialize a job; fields at their defaults are omitted."""
    out: dict[str, Any] = {"name": job.name, "workload": dict(job.workload)}
    if job.demand:
        out["demand"] = dict(job.demand)
    if job.weight != 1.0:
        out["weight"] = job.weight
    if job.arrival != 0.0:
        out["arrival"] = job.arrival
    if job.resources:
        out["resources"] = dict(job.resources)
    return out


def job_from_dict(data: dict[str, Any]) -> Job:
    """Rebuild a job from :func:`job_to_dict` output (exact float round-trip)."""
    return Job(
        data["name"],
        {k: float(v) for k, v in data["workload"].items()},
        {k: float(v) for k, v in data.get("demand", {}).items()},
        weight=float(data.get("weight", 1.0)),
        arrival=float(data.get("arrival", 0.0)),
        resources={k: float(v) for k, v in data.get("resources", {}).items()},
    )


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------


def cluster_to_dict(cluster: Cluster) -> dict[str, Any]:
    """Serialize a cluster to a JSON-compatible dict."""
    return {
        "format": CLUSTER_FORMAT,
        "sites": [
            {
                "name": s.name,
                # Vector capacities serialize as a map; canonical scalar
                # sites keep the historical number (byte-stable wire form).
                "capacity": dict(s.resources) if s.resources is not None else s.capacity,
                **({"tags": list(s.tags)} if s.tags else {}),
            }
            for s in cluster.sites
        ],
        "jobs": [job_to_dict(j) for j in cluster.jobs],
    }


def cluster_from_dict(data: dict[str, Any]) -> Cluster:
    """Rebuild a cluster from :func:`cluster_to_dict` output."""
    require(data.get("format") == CLUSTER_FORMAT, f"unsupported cluster format {data.get('format')!r}")
    sites = [
        Site(
            s["name"],
            {k: float(v) for k, v in s["capacity"].items()}
            if isinstance(s["capacity"], dict)
            else float(s["capacity"]),
            tuple(s.get("tags", ())),
        )
        for s in data["sites"]
    ]
    return Cluster(sites, [job_from_dict(j) for j in data["jobs"]])


def save_cluster(cluster: Cluster, path: str | Path) -> None:
    """Write a cluster to a JSON file."""
    Path(path).write_text(json.dumps(cluster_to_dict(cluster), indent=2))


def load_cluster(path: str | Path) -> Cluster:
    """Read a cluster from a JSON file."""
    return cluster_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------


def allocation_to_dict(alloc: Allocation) -> dict[str, Any]:
    """Serialize an allocation (with its cluster) to a JSON-compatible dict."""
    return {
        "format": ALLOCATION_FORMAT,
        "policy": alloc.policy,
        "cluster": cluster_to_dict(alloc.cluster),
        "matrix": [[float(x) for x in row] for row in alloc.matrix],
    }


def save_allocation(alloc: Allocation, path: str | Path) -> None:
    """Write an allocation (with its cluster) to a JSON file."""
    Path(path).write_text(json.dumps(allocation_to_dict(alloc), indent=2))
