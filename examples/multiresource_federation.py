"""Multi-resource federation: AMF generalized to (cpu, mem) vectors.

The future-work extension on the ordinary `Site`/`Job`/`Cluster` model:
three datacenters with different cpu/mem balances (`Site` capacity
vectors), jobs with heterogeneous per-task demand vectors
(`Job.resources`: cpu-heavy model training vs memory-heavy caching) and
per-site task bounds (`Job.demand`).  Compares per-site DRF (Ghodsi et
al., run independently per site) against AMRF (`solve_amf` on a vector
cluster: max-min fairness on aggregate dominant shares) and prints where
each job's dominant share lands.

Run:  python examples/multiresource_federation.py
"""

from repro.analysis.tables import render_table
from repro.core.amf import solve_amf
from repro.metrics.fairness import jain_index, min_max_ratio
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site
from repro.multiresource import solve_persite_drf


def task_job(name: str, resources: dict[str, float], tasks: dict[str, float]) -> Job:
    """A job with `tasks[site]` tasks pinned at each site, all runnable at once."""
    return Job(name, tasks, demand=tasks, resources=resources)


def main() -> None:
    sites = [
        Site("compute-dc", {"cpu": 64.0, "mem": 128.0}),  # cpu-rich
        Site("memory-dc", {"cpu": 16.0, "mem": 512.0}),  # mem-rich
        Site("edge", {"cpu": 8.0, "mem": 32.0}),  # small
    ]
    jobs = [
        # cpu-heavy training pinned mostly to the compute DC
        task_job("train-a", {"cpu": 4.0, "mem": 8.0}, {"compute-dc": 30.0, "edge": 4.0}),
        task_job("train-b", {"cpu": 4.0, "mem": 8.0}, {"compute-dc": 30.0}),
        # memory-heavy caching spread across memory DC and edge
        task_job("cache-a", {"cpu": 0.5, "mem": 16.0}, {"memory-dc": 40.0, "edge": 6.0}),
        task_job("cache-b", {"cpu": 0.5, "mem": 16.0}, {"memory-dc": 40.0}),
        # balanced ETL present everywhere
        task_job("etl", {"cpu": 2.0, "mem": 4.0}, {"compute-dc": 10.0, "memory-dc": 10.0, "edge": 10.0}),
    ]
    cluster = Cluster(sites, jobs)

    drf = solve_persite_drf(cluster)
    amrf = solve_amf(cluster)
    dom = cluster.dominant_factor()  # dominant share per unit of task rate
    drf_shares = dom * drf.aggregates
    amrf_shares = dom * amrf.aggregates

    rows = []
    for i, job in enumerate(jobs):
        rows.append(
            [
                job.name,
                f"{job.resources['cpu']:g}c/{job.resources['mem']:g}m",
                drf.aggregates[i],
                drf_shares[i],
                amrf.aggregates[i],
                amrf_shares[i],
            ]
        )
    print(render_table(
        ["job", "task shape", "DRF tasks", "DRF dom.share", "AMRF tasks", "AMRF dom.share"],
        rows,
        title="Per-site DRF vs Aggregate Multi-Resource Fairness",
    ))
    print()
    print(f"dominant-share balance:  DRF jain={jain_index(drf_shares):.4f} "
          f"min/max={min_max_ratio(drf_shares):.4f}")
    print(f"                        AMRF jain={jain_index(amrf_shares):.4f} "
          f"min/max={min_max_ratio(amrf_shares):.4f}")
    print()
    print("AMRF equalizes what each job holds of its scarcest federation-wide")
    print("resource; per-site DRF leaves the cross-site imbalance in place.")


if __name__ == "__main__":
    main()
