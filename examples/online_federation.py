"""Online federation: Poisson arrivals under increasing load.

An open system where jobs stream into a three-datacenter federation.  We
sweep the offered load and watch mean slowdown under the per-site baseline
vs AMF — the dynamic version of the paper's evaluation (experiment F7).

Run:  python examples/online_federation.py
"""

import numpy as np

from repro.analysis.tables import series_table
from repro.sim.engine import simulate
from repro.workload.arrivals import ArrivalSpec, generate_arrival_jobs
from repro.workload.generator import WorkloadSpec


def main() -> None:
    loads = (0.4, 0.6, 0.8)
    policies = ("psmf", "amf")
    series: dict[str, list[float]] = {f"{p}/slowdown": [] for p in policies}
    series.update({f"{p}/p95_jct": [] for p in policies})

    for load in loads:
        spec = ArrivalSpec(
            workload=WorkloadSpec(n_jobs=60, n_sites=3, theta=1.2, site_spread=2, mean_work=40.0),
            load=load,
            site_capacity=10.0,
        )
        sites, jobs = generate_arrival_jobs(spec, np.random.default_rng(7))
        for name in policies:
            res = simulate(sites, jobs, name)
            series[f"{name}/slowdown"].append(round(res.mean_slowdown, 3))
            series[f"{name}/p95_jct"].append(round(res.jct_percentile(95), 2))

    print(series_table("load", list(loads), series, title="Open system: slowdown & tail JCT vs offered load").render())
    print()
    print("Reading the table: slowdown rises with load for every policy (queueing),")
    print("but AMF holds the multi-site jobs' slowdowns down by compensating across sites.")


if __name__ == "__main__":
    main()
