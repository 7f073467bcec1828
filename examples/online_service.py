"""Online allocation service: continuous AMF under job churn.

Boots the full :class:`~repro.service.daemon.AllocationService` pipeline
in-process (no HTTP needed), streams a burst of arrivals, departures and
a capacity change through it, and prints what each layer contributed:
batched re-solves, component-memo replays, and cutting planes replayed from the
persistent basis instead of rediscovered via max-flow probes.

The same pipeline is served over HTTP by ``python -m repro.cli serve``
(endpoints and wire format: docs/service.md).

Run:  python examples/online_service.py
"""

from repro.model.job import Job
from repro.model.site import Site
from repro.service import AllocationService, CapacityChanged, ClusterState, JobArrived, JobDeparted


def show(service: AllocationService, note: str) -> None:
    served = service.allocation()
    alloc = served.allocation
    origin = "memo" if served.cached else f"solved in {served.seconds * 1e3:.2f} ms"
    print(f"--- {note}  [{alloc.policy}, {origin}, state v{served.version}]")
    for job, agg in zip(alloc.cluster.jobs, alloc.aggregates):
        print(f"    {job.name:8s} aggregate = {agg:.3f}")


def main() -> None:
    state = ClusterState([Site("east", 4.0), Site("west", 2.0)])
    # every accepted delta is in the state at once; a zero delay makes each
    # read re-solve whatever arrived since the last one (show() reads fresh anyway)
    service = AllocationService(state, max_delay=0.0)

    # A burst of arrivals is one batch -> one warm re-solve.
    service.submit_all(
        [
            JobArrived(Job("miner", {"east": 1.0})),
            JobArrived(Job("indexer", {"east": 1.0})),
            JobArrived(Job("ranker", {"east": 1.0, "west": 1.0}, demand={"west": 0.5})),
        ]
    )
    show(service, "three jobs arrive (one batch)")
    show(service, "read again with no churn")  # served from the component memo

    service.submit(JobArrived(Job("crawler", {"west": 1.0})))
    show(service, "crawler arrives on the idle site")

    service.submit(JobDeparted("indexer"))
    service.submit(CapacityChanged("east", 6.0))
    show(service, "indexer departs, east grows to 6.0")

    stats = service.stats()
    inc = stats["incremental"]
    print("\npipeline counters:")
    print(f"    events accepted     : {stats['state']['events_accepted']}")
    print(f"    batches / solves    : {stats['batching']['batches']} / {inc['solves']}")
    print(f"    memo hit rate       : {stats['cache']['hit_rate']:.2f}")
    print(f"    cuts discovered     : {inc['cuts_generated']}")
    print(f"    cuts replayed warm  : {inc['warm_cuts_seeded']}")
    print(f"    fallback activations: {stats['resilience']['fallback_activations']}")
    print("\nThe warm solves replay the bottleneck cut discovered on the first")
    print("batch instead of re-deriving it from max-flow probes; a read between")
    print("deltas is answered from the component memo, solving nothing")
    print("(docs/service.md).")


if __name__ == "__main__":
    main()
