"""The tentpole contract: distributed solve == ``solve_amf(shards=True)``.

Hypothesis generates block-diagonal clusters (each block one connected
component), solves them monolithically in-process, then through a
coordinator + two-worker pool, and asserts the stitched matrices are
**bit-identical** — ``np.array_equal``, no tolerance.  A second property
kills a worker *between* solves of a run and asserts the post-failover
answers are still bit-identical, which pins down that shard reassignment
plus subset-seeded basis re-warm never changes results.

Workers are real TCP servers on background threads (same code as spawned
processes; no fork overhead in the property loop)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amf import solve_amf
from repro.core.sharding import decompose, stitch
from repro.dist import SolverWorker, WorkerPool
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site

blocks = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=4,
)


def build_cluster(block_shapes, seed):
    rng = np.random.default_rng(seed)
    sites, jobs = [], []
    for b, (n, m) in enumerate(block_shapes):
        names = [f"b{b}s{j}" for j in range(m)]
        sites.extend(Site(nm, float(rng.uniform(0.5, 5.0))) for nm in names)
        for i in range(n):
            # sparse workloads so cuts actually bind sometimes
            touched = names[: max(1, rng.integers(1, m + 1))]
            jobs.append(Job(f"b{b}j{i}", {nm: float(rng.uniform(0.2, 2.0)) for nm in touched}))
    return Cluster(tuple(sites), tuple(jobs))


def pool_solve(pool, cluster) -> np.ndarray:
    shards = decompose(cluster)
    results = pool.solve_shards(shards)
    return stitch(cluster, [(r.shard, r.matrix) for r in results])


class TestBitIdentity:
    @given(shapes=blocks, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_distributed_equals_monolithic(self, shapes, seed):
        cluster = build_cluster(shapes, seed)
        reference = solve_amf(cluster, shards=True)
        workers = [SolverWorker().start() for _ in range(2)]
        try:
            with WorkerPool([w.address for w in workers], heartbeat_interval=0.2) as pool:
                distributed = pool_solve(pool, cluster)
        finally:
            for w in workers:
                w.close()
        assert np.array_equal(reference.matrix, distributed)

    @given(shapes=blocks, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_bit_identical_after_mid_run_failover(self, shapes, seed):
        cluster = build_cluster(shapes, seed)
        reference = solve_amf(cluster, shards=True).matrix
        workers = [SolverWorker().start() for _ in range(2)]
        try:
            with WorkerPool([w.address for w in workers], heartbeat_interval=0.2) as pool:
                # warm run: every worker owns shards and holds warm bases
                assert np.array_equal(reference, pool_solve(pool, cluster))
                # kill one worker abruptly; the next solve hits the dead
                # connection, fails over and replays on the survivor with
                # mirror-seeded bases
                victim_id = pool.live_workers[0]
                next(w for w in workers if w.worker_id == victim_id).close()
                after = pool_solve(pool, cluster)
                assert np.array_equal(reference, after)
                assert pool.stats.failovers == 1
                # and again, purely on the survivor, still identical
                assert np.array_equal(reference, pool_solve(pool, cluster))
        finally:
            for w in workers:
                w.close()


class TestServiceBackend:
    def test_service_dist_equals_local(self):
        from repro.model.job import Job as J
        from repro.service import AllocationService, ClusterState, JobArrived

        sites = [Site(f"s{i}", 10.0) for i in range(4)]
        jobs = [J(f"j{i}", {f"s{i % 4}": 1.0, f"s{(i + 1) % 4}": 0.5}) for i in range(6)]

        local = AllocationService(ClusterState(sites), observability=False)
        workers = [SolverWorker().start() for _ in range(2)]
        pool = WorkerPool([w.address for w in workers], heartbeat_interval=0.2).start()
        dist = AllocationService(
            ClusterState(sites), backend="dist", pool=pool, observability=False
        )
        try:
            for svc in (local, dist):
                for job in jobs:
                    svc.submit(JobArrived(job))
            a = local.allocation().allocation
            b = dist.allocation().allocation
            assert np.array_equal(a.matrix, b.matrix)
            assert b.policy == "amf-dist"
            assert dist.stats()["dist"]["backend"] == "dist"
            assert local.stats()["dist"] == {"backend": "local"}
        finally:
            dist.close()  # stops the pool
            for w in workers:
                w.close()

    def test_total_pool_death_degrades_to_local_fallback(self):
        from repro.model.job import Job as J
        from repro.service import AllocationService, ClusterState, JobArrived

        sites = [Site(f"s{i}", 10.0) for i in range(2)]
        worker = SolverWorker().start()
        pool = WorkerPool([worker.address], heartbeat_interval=0.2).start()
        svc = AllocationService(
            ClusterState(sites), backend="dist", pool=pool, observability=False
        )
        try:
            svc.submit(JobArrived(J("j0", {"s0": 1.0})))
            first = svc.allocation().allocation
            assert first.policy == "amf-dist"
            worker.close()
            pool.fail_worker(worker.worker_id, "test kill")
            svc.submit(JobArrived(J("j1", {"s1": 1.0})))
            served = svc.allocation().allocation
            # DistError propagated, the resilient chain served it locally
            assert served.policy != "amf-dist"
            assert svc.resilience.fallback_activations >= 1
            reference = solve_amf(svc.state.snapshot(), shards=True)
            assert np.allclose(served.matrix, reference.matrix)
        finally:
            svc.close()
            worker.close()

    def test_http_stats_see_a_death_with_no_write(self):
        """A worker the heartbeat declares dead between writes must reach
        the published ``/v1/stats`` without a write to trigger a publish."""
        import json
        import time
        import urllib.request

        from repro.dist import spawn_local_workers
        from repro.service import AllocationService, ClusterState
        from repro.service.aio import AioServiceServer

        processes, addresses = spawn_local_workers(2)
        try:
            pool = WorkerPool(addresses, heartbeat_interval=0.1).start()
            svc = AllocationService(
                ClusterState([Site("s0", 1.0)]), backend="dist", pool=pool, observability=False
            )
            with AioServiceServer(svc, port=0, quiet=True) as srv:

                def workers_alive() -> int:
                    url = f"http://127.0.0.1:{srv.port}/v1/stats"
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        return json.loads(resp.read())["dist"]["workers_alive"]

                assert workers_alive() == 2
                processes[0].kill()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and (len(pool.live_workers) != 1 or workers_alive() != 1):
                    time.sleep(0.05)
                assert len(pool.live_workers) == 1
                assert workers_alive() == 1
        finally:
            for proc in processes:
                proc.kill()
                proc.join(timeout=5)
