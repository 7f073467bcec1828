"""Coordinator-side pool mechanics: assignment, RPC faults, failover.

Workers here are real :class:`SolverWorker` TCP servers running on
background threads of this process — same code as the spawned processes,
without fork overhead — so the failure injections (closing a worker's
listener, killing its sockets mid-run) exercise the genuine network
paths."""

import numpy as np
import pytest

from repro.core.sharding import ShardBasisPool, decompose, solve_shards
from repro.dist.coordinator import DistError, ShardAssignment, WorkerPool
from repro.dist.protocol import ShardSolved
from repro.dist.worker import SolverWorker
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site


def block_cluster(blocks, seed=0):
    rng = np.random.default_rng(seed)
    sites, jobs = [], []
    for b, (n, m) in enumerate(blocks):
        names = [f"b{b}s{j}" for j in range(m)]
        sites.extend(Site(nm, float(rng.uniform(1.0, 5.0))) for nm in names)
        for i in range(n):
            jobs.append(Job(f"b{b}j{i}", {nm: float(rng.uniform(0.2, 2.0)) for nm in names}))
    return Cluster(tuple(sites), tuple(jobs))


@pytest.fixture
def workers():
    ws = [SolverWorker().start(), SolverWorker().start()]
    yield ws
    for w in ws:
        w.close()


@pytest.fixture
def pool(workers):
    p = WorkerPool(
        [w.address for w in workers], heartbeat_interval=0.05, miss_threshold=2
    ).start()
    yield p
    p.stop()


class TestShardAssignment:
    def test_least_loaded_deterministic(self):
        a = ShardAssignment()
        live = ["w1", "w0"]
        keys = [frozenset({f"s{i}"}) for i in range(4)]
        owners = [a.assign(k, live) for k in keys]
        # round-robins by load, ties broken by sorted id
        assert owners == ["w0", "w1", "w0", "w1"]

    def test_sticky_while_owner_lives(self):
        a = ShardAssignment()
        key = frozenset({"s"})
        first = a.assign(key, ["w0", "w1"])
        for _ in range(5):
            assert a.assign(key, ["w0", "w1"]) == first

    def test_drop_worker_orphans_and_reassigns(self):
        a = ShardAssignment()
        keys = [frozenset({f"s{i}"}) for i in range(4)]
        for k in keys:
            a.assign(k, ["w0", "w1"])
        orphaned = a.drop_worker("w0")
        assert len(orphaned) == 2
        for k in orphaned:
            assert a.assign(k, ["w1"]) == "w1"
        assert a.drop_worker("w0") == []

    def test_no_live_workers_raises(self):
        with pytest.raises(ValueError):
            ShardAssignment().assign(frozenset({"s"}), [])


class TestReplyDiagnostics:
    def test_unknown_counter_does_not_discard_the_matrix(self):
        """A worker on another build may report a counter this one lacks
        (``amrf_table_hits`` left ``AmfDiagnostics`` in PR 16); its shard
        matrix is still valid and its known counters still count."""
        shard = decompose(block_cluster([(2, 2)]))[0]
        reply = ShardSolved(
            id=1,
            key=tuple(sorted(shard.key)),
            matrix=[[0.5, 0.25], [0.0, 1.0]],
            diagnostics={"amrf_table_hits": 1, "amrf_lps": 3, "rounds": "two"},
        )
        result = WorkerPool._to_result(shard, reply)
        assert result.matrix.tolist() == [[0.5, 0.25], [0.0, 1.0]]
        assert result.diagnostics.amrf_lps == 3
        assert result.diagnostics.rounds == 0


class TestPoolSolve:
    def test_matches_local_solve_exactly(self, pool):
        cluster = block_cluster([(3, 2), (2, 3), (1, 1)])
        shards = decompose(cluster)
        local = solve_shards(shards, bases=ShardBasisPool(max_cuts=64))
        remote = pool.solve_shards(shards)
        assert [r.shard.key for r in remote] == [r.shard.key for r in local]
        for mine, theirs in zip(local, remote):
            assert np.array_equal(mine.matrix, theirs.matrix)
            assert mine.diagnostics.rounds == theirs.diagnostics.rounds

    def test_reply_probe_stats_merged_into_pool(self, pool):
        """Satellite of the oracle pipeline: each ShardSolved reply carries
        the worker's full diagnostics and the pool folds them, so the dist
        section of /v1/stats reports the same probes_* breakdown the local
        backend does."""
        cluster = block_cluster([(3, 2), (2, 3)])
        shards = decompose(cluster)
        local = solve_shards(shards)
        remote = pool.solve_shards(shards)
        probes = pool.stats_dict()["probes"]
        for field in ("rounds", "feasibility_solves", "probes_warm", "probes_cold"):
            assert probes[field] == sum(getattr(r.diagnostics, field) for r in local), field
        assert probes["probes_reused"] == sum(r.diagnostics.probes_reused for r in local)
        # and the per-result records round-tripped the wire intact
        for mine, theirs in zip(local, remote):
            assert mine.diagnostics == theirs.diagnostics

    def test_results_in_input_order_and_jobless_skipped(self, pool):
        cluster = block_cluster([(2, 2), (1, 1)])
        shards = decompose(cluster)
        remote = pool.solve_shards(shards)
        assert [r.shard.key for r in remote] == [s.key for s in shards if s.n_jobs > 0]
        assert pool.solve_shards([]) == []

    def test_assignment_spreads_across_workers(self, pool):
        cluster = block_cluster([(1, 1), (1, 2), (1, 3), (2, 1)])
        pool.solve_shards(decompose(cluster))
        loads = [len(keys) for keys in pool.assignment.to_dict().values()]
        assert sorted(loads) == [2, 2]

    def test_repeat_solves_are_sticky_and_warm(self, pool, workers):
        cluster = block_cluster([(2, 2), (3, 2)])
        shards = decompose(cluster)
        first = pool.solve_shards(shards)
        owners_before = dict(pool.assignment._owner)
        second = pool.solve_shards(shards)
        assert dict(pool.assignment._owner) == owners_before
        for a, b in zip(first, second):
            assert np.array_equal(a.matrix, b.matrix)
        # workers kept their per-shard bases: the repeat solve seeded warm
        warm = sum(w.bases.total_cuts for w in workers)
        discovered = sum(len(r.discovered_cuts) for r in first)
        assert warm >= discovered


class TestFailover:
    def test_rpc_fault_fails_over_and_retries(self, pool, workers):
        cluster = block_cluster([(2, 2), (2, 3), (1, 2)])
        shards = decompose(cluster)
        local = solve_shards(shards, bases=ShardBasisPool(max_cuts=64))
        pool.solve_shards(shards)
        victim = pool.live_workers[0]
        dead_worker = next(w for w in workers if w.worker_id == victim)
        dead_worker.close()  # next RPC to it fails -> immediate failover
        remote = pool.solve_shards(shards)
        for mine, theirs in zip(local, remote):
            assert np.array_equal(mine.matrix, theirs.matrix)
        assert pool.live_workers == [w for w in pool.live_workers if w != victim]
        assert pool.stats.failovers == 1
        assert pool.stats.reassignments >= 1

    def test_failed_over_shards_reseed_from_mirror(self, pool, workers):
        cluster = block_cluster([(3, 3)])
        shards = decompose(cluster)
        first = pool.solve_shards(shards)
        key = first[0].shard.key
        assert pool.mirror.basis_for(key).sets() == first[0].discovered_cuts
        victim = pool.assignment.owner_of(key)
        pool.fail_worker(victim, "test kill")
        assert key in pool._reseed
        survivor_worker = next(w for w in workers if w.worker_id != victim)
        again = pool.solve_shards(shards)
        assert np.array_equal(first[0].matrix, again[0].matrix)
        assert key not in pool._reseed
        # the new owner's basis was warmed with the mirrored cuts
        if first[0].discovered_cuts:
            assert survivor_worker.bases.basis_for(key).sets() >= first[0].discovered_cuts

    def test_all_workers_dead_raises_dist_error(self, pool, workers):
        for w in workers:
            pool.fail_worker(w.worker_id, "test")
        with pytest.raises(DistError, match="no live workers"):
            pool.solve_shards(decompose(block_cluster([(1, 1)])))

    def test_fail_worker_is_idempotent(self, pool):
        victim = pool.live_workers[0]
        pool.fail_worker(victim, "once")
        pool.fail_worker(victim, "twice")
        assert pool.stats.failovers == 1

    def test_heartbeat_declares_silent_death(self, pool, workers):
        import time

        workers[0].close()
        deadline = time.monotonic() + 5.0
        while len(pool.live_workers) > 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(pool.live_workers) == 1
        assert pool.stats.failovers == 1


class TestPoolEdges:
    def test_worker_error_reply_is_dist_error_without_failover(self, pool):
        # a malformed solve (no cluster) is refused by the worker; the
        # worker stays alive and the pool surfaces the refusal
        from repro.dist.protocol import SolveShard

        client = pool._clients[pool.live_workers[0]]
        with pytest.raises(DistError, match="refused"):
            client.solve(SolveShard(id=0, key=("x",), cluster=None))
        assert len(pool.live_workers) == 2

    def test_stats_dict_shape(self, pool):
        pool.solve_shards(decompose(block_cluster([(2, 2)])))
        stats = pool.stats_dict()
        assert stats["workers_alive"] == 2
        assert stats["rpcs"] == 1
        assert set(stats["workers"]) == set(pool.live_workers)
        assert stats["mirror_shards"] == 1
        import json

        json.dumps(stats)  # must be JSON-ready for /v1/stats

    def test_pool_requires_addresses(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_shutdown_workers_flag_stops_remote(self, workers):
        pool = WorkerPool(
            [w.address for w in workers], heartbeat_interval=0.05, miss_threshold=2
        ).start()
        pool.stop(shutdown_workers=True)
        import time

        deadline = time.monotonic() + 5.0
        while any(w.running for w in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(w.running for w in workers)
