"""Tests for the scatter/gather engine: deadlines, retries, hedges,
partial gathers and membership changes."""

import pytest

from repro.baselines.evalutil import grep_lines
from repro.blockstore.remote import FaultProfile
from repro.cluster import (
    ClusterError,
    ClusterLogGrep,
    LatencyTracker,
    ReplicaRanker,
    ScatterConfig,
)
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=8 * 1024)


def make_cluster(corpus, **kwargs):
    kwargs.setdefault("num_nodes", 4)
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("config", CONFIG)
    cluster = ClusterLogGrep(**kwargs)
    cluster.compress(corpus)
    return cluster


@pytest.fixture(scope="module")
def corpus():
    return make_mixed_lines(900, seed=33)


class TestLatencyTracker:
    def test_quantile(self):
        tracker = LatencyTracker()
        for ms in range(1, 101):
            tracker.observe(ms / 1000.0)
        assert tracker.quantile(0.5) == pytest.approx(0.051)
        assert tracker.quantile(0.95) == pytest.approx(0.096)

    def test_cold_start_uses_min_delay(self):
        config = ScatterConfig(hedge_min_s=0.02, hedge_min_samples=8)
        tracker = LatencyTracker()
        for _ in range(7):
            tracker.observe(0.5)
        assert tracker.hedge_delay(config) == 0.02

    def test_warm_delay_tracks_percentile_with_clamp(self):
        config = ScatterConfig(
            hedge_min_s=0.01, hedge_max_s=0.1, hedge_min_samples=4
        )
        tracker = LatencyTracker()
        for _ in range(16):
            tracker.observe(0.05)
        assert tracker.hedge_delay(config) == pytest.approx(0.05)
        for _ in range(64):
            tracker.observe(5.0)  # way above the clamp
        assert tracker.hedge_delay(config) == 0.1


class TestTimeoutRetry:
    def test_deadline_abandons_straggler_and_retries_replica(self, corpus):
        scatter = ScatterConfig(
            shard_deadline_s=0.05,
            max_attempts=4,
            hedge=False,  # isolate the deadline path
        )
        with make_cluster(corpus, scatter=scatter) as cluster:
            straggler = cluster._placement[sorted(cluster._placement)[0]][0]
            cluster.set_straggler(straggler, 0.5)  # 10x the deadline
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)
            report = cluster.last_report
            timed_out = [s for s in report.shards if s.timeouts > 0]
            assert timed_out, "no shard hit the straggler as primary"
            for shard in timed_out:
                assert shard.node != straggler  # a replica answered
                assert shard.retries >= 1

    def test_attempt_budget_exhaustion_raises(self, corpus):
        scatter = ScatterConfig(shard_deadline_s=0.03, max_attempts=2, hedge=False)
        with make_cluster(corpus, scatter=scatter) as cluster:
            for node in cluster.nodes.values():
                node.rpc_latency_s = 0.5
            with pytest.raises(ClusterError):
                cluster.count("ERROR")


class TestHedgedReads:
    def test_hedge_routes_around_straggler(self, corpus):
        scatter = ScatterConfig(
            shard_deadline_s=None,
            hedge=True,
            hedge_min_s=0.01,
            hedge_min_samples=10_000,  # pin the cold-start delay
        )
        with make_cluster(corpus, scatter=scatter) as cluster:
            straggler = cluster._placement[sorted(cluster._placement)[0]][0]
            cluster.set_straggler(straggler, 0.4)
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)
            report = cluster.last_report
            wins = [s for s in report.shards if s.hedged and s.hedge_won]
            assert wins, "no hedge fired and won against the straggler"
            for shard in wins:
                assert shard.node != straggler
                # The hedge returned long before the straggler would have.
                assert shard.elapsed_ms < 400

    def test_no_hedge_when_disabled(self, corpus):
        scatter = ScatterConfig(shard_deadline_s=None, hedge=False)
        with make_cluster(corpus, scatter=scatter) as cluster:
            cluster.count("ERROR")
            assert all(not s.hedged for s in cluster.last_report.shards)


class TestStoreFailover:
    def test_store_failure_retries_next_replica(self, corpus):
        scatter = ScatterConfig(hedge=False, max_attempts=4)
        with make_cluster(
            corpus, scatter=scatter, remote_profile=FaultProfile()
        ) as cluster:
            victim = cluster._placement[sorted(cluster._placement)[0]][0]
            cluster.node(victim).store.set_profile(
                FaultProfile(failure_rate=1.0)
            )
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)
            report = cluster.last_report
            assert any(s.retries >= 1 for s in report.shards)
            assert all(s.node != victim for s in report.shards)

    def test_every_store_broken_raises(self, corpus):
        scatter = ScatterConfig(hedge=False, max_attempts=3)
        with make_cluster(
            corpus, scatter=scatter, remote_profile=FaultProfile()
        ) as cluster:
            for node in cluster.nodes.values():
                node.store.set_profile(FaultProfile(failure_rate=1.0))
            with pytest.raises(ClusterError):
                cluster.count("ERROR")


class TestIngestRetry:
    def test_failed_puts_are_retried_not_recompressed(self, corpus):
        # Small blocks: dozens of puts, so a 30% failure rate is certain
        # to hit some; 12 attempts make exhausting one negligible.
        config = LogGrepConfig(block_bytes=2048)
        scatter = ScatterConfig(max_attempts=12, retry_backoff_s=0.0001)
        with make_cluster(
            corpus,
            config=config,
            scatter=scatter,
            remote_profile=FaultProfile(failure_rate=0.3, seed=7),
        ) as cluster:
            nodes = cluster.nodes.values()
            assert sum(node.store.failures_injected for node in nodes) > 0
            assert sum(node.blocks_compressed for node in nodes) == len(
                cluster._placement
            )
            for name, replicas in cluster._placement.items():
                assert len(replicas) == cluster.replication
                for nid in replicas:
                    assert cluster.node(nid).has_block(name)
                    assert cluster.node(nid).index.get(name) is not None
            for node in nodes:
                node.store.set_profile(FaultProfile())
            single = LogGrep(config=config)
            single.compress(corpus)
            for command in ("ERROR", "state: SUC#163*", "read AND bk.0*"):
                assert cluster.grep(command).lines == single.grep(command).lines
            assert cluster.count_by("state") == single.count_by("state")

    def test_put_budget_exhaustion_raises(self, corpus):
        from repro.blockstore.remote import RemoteStoreError

        scatter = ScatterConfig(max_attempts=2, retry_backoff_s=0.0)
        with pytest.raises(RemoteStoreError):
            make_cluster(
                corpus,
                scatter=scatter,
                remote_profile=FaultProfile(failure_rate=1.0),
            )


class TestReplicaRanker:
    def test_cold_ranker_keeps_placement_order(self):
        ranker = ReplicaRanker(clock=lambda: 0.0)
        assert ranker.order(["b", "a", "c"]) == ["b", "a", "c"]

    def test_unobserved_node_is_measured_next(self):
        ranker = ReplicaRanker(clock=lambda: 0.0)
        ranker.observe("a", 0.001)
        assert ranker.order(["a", "b"]) == ["b", "a"]

    def test_lowest_estimate_first_ties_keep_order(self):
        ranker = ReplicaRanker(clock=lambda: 0.0)
        for node, seconds in (("a", 0.05), ("b", 0.01), ("c", 0.01)):
            ranker.observe(node, seconds)
        assert ranker.order(["a", "b"]) == ["b", "a"]
        assert ranker.order(["c", "b", "a"]) == ["c", "b", "a"]

    def test_bound_only_raises(self):
        ranker = ReplicaRanker(clock=lambda: 0.0)
        ranker.observe("a", 0.02)
        ranker.observe("a", 0.01, bound=True)
        assert ranker.estimate("a") == pytest.approx(0.02)
        ranker.observe("a", 0.08, bound=True)
        assert ranker.estimate("a") == pytest.approx(0.08)

    def test_estimates_age(self):
        now = [0.0]
        ranker = ReplicaRanker(clock=lambda: now[0])
        ranker.observe("slow", 0.08)
        now[0] = ReplicaRanker.HALF_LIFE_S
        assert ranker.estimate("slow") == pytest.approx(0.04)
        ranker.observe("fast", 0.01)
        assert ranker.order(["slow", "fast"]) == ["fast", "slow"]
        # "fast" keeps being observed; "slow", passed over, ages below it.
        for _ in range(12):
            now[0] += ReplicaRanker.HALF_LIFE_S / 4
            ranker.observe("fast", 0.01)
        assert ranker.estimate("slow") == pytest.approx(0.005)
        assert ranker.order(["fast", "slow"]) == ["slow", "fast"]


    def test_concurrent_bounds_keep_the_maximum(self):
        """Read-modify-write under the lock: with the clock frozen, a lost
        update would leave some node below the largest bound it saw."""
        import sys
        import threading

        ranker = ReplicaRanker(clock=lambda: 0.0)
        nodes = [f"n{i}" for i in range(4)]
        bad_orders = []

        def hammer(worker):
            for step in range(300):
                for node in nodes:
                    ranker.observe(node, (worker * 300 + step) * 1e-6, bound=True)
                if sorted(ranker.order(nodes)) != nodes:
                    bad_orders.append(worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not bad_orders
        for node in nodes:
            assert ranker.estimate(node) == pytest.approx(2399e-6)


class TestLatencyRankedReplicas:
    """hedge=False and a frozen ranker clock: a shard's first attempt is
    the only one, so ``last_report`` nodes show where first attempts went."""

    def _ranked_cluster(self, corpus, now):
        cluster = make_cluster(
            corpus, scatter=ScatterConfig(shard_deadline_s=None, hedge=False)
        )
        cluster.ranker.clock = lambda: now[0]
        return cluster

    def _straggle(self, cluster):
        """Slow down a primary replica and let the ranker see it."""
        straggler = cluster._placement[sorted(cluster._placement)[0]][0]
        cluster.set_straggler(straggler, 0.1)
        for _ in range(2):
            cluster.count("ERROR")
        return straggler

    def test_first_attempts_avoid_straggler(self, corpus):
        with self._ranked_cluster(corpus, [0.0]) as cluster:
            straggler = self._straggle(cluster)
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)
            for shard in cluster.last_report.shards:
                assert shard.node != straggler
                assert shard.attempts == 1

    def test_recovered_node_serves_first_attempts_again(self, corpus):
        now = [0.0]
        with self._ranked_cluster(corpus, now) as cluster:
            straggler = self._straggle(cluster)
            cluster.set_straggler(straggler, 0.0)
            for _ in range(40):
                now[0] += 1.0  # estimates in use refresh; the straggler's ages
                cluster.count("ERROR")
                if any(s.node == straggler for s in cluster.last_report.shards):
                    break
            else:
                pytest.fail("a recovered node never got a first attempt back")

    def test_dead_node_never_chosen(self, corpus):
        with self._ranked_cluster(corpus, [0.0]) as cluster:
            for _ in range(2):
                cluster.count("ERROR")
            holders = [n for n in cluster.nodes if cluster.node(n).block_names()]
            fastest = min(holders, key=lambda n: cluster.ranker.estimate(n) or 0.0)
            cluster.node(fastest).fail()
            served = cluster.node(fastest).queries_served
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)
            assert cluster.count("ERROR") == len(grep_lines("ERROR", corpus))
            assert cluster.node(fastest).queries_served == served
            assert all(s.node != fastest for s in cluster.last_report.shards)
            assert all(s.retries == 0 for s in cluster.last_report.shards)


class TestGatherProtocol:
    def test_limit_returns_prefix(self, corpus):
        with make_cluster(corpus) as cluster:
            expected = grep_lines("ERROR", corpus)
            limited = cluster.grep("ERROR", limit=5)
            assert limited.lines == expected[:5]
            # The bounded fetch reconstructed only a prefix of the blocks.
            fetch = [s for s in cluster.last_report.shards if s.phase == "lines"]
            locate = [s for s in cluster.last_report.shards if s.phase == "rows"]
            assert len(fetch) < len(locate)

    def test_partial_gather_smaller_than_line_shipping(self, corpus):
        with make_cluster(corpus) as cluster:
            cluster.grep("T1*")  # matches most lines
            line_bytes = sum(
                s.wire_bytes
                for s in cluster.last_report.shards
                if s.phase == "lines"
            )
            cluster.count_by("state", where="T1*")
            partial_bytes = cluster.last_report.wire_bytes
            assert partial_bytes < line_bytes

    def test_report_covers_every_block(self, corpus):
        with make_cluster(corpus) as cluster:
            cluster.count("ERROR")
            report = cluster.last_report
            assert {s.block for s in report.shards} == set(cluster._placement)
            assert report.elapsed_ms > 0
            rendered = report.render()
            assert "shard(s)" in rendered and "block-" in rendered


class TestMembership:
    def test_add_node_rebalances(self, corpus):
        with make_cluster(corpus) as cluster:
            new_id = cluster.add_node()
            assert new_id in cluster.nodes
            # Rendezvous placement gave the new node some replicas.
            assert cluster.node(new_id).block_names()
            for name, replicas in cluster._placement.items():
                assert len(replicas) == cluster.replication
                for nid in replicas:
                    assert cluster.node(nid).has_block(name)
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)

    def test_remove_node_drains_replicas(self, corpus):
        with make_cluster(corpus, num_nodes=5) as cluster:
            victim = cluster._placement[sorted(cluster._placement)[0]][0]
            cluster.remove_node(victim)
            assert victim not in cluster.nodes
            for name, replicas in cluster._placement.items():
                assert victim not in replicas
                assert len(replicas) == cluster.replication
                for nid in replicas:
                    assert cluster.node(nid).has_block(name)
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)

    def test_remove_below_replication_raises(self, corpus):
        with make_cluster(corpus, num_nodes=2, replication=2) as cluster:
            with pytest.raises(ValueError):
                cluster.remove_node("node-0")

    def test_rebalance_trims_over_replication(self, corpus):
        with make_cluster(corpus) as cluster:
            cluster.node("node-2").fail()
            cluster.repair()  # re-replicates onto survivors
            cluster.node("node-2").recover()
            moves = cluster.rebalance()
            assert moves > 0  # extra copies dropped / placement restored
            for name, replicas in cluster._placement.items():
                assert len(replicas) == cluster.replication
            assert cluster.grep("ERROR").lines == grep_lines("ERROR", corpus)


class TestScheduleEquivalence:
    """Property: any delivery schedule yields the single-node answer."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cluster_equals_single_node_under_chaos(self, corpus, seed):
        single = LogGrep(config=CONFIG)
        single.compress(corpus)
        scatter = ScatterConfig(
            shard_deadline_s=None,
            max_attempts=10,
            hedge=True,
            hedge_min_s=0.002,
            hedge_min_samples=4,
        )
        with make_cluster(
            corpus, scatter=scatter, remote_profile=FaultProfile()
        ) as cluster:
            # Ingest cleanly, then let every store misbehave (each on its
            # own deterministic schedule) for the query phase.
            for i, node in enumerate(cluster.nodes.values()):
                node.store.set_profile(
                    FaultProfile(
                        jitter_s=0.003, failure_rate=0.02, seed=seed * 101 + i
                    )
                )
            for command in ("ERROR", "state: SUC#163*", "read AND bk.0*"):
                assert cluster.grep(command).lines == single.grep(command).lines
                assert cluster.count(command) == single.count(command)
            assert cluster.count_by("state") == single.count_by("state")
