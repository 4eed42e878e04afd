"""The cluster coordinator: distributed compress and scatter/gather query.

``ClusterLogGrep`` is the distributed analogue of
:class:`~repro.core.loggrep.LogGrep` (the paper's §8 future work):

* **ingest** — raw lines are split into blocks; each block's *primary*
  node (rendezvous hashing) compresses it locally and the coordinator
  fans the archive bytes *and prune summary* out to the remaining
  replicas.  Blocks compress in parallel across nodes.
* **query** — one pre-built plan is scattered through the
  :class:`~repro.cluster.scatter.ScatterGather` engine (bounded fan-out,
  per-shard deadlines, retry-with-backoff across replicas, hedged reads
  after a latency percentile).  Gathers ship **partials**, never raw
  lines: ``count`` ships counts, aggregates ship commutative
  ``AggregatePartial``s, and ``grep`` ships per-group row-set bitmaps
  with reconstruction deferred to a final bounded fetch of exactly the
  kept rows — so gather bytes scale with matches, not corpus.
* **membership** — rendezvous placement is recomputed on node
  join/leave; :meth:`rebalance` moves only the replicas whose best nodes
  changed, and :meth:`repair` re-replicates after a crash.
* **failures** — a dead replica is skipped; a slow one is hedged or
  timed out; a query only fails once some block exhausts its replica
  attempt budget.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..blockstore.block import split_lines
from ..blockstore.index import BlockSummary
from ..blockstore.remote import FaultProfile, RemoteStore
from ..blockstore.store import ArchiveStore, MemoryStore
from ..common.errors import ReproError
from ..core.config import LogGrepConfig
from ..core.loggrep import AggregateResult, GrepResult, LogGrep
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.aggregate import AggregateSpec, Bucket, NumericStats, make_partial
from ..query.executor import Entry
from ..query.modes import AggregateKind
from ..query.plan import OutputMode, QueryPlan, build_aggregate_plan, build_plan
from ..query.stats import QueryStats
from .node import WorkerNode
from .placement import replica_nodes
from .scatter import (
    LatencyTracker,
    ReplicaRanker,
    ScatterConfig,
    ScatterGather,
    ShardError,
    ShardOutcome,
    ShardTask,
)

logger = logging.getLogger(__name__)

_CLUSTER_AGG_QUERIES = get_registry().counter(
    "loggrep_cluster_agg_queries_total",
    "Aggregate queries scattered by the coordinator",
)
_CLUSTER_AGG_PARTIALS = get_registry().counter(
    "loggrep_agg_partials_merged_total",
    "Per-block aggregate partials folded into a merged result",
)
_CLUSTER_QUERIES = get_registry().counter(
    "loggrep_cluster_queries_total",
    "Queries scattered by the coordinator, by mode",
)
_CLUSTER_REBALANCE_MOVES = get_registry().counter(
    "loggrep_cluster_rebalance_moves_total",
    "Replica copies created or dropped by rebalancing",
)


class ClusterError(ReproError):
    """The cluster cannot satisfy a request (e.g. all replicas down)."""


@dataclass
class ClusterStats:
    """A snapshot of cluster health and balance."""

    nodes: int
    alive_nodes: int
    blocks: int
    replication: int
    blocks_per_node: Dict[str, int] = field(default_factory=dict)
    bytes_per_node: Dict[str, int] = field(default_factory=dict)


@dataclass
class ShardReport:
    """Delivery accounting of one shard of one query phase."""

    block: str
    phase: str  # "rows" | "lines" | "partial" | "count"
    node: str
    attempts: int
    retries: int
    timeouts: int
    hedged: bool
    hedge_won: bool
    elapsed_ms: float
    wire_bytes: int


@dataclass
class ClusterQueryReport:
    """Per-shard roll-up of one distributed query (the cluster ANALYZE)."""

    command: str
    mode: str
    shards: List[ShardReport] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def wire_bytes(self) -> int:
        return sum(shard.wire_bytes for shard in self.shards)

    @property
    def hedges(self) -> int:
        return sum(1 for shard in self.shards if shard.hedged)

    @property
    def retries(self) -> int:
        return sum(shard.retries for shard in self.shards)

    def add(self, phase: str, outcomes: Sequence[ShardOutcome]) -> None:
        for outcome in outcomes:
            self.shards.append(
                ShardReport(
                    block=outcome.name,
                    phase=phase,
                    node=outcome.node_id,
                    attempts=outcome.attempts,
                    retries=outcome.retries,
                    timeouts=outcome.timeouts,
                    hedged=outcome.hedged,
                    hedge_won=outcome.hedge_won,
                    elapsed_ms=outcome.elapsed * 1000.0,
                    wire_bytes=outcome.wire_bytes,
                )
            )

    def render(self) -> str:
        """The per-shard table plus gather totals, ANALYZE-style."""
        header = (
            f"cluster query {self.command!r} (mode={self.mode}): "
            f"{len(self.shards)} shard(s), {self.wire_bytes} gather byte(s), "
            f"{self.hedges} hedged, {self.retries} retrie(s), "
            f"{self.elapsed_ms:.1f} ms"
        )
        columns = (
            "block", "phase", "node", "att", "rty", "t/o", "hedge",
            "ms", "wire B",
        )
        rows = [columns]
        for shard in self.shards:
            hedge = "-"
            if shard.hedged:
                hedge = "won" if shard.hedge_won else "lost"
            rows.append(
                (
                    shard.block,
                    shard.phase,
                    shard.node,
                    str(shard.attempts),
                    str(shard.retries),
                    str(shard.timeouts),
                    hedge,
                    f"{shard.elapsed_ms:.1f}",
                    str(shard.wire_bytes),
                )
            )
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(columns))
        ]
        lines = [header]
        for row in rows:
            lines.append(
                "  "
                + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)


class ClusterLogGrep:
    """A small LogGrep cluster with replicated block placement."""

    def __init__(
        self,
        num_nodes: int = 4,
        replication: int = 2,
        config: Optional[LogGrepConfig] = None,
        parallelism: Optional[int] = None,
        scatter: Optional[ScatterConfig] = None,
        remote_profile: Optional[FaultProfile] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("a cluster needs at least one node")
        if replication > num_nodes:
            raise ValueError("replication factor cannot exceed the node count")
        self.config = config or LogGrepConfig()
        self.replication = replication
        self.scatter_config = scatter or ScatterConfig(
            fanout_concurrency=parallelism or max(2, num_nodes)
        )
        #: When set, every node's store is a fault-injecting RemoteStore
        #: (distinct deterministic seed per node).
        self._remote_profile = remote_profile
        self._stores_created = 0
        self.nodes: Dict[str, WorkerNode] = {}
        for i in range(num_nodes):
            self._create_node(f"node-{i}")
        self._placement: Dict[str, List[str]] = {}  # block name → replica ids
        self._next_block_id = 0
        self._next_line_id = 0
        self.raw_bytes = 0
        self.latency = LatencyTracker()
        #: Per-node latency estimates ordering every shard's replicas.
        self.ranker = ReplicaRanker()
        self._engine = ScatterGather(
            self.scatter_config,
            self.latency,
            alive=self._node_alive,
            ranker=self.ranker,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=parallelism or max(2, num_nodes)
        )
        #: Per-shard roll-up of the most recent query (also returned in
        #: ``result.report`` when ``analyze=True``).
        self.last_report: Optional[ClusterQueryReport] = None

    # ------------------------------------------------------------------
    def _make_store(self) -> ArchiveStore:
        if self._remote_profile is None:
            return MemoryStore()
        profile = dataclasses.replace(
            self._remote_profile,
            seed=self._remote_profile.seed + 9973 * self._stores_created,
        )
        return RemoteStore(MemoryStore(), profile)

    def _create_node(self, node_id: str) -> WorkerNode:
        node = WorkerNode(node_id, self.config, store=self._make_store())
        self._stores_created += 1
        self.nodes[node_id] = node
        return node

    def node(self, node_id: str) -> WorkerNode:
        return self.nodes[node_id]

    def _node_alive(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def _alive_ids(self) -> List[str]:
        return [nid for nid, node in self.nodes.items() if node.alive]

    def set_straggler(self, node_id: str, latency_s: float) -> None:
        """Give one node a fixed per-RPC service latency (fault drill)."""
        self.nodes[node_id].rpc_latency_s = latency_s

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def compress(self, lines: Sequence[str]) -> None:
        """Distribute and compress *lines* across the cluster."""
        blocks = []
        for block in split_lines(lines, self.config.block_bytes):
            block.block_id = self._next_block_id
            block.first_line_id = self._next_line_id
            self._next_block_id += 1
            self._next_line_id += block.num_lines
            self.raw_bytes += block.raw_bytes
            blocks.append(block)

        tracer = get_tracer()
        with tracer.span("cluster.compress", blocks=len(blocks)) as cspan:
            def ingest_one(block) -> None:
                name = f"block-{block.block_id:08d}.lgcb"
                replicas = replica_nodes(name, self._alive_ids(), self.replication)
                if not replicas:
                    raise ClusterError("no alive node to ingest into")
                with tracer.span(
                    "cluster.ingest_block",
                    parent=cspan,
                    block=name,
                    node=replicas[0],
                ) as ispan:
                    # Remote puts fail transiently: retry each one with the
                    # scatter engine's attempt budget and backoff.
                    attempts = self.scatter_config.max_attempts
                    backoff_s = self.scatter_config.retry_backoff_s
                    primary = self.nodes[replicas[0]]
                    name, data, summary = primary.compress_and_store(
                        block, attempts, backoff_s
                    )
                    for replica_id in replicas[1:]:
                        self.nodes[replica_id].store_replica(
                            name, data, summary, attempts, backoff_s
                        )
                    self._placement[name] = replicas
                    ispan.set("replicas", len(replicas))

            list(self._pool.map(ingest_one, blocks))

    # ------------------------------------------------------------------
    # scatter/gather plumbing
    # ------------------------------------------------------------------
    def _shard_tasks(self, request: object = None) -> List[ShardTask]:
        return [
            ShardTask(name, list(self._placement[name]), request)
            for name in sorted(self._placement)
        ]

    def _scatter(self, tasks, action, kind: str) -> List[ShardOutcome]:
        try:
            return self._engine.map(tasks, action, kind)
        except ShardError as exc:
            logger.warning("scatter failed: %s", exc)
            raise ClusterError(str(exc)) from exc

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def grep(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        limit: Optional[int] = None,
        analyze: bool = False,
    ) -> GrepResult:
        """Scatter one pre-built ROWS plan, gather row-set partials, then
        reconstruct with a final bounded fetch.

        The command is parsed and planned exactly once; every replica
        receives the same :class:`~repro.query.plan.QueryPlan`.  Shards
        return (group → row bitmap) partials — a few bytes per matched
        group — and only the blocks (and rows) the coordinator actually
        keeps are rendered back into lines, by whichever replica ranks
        fastest (nodes keep no box cache, so the locate replica holds
        nothing warm for the fetch).  With
        ``limit`` the fetch stops at the block prefix covering the first
        *limit* matches (blocks partition the line-id space in name
        order), so a point lookup over a huge archive reconstructs a
        handful of blocks.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        stats = QueryStats()
        report = ClusterQueryReport(command, OutputMode.ROWS.value)
        plan = build_plan(
            command, OutputMode.ROWS, ignore_case,
            from_time=from_time, to_time=to_time,
        )
        _CLUSTER_QUERIES.inc(mode=plan.mode.value)
        with tracer.span("cluster.query", command=command) as qspan:
            with tracer.span("cluster.fan_out") as fan:
                def locate(nid: str, task: ShardTask):
                    with tracer.span(
                        "cluster.query_block",
                        parent=fan,
                        block=task.name,
                        node=nid,
                    ):
                        return self.nodes[nid].query_block(task.name, plan)

                outcomes = self._scatter(
                    self._shard_tasks(), locate, kind="rows"
                )
            # Gather on the coordinator thread, after the fan-out has
            # fully drained — per-shard stats never merge concurrently.
            report.add("rows", outcomes)
            total = 0
            for outcome in outcomes:
                stats.merge(outcome.stats)
                total += outcome.count
            entries = self._fetch_entries(plan, outcomes, limit, stats, report)
            stats.entries_matched = total
            qspan.set("blocks", len(outcomes))
            qspan.set("entries_matched", total)
        elapsed = time.perf_counter() - start
        report.elapsed_ms = elapsed * 1000.0
        self.last_report = report
        stats.publish(elapsed)
        return GrepResult(
            [text for _, text in entries],
            [line_id for line_id, _ in entries],
            stats,
            elapsed,
            report=report.render() if analyze else "",
        )

    def grep_many(
        self,
        commands: Sequence[str],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[GrepResult]:
        """Scatter one **multi-plan batch** per shard, gather per plan.

        Equivalent to ``[self.grep(c) for c in commands]``, but each
        replica serves all the plans from a single RPC through its
        shared-scan pass: one LoadBox per block for the whole batch, one
        prune decision and one Match per distinct term.  Gathers stay
        rowset-shaped; reconstruction remains a per-plan bounded fetch
        of exactly the kept rows.
        """
        commands = list(commands)
        if not commands:
            return []
        tracer = get_tracer()
        start = time.perf_counter()
        plans = [
            build_plan(
                command, OutputMode.ROWS, ignore_case,
                from_time=from_time, to_time=to_time,
            )
            for command in commands
        ]
        report = ClusterQueryReport(
            "; ".join(commands), OutputMode.ROWS.value
        )
        for plan in plans:
            _CLUSTER_QUERIES.inc(mode=plan.mode.value)
        with tracer.span(
            "cluster.query_batch", queries=len(plans)
        ) as qspan:
            with tracer.span("cluster.fan_out") as fan:
                def locate(nid: str, task: ShardTask):
                    with tracer.span(
                        "cluster.query_block_batch",
                        parent=fan,
                        block=task.name,
                        node=nid,
                    ):
                        return self.nodes[nid].query_block_batch(
                            task.name, plans
                        )

                outcomes = self._scatter(
                    self._shard_tasks(), locate, kind="rows"
                )
            report.add("rows", outcomes)
            results: List[Optional[GrepResult]] = [None] * len(plans)
            for pos, plan in enumerate(plans):
                stats = QueryStats()
                # Split each shard's batched payload back into per-plan
                # pseudo-outcomes so the bounded fetch (and its warm-
                # replica preference) is reused verbatim.  Wire bytes
                # stay on the batched outcome — the split carries none.
                per_plan = [
                    dataclasses.replace(
                        outcome,
                        payload=outcome.payload[pos][0],
                        count=outcome.payload[pos][1],
                        stats=outcome.payload[pos][2],
                        wire_bytes=0,
                    )
                    for outcome in outcomes
                ]
                total = 0
                for outcome in per_plan:
                    stats.merge(outcome.stats)
                    total += outcome.count
                entries = self._fetch_entries(
                    plans[pos], per_plan, limit, stats, report
                )
                stats.entries_matched = total
                elapsed = time.perf_counter() - start
                stats.publish(elapsed)
                results[pos] = GrepResult(
                    [text for _, text in entries],
                    [line_id for line_id, _ in entries],
                    stats,
                    elapsed,
                )
            qspan.set("blocks", len(outcomes))
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.last_report = report
        return [r for r in results if r is not None]

    def aggregate_many(
        self,
        specs: Sequence[Tuple[AggregateSpec, Optional[str]]],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> List[AggregateResult]:
        """Run many ``(spec, where)`` aggregates in one scatter.

        Each replica folds all the aggregate plans over one block open;
        shards ship one list of compact partials per RPC, merged per
        plan on the coordinator thread after the fan-out drains.
        """
        specs = list(specs)
        if not specs:
            return []
        start = time.perf_counter()
        plans = [
            build_aggregate_plan(
                spec, where, ignore_case=ignore_case,
                from_time=from_time, to_time=to_time,
            )
            for spec, where in specs
        ]
        for spec, _ in specs:
            _CLUSTER_AGG_QUERIES.inc(kind=spec.kind.value)
        outcomes = self._scatter(
            self._shard_tasks(),
            lambda nid, task: self.nodes[nid].query_block_batch(
                task.name, plans
            ),
            kind="partial",
        )
        report = ClusterQueryReport(
            "; ".join(where or "<all>" for _, where in specs),
            OutputMode.AGGREGATE.value,
        )
        report.add("partial", outcomes)
        elapsed = time.perf_counter() - start
        results: List[AggregateResult] = []
        for pos, (spec, _where) in enumerate(specs):
            stats = QueryStats()
            merged = make_partial(spec)
            matched = 0
            for outcome in outcomes:
                payload, count, plan_stats = outcome.payload[pos]
                stats.merge(plan_stats)
                matched += count
                if payload is not None:
                    merged.merge(payload)
                    _CLUSTER_AGG_PARTIALS.inc()
            stats.entries_matched = matched
            stats.publish(elapsed)
            results.append(
                AggregateResult(merged.finalize(spec), matched, stats, elapsed)
            )
        report.elapsed_ms = elapsed * 1000.0
        self.last_report = report
        return results

    def _fetch_entries(
        self,
        plan: QueryPlan,
        outcomes: Sequence[ShardOutcome],
        limit: Optional[int],
        stats: QueryStats,
        report: ClusterQueryReport,
    ) -> List[Entry]:
        """The bounded fetch: reconstruct only kept blocks/rows.

        Blocks partition the line-id space in name order, so a ``limit``
        is covered by the minimal prefix of matching blocks whose
        cumulative counts reach it.
        """
        hit = [o for o in outcomes if o.payload]
        if limit is not None:
            kept: List[ShardOutcome] = []
            covered = 0
            for outcome in hit:  # outcomes arrive in block-name order
                kept.append(outcome)
                covered += outcome.count
                if covered >= limit:
                    break
            hit = kept
        if not hit:
            return []
        # Any replica may serve the fetch: a node keeps no box cache, so
        # the one that served the locate reopens the box like the others,
        # and the replica ranking picks the fastest.
        tasks = [
            ShardTask(
                outcome.name, list(self._placement[outcome.name]), outcome.payload
            )
            for outcome in hit
        ]
        fetched = self._scatter(
            tasks,
            lambda nid, task: self.nodes[nid].reconstruct_rows(
                task.name, task.request  # type: ignore[arg-type]
            ),
            kind="lines",
        )
        report.add("lines", fetched)
        entries: List[Entry] = []
        for outcome in fetched:
            stats.merge(outcome.stats)
            entries.extend(outcome.payload)  # type: ignore[arg-type]
        entries.sort(key=lambda item: item[0])
        if limit is not None:
            entries = entries[:limit]
        return entries

    def count(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> int:
        """Distributed count: the same plan with reconstruction elided;
        shards ship a single integer each."""
        start = time.perf_counter()
        plan = build_plan(
            command, OutputMode.COUNT, ignore_case,
            from_time=from_time, to_time=to_time,
        )
        _CLUSTER_QUERIES.inc(mode=plan.mode.value)
        outcomes = self._scatter(
            self._shard_tasks(),
            lambda nid, task: self.nodes[nid].query_block(task.name, plan),
            kind="count",
        )
        report = ClusterQueryReport(command, plan.mode.value)
        report.add("count", outcomes)
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.last_report = report
        return sum(outcome.count for outcome in outcomes)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(
        self,
        spec: AggregateSpec,
        where: Optional[str] = None,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        analyze: bool = False,
    ) -> AggregateResult:
        """Distributed aggregate: one plan shipped, partials merged.

        The aggregate plan is built once and scattered like ``grep``;
        each serving replica runs the Aggregate operator over its block
        and returns a compact partial instead of reconstructed lines.
        Partial merging is commutative (Counter addition / multiset
        union), and the fold happens on the coordinator thread after the
        fan-out drains, so the delivery schedule never changes the
        result — the merged value is identical to a single-node run over
        the same lines.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        plan = build_aggregate_plan(
            spec, where, ignore_case=ignore_case,
            from_time=from_time, to_time=to_time,
        )
        stats = QueryStats()
        merged = make_partial(spec)
        matched = 0
        _CLUSTER_AGG_QUERIES.inc(kind=spec.kind.value)
        report = ClusterQueryReport(where or "<all>", plan.mode.value)
        with tracer.span(
            "cluster.aggregate", kind=spec.kind.value, where=where or ""
        ) as qspan:
            def fold(nid: str, task: ShardTask):
                with tracer.span(
                    "cluster.aggregate_block",
                    parent=qspan,
                    block=task.name,
                    node=nid,
                ):
                    return self.nodes[nid].aggregate_block(task.name, plan)

            outcomes = self._scatter(self._shard_tasks(), fold, kind="partial")
            report.add("partial", outcomes)
            for outcome in outcomes:
                stats.merge(outcome.stats)
                matched += outcome.count
                if outcome.payload is not None:
                    merged.merge(outcome.payload)
                    _CLUSTER_AGG_PARTIALS.inc()
            stats.entries_matched = matched
            qspan.set("blocks", len(outcomes))
            qspan.set("entries_matched", matched)
        elapsed = time.perf_counter() - start
        report.elapsed_ms = elapsed * 1000.0
        self.last_report = report
        stats.publish(elapsed)
        return AggregateResult(
            merged.finalize(spec),
            matched,
            stats,
            elapsed,
            report=report.render() if analyze else "",
        )

    def count_by(
        self, field: str, where: Optional[str] = None
    ) -> "Counter[str]":
        """Distributed ``GROUP BY field COUNT(*)`` from index cells."""
        spec = AggregateSpec(AggregateKind.COUNT_BY, field)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def top_k(
        self, field: str, k: int = 10, where: Optional[str] = None
    ) -> List[Tuple[str, int]]:
        spec = AggregateSpec(AggregateKind.TOP_K, field, k=k)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def stats_of(self, field: str, where: Optional[str] = None) -> NumericStats:
        spec = AggregateSpec(AggregateKind.STATS, field)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def timeseries(
        self, where: Optional[str] = None, buckets: int = 20
    ) -> List[Bucket]:
        """Hit counts over logical time, merged across the cluster.

        The coordinator assigned every global line id at ingest, so its
        ``_next_line_id`` is the archive's logical-clock extent.
        """
        total = self._next_line_id
        if total == 0 or buckets <= 0:
            return []
        spec = LogGrep._timeseries_spec(total, buckets)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(
        self, node_id: Optional[str] = None, rebalance: bool = True
    ) -> str:
        """Join a fresh node; by default rebalancing moves it its share
        of replicas (rendezvous hashing only relocates blocks that now
        score the new node highest)."""
        if node_id is None:
            i = len(self.nodes)
            while f"node-{i}" in self.nodes:
                i += 1
            node_id = f"node-{i}"
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        self._create_node(node_id)
        if rebalance:
            self.rebalance()
        return node_id

    def remove_node(self, node_id: str) -> int:
        """Decommission a node: drain its replicas to the survivors, drop
        it from membership.  Returns the replica copies created.

        The node may be dead — any surviving holder serves as the copy
        source; a block whose only copies sat on the leaving node (and on
        dead peers) raises :class:`ClusterError` before anything is
        dropped.
        """
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        survivors = [nid for nid in self._alive_ids() if nid != node_id]
        if len(survivors) < self.replication:
            raise ValueError(
                "removing the node would drop below the replication factor"
            )
        leaving = self.nodes[node_id]
        planned: Dict[str, List[str]] = {}
        sources: Dict[str, str] = {}
        for name in sorted(self._placement):
            desired = replica_nodes(name, survivors, self.replication)
            holders = [
                nid
                for nid in self._placement[name]
                if nid != node_id
                and self.nodes[nid].alive
                and self.nodes[nid].has_block(name)
            ]
            source = holders[0] if holders else (
                node_id
                if leaving.alive and leaving.has_block(name)
                else None
            )
            if source is None and any(
                target not in holders for target in desired
            ):
                raise ClusterError(
                    f"block {name} would become unreachable removing {node_id}"
                )
            planned[name] = desired
            if source is not None:
                sources[name] = source
        created = 0
        for name, desired in planned.items():
            for target in desired:
                if not self.nodes[target].has_block(name):
                    data, summary = self.nodes[sources[name]].fetch_block(name)
                    self.nodes[target].store_replica(name, data, summary)
                    created += 1
                    _CLUSTER_REBALANCE_MOVES.inc()
            self._placement[name] = desired
        del self.nodes[node_id]
        logger.info(
            "removed %s: %d replica copies drained", node_id, created
        )
        return created

    def rebalance(self) -> int:
        """Recompute rendezvous placement over the current alive
        membership and move replicas to match.  Returns copies + drops.

        Blocks with no reachable holder are left alone (their placement
        entry survives so a recovered holder restores service).
        """
        moves = 0
        alive = self._alive_ids()
        for name in sorted(self._placement):
            desired = replica_nodes(name, alive, self.replication)
            holders = [
                nid
                for nid, node in self.nodes.items()
                if node.alive and node.has_block(name)
            ]
            if not holders:
                continue  # unreachable until a holder recovers
            data: Optional[bytes] = None
            summary: Optional[BlockSummary] = None
            for target in desired:
                if target in holders:
                    continue
                if data is None:
                    data, summary = self.nodes[holders[0]].fetch_block(name)
                self.nodes[target].store_replica(name, data, summary)
                moves += 1
                _CLUSTER_REBALANCE_MOVES.inc()
            for holder in holders:
                if holder not in desired:
                    self.nodes[holder].drop_block(name)
                    moves += 1
                    _CLUSTER_REBALANCE_MOVES.inc()
            self._placement[name] = desired
        if moves:
            logger.info("rebalance moved %d replica copies", moves)
        return moves

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Re-replicate under-replicated blocks onto alive nodes.

        Returns the number of replica copies created.  Run after a node is
        declared permanently lost.
        """
        created = 0
        alive = self._alive_ids()
        for name, replicas in self._placement.items():
            holders = [
                nid
                for nid in replicas
                if self.nodes[nid].alive and self.nodes[nid].has_block(name)
            ]
            if not holders:
                continue  # data unreachable until a holder recovers
            missing = self.replication - len(holders)
            if missing <= 0:
                continue
            data, summary = self.nodes[holders[0]].fetch_block(name)
            for candidate in replica_nodes(name, alive, len(alive)):
                if missing == 0:
                    break
                if candidate in holders:
                    continue
                self.nodes[candidate].store_replica(name, data, summary)
                holders.append(candidate)
                created += 1
                missing -= 1
            self._placement[name] = holders
        if created:
            logger.info("repair created %d replica copies", created)
        return created

    def stats(self) -> ClusterStats:
        return ClusterStats(
            nodes=len(self.nodes),
            alive_nodes=len(self._alive_ids()),
            blocks=len(self._placement),
            replication=self.replication,
            blocks_per_node={
                nid: len(node.block_names()) for nid, node in self.nodes.items()
            },
            bytes_per_node={
                nid: node.storage_bytes() for nid, node in self.nodes.items()
            },
        )

    def storage_bytes(self) -> int:
        """Total bytes across all replicas (what a cluster actually pays)."""
        return sum(node.storage_bytes() for node in self.nodes.values())

    def close(self) -> None:
        self._engine.close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ClusterLogGrep":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
