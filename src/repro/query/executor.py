"""Physical operator pipeline executing a :class:`QueryPlan` over blocks.

This is the single execution path behind ``LogGrep.grep``, ``count``,
``explain``, interactive sessions and the cluster's per-node block
queries.  Per block the pipeline is::

    BloomPrune → LoadBox → Locate → Match* → Reconstruct

* **BloomPrune** — drops the block when no disjunct can match.  With the
  persistent prune index loaded (``config.use_prune_index``) the check
  runs entirely on the in-memory :class:`BlockSummary` — bloom bits and
  the block charset mask — costing **zero** store reads for a pruned
  block.  Without an index entry, only the Bloom section is fetched via
  a ranged read against the box TOC; a prune never reads the whole blob.
* **LoadBox** — opens the CapsuleBox, or reuses a pinned box from the
  bounded :class:`BoxCache` (interactive refining sessions).  Under lazy
  I/O (``config.lazy_io``, the default) opening fetches only the header,
  Bloom and metadata sections; capsule payloads are ranged-read on first
  access, and Reconstruct batch-prefetches the hit groups' payloads with
  coalesced reads.  With ``lazy_io=False`` the whole blob is read and
  deserialized eagerly — the differential oracle for the lazy path.
* **Locate** — evaluates the plan's selectivity-ordered terms with the
  row-set algebra of :class:`~repro.query.engine.BlockEngine`.
* **Match** — resolves one search string to per-group row sets; memoized
  on ``(block, search.cache_key)`` in the shared
  :class:`~repro.query.cache.QueryCache` when configured.
* **Reconstruct** — rebuilds the original entries of the located rows;
  elided entirely for ``COUNT`` plans, and the whole pipeline downstream
  of LoadBox is replaced by a dry-run rendering for ``EXPLAIN`` plans.

Blocks are independent, so the executor schedules them either serially or
on a thread pool (``config.query_parallelism``); per-block
:class:`QueryStats` are merged in block order either way.  Obs spans sit
on the operator boundaries — ``query → plan / block → block_filter /
load_box / locate → match → decompress / reconstruct`` — so trace stage
names are stable regardless of the caller.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..blockstore.blobsource import BlobSource, StoreBlobSource
from ..blockstore.index import ArchiveIndex, BlockSummary
from ..capsule.box import CapsuleBox, _capsules_of
from ..common.errors import BudgetExceeded
from ..obs import ledger as ledger_channel
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .aggregate import AggregatePartial, AggregateSpec, make_partial
from .blockfilter import command_might_match, summary_might_match
from .cache import QueryCache
from .engine import BlockEngine, GroupRows
from .language import QueryCommand, SearchString
from .modes import AggregateKind
from .plan import OutputMode, QueryPlan, build_plan
from .schema import FieldRef, schema_of
from .stats import NULL_LEDGER, BudgetMeter, QueryLedger, QueryStats
from .vectors import NominalVectorReader

_BOX_HITS = get_registry().counter(
    "loggrep_box_cache_hits_total", "Box cache lookups that hit"
)
_BOX_MISSES = get_registry().counter(
    "loggrep_box_cache_misses_total", "Box cache lookups that missed"
)
_BOX_EVICTIONS = get_registry().counter(
    "loggrep_box_cache_evictions_total", "Boxes evicted by the LRU bound"
)
_BOX_ENTRIES = get_registry().gauge(
    "loggrep_box_cache_entries", "Deserialized boxes currently pinned"
)
_AGG_QUERIES = get_registry().counter(
    "loggrep_agg_queries_total", "Aggregate plans executed, by kind"
)
_AGG_ROWS = get_registry().counter(
    "loggrep_agg_rows_total", "Rows folded into partial aggregates"
)
_AGG_INDEX_ROWS = get_registry().counter(
    "loggrep_agg_index_rows_total",
    "Rows aggregated via raw index-cell counting (no value decode)",
)
_AGG_DECODED_ROWS = get_registry().counter(
    "loggrep_agg_decoded_rows_total",
    "Rows aggregated by decoding values (real/plain vectors)",
)
_AGG_PARTIALS = get_registry().counter(
    "loggrep_agg_partials_merged_total",
    "Per-block partial aggregates merged into query results",
)

#: One reconstructed entry: (global line id, original text).
Entry = Tuple[int, str]


class BoxCache:
    """A small bounded LRU of deserialized CapsuleBoxes.

    Pinned refining sessions keep boxes across queries; the bound keeps a
    pin of a large archive from holding every deserialized block at once.
    Thread-safe: parallel block schedulers share one instance.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("box cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CapsuleBox]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, name: str) -> Optional[CapsuleBox]:
        with self._lock:
            box = self._entries.get(name)
            if box is None:
                _BOX_MISSES.inc()
                return None
            self._entries.move_to_end(name)
            _BOX_HITS.inc()
            return box

    def put(self, name: str, box: CapsuleBox) -> None:
        with self._lock:
            self._entries[name] = box
            self._entries.move_to_end(name)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                _BOX_EVICTIONS.inc()
            _BOX_ENTRIES.set(len(self._entries))

    def pop(self, name: str) -> Optional[CapsuleBox]:
        """Drop one block's box (e.g. after the block is rewritten)."""
        with self._lock:
            box = self._entries.pop(name, None)
            _BOX_ENTRIES.set(len(self._entries))
            return box

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            _BOX_ENTRIES.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


class StoreBoxSource:
    """Adapts an archive store (+ optional pin cache) to the executor.

    The executor needs four things from storage: the block names, the raw
    serialized bytes of one block, a possibly-pinned deserialized box,
    and — for the lazy-I/O path — a :class:`BlobSource` over one block
    plus the block's prune-index summary.  Anything that provides those —
    a local store, a cluster node's replica store — can sit behind the
    same pipeline; stores without ranged reads simply fall back to
    whole-blob loading.
    """

    def __init__(
        self,
        store: object,
        box_cache: Optional[BoxCache] = None,
        index: Optional[ArchiveIndex] = None,
        templates: object = None,
    ):
        self.store = store
        self.box_cache = box_cache
        self.index = index
        #: Resolver for shared-format (flag 0x01) boxes; None for archives
        #: that are fully inline.
        self.templates = templates
        self._ranged = hasattr(store, "get_range") and hasattr(store, "size")

    def names(self) -> List[str]:
        return self.store.names()  # type: ignore[attr-defined]

    def raw(self, name: str) -> bytes:
        data: bytes = self.store.get(name)  # type: ignore[attr-defined]
        # The eager-I/O counterpart of StoreBlobSource.read's charge: every
        # whole-blob load bills the open operator (and the read budget).
        ledger_channel.charge_blob_read(len(data))
        return data

    def blob(self, name: str) -> Optional[BlobSource]:
        """Ranged access to one block, when the store supports it."""
        if not self._ranged:
            return None
        return StoreBlobSource(self.store, name)

    def summary(self, name: str) -> Optional[BlockSummary]:
        """The prune-index entry for one block, when an index is loaded."""
        if self.index is None:
            return None
        return self.index.get(name)

    def cached(self, name: str) -> Optional[CapsuleBox]:
        if self.box_cache is None:
            return None
        return self.box_cache.get(name)


@dataclass
class BlockOutcome:
    """What one block contributed to a query."""

    name: str
    pruned: bool = False
    entries: List[Entry] = field(default_factory=list)
    count: int = 0
    rendering: Optional[str] = None  # EXPLAIN mode only
    #: Per-block partial aggregate (aggregate plans only).
    partial: Optional[AggregatePartial] = None
    #: Located per-group row sets (``ROWS`` plans only): the compact
    #: shippable form of a grep hit — reconstruction is deferred to a
    #: later :meth:`QueryExecutor.reconstruct_rows` call.
    rows: Optional[GroupRows] = None


@dataclass
class ExecutionResult:
    """The merged outcome of one plan execution."""

    plan: QueryPlan
    entries: List[Entry]
    stats: QueryStats
    elapsed: float
    renderings: List[str] = field(default_factory=list)
    #: Per-query resource accounting; NULL_LEDGER unless ANALYZE mode, a
    #: slow-query threshold or a budget activated it.
    ledger: QueryLedger = NULL_LEDGER
    #: The merged partial aggregate (aggregate plans only); callers
    #: ``finalize`` it against the plan's spec.
    aggregate: Optional[AggregatePartial] = None
    #: Per-block located row sets (``ROWS`` plans only), keyed by block
    #: name; feed them back through :meth:`QueryExecutor.reconstruct_rows`.
    rowsets: Dict[str, GroupRows] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.stats.entries_matched

    @property
    def rendering(self) -> str:
        return "\n\n".join(self.renderings)


class QueryExecutor:
    """Runs query plans over every block of one box source."""

    def __init__(
        self,
        source: StoreBoxSource,
        config: object,
        cache: Optional[QueryCache] = None,
    ):
        self.source = source
        self.config = config
        self.cache = cache

    # ------------------------------------------------------------------
    # plan-level driver
    # ------------------------------------------------------------------
    def run(
        self,
        command: Union[str, QueryCommand, QueryPlan],
        mode: OutputMode = OutputMode.LINES,
        ignore_case: bool = False,
    ) -> ExecutionResult:
        """Plan (if needed) and execute a command over every block."""
        tracer = get_tracer()
        start = time.perf_counter()
        stats = QueryStats()
        raw = command.raw if not isinstance(command, str) else command
        effective_mode = (
            command.mode if isinstance(command, QueryPlan) else mode
        )
        ledger = self._make_ledger(effective_mode)
        attrs: Dict[str, object] = {"command": raw}
        if effective_mode is not OutputMode.LINES:
            attrs["mode"] = effective_mode.value
        try:
            with tracer.span("query", **attrs) as qspan:
                with tracer.span("plan"), ledger.operator("plan"):
                    if isinstance(command, QueryPlan):
                        plan = command
                    else:
                        plan = build_plan(command, mode, ignore_case)
                names = self.source.names()
                outcomes = self._schedule(names, plan, stats, qspan, ledger)
                entries: List[Entry] = []
                renderings: List[str] = []
                rowsets: Dict[str, GroupRows] = {}
                merged: Optional[AggregatePartial] = None
                total = 0
                for outcome in outcomes:
                    entries.extend(outcome.entries)
                    total += outcome.count
                    if outcome.rendering is not None:
                        renderings.append(outcome.rendering)
                    if outcome.rows is not None:
                        rowsets[outcome.name] = outcome.rows
                    if outcome.partial is not None:
                        # Partial merge is commutative, so the block-order
                        # fold here equals any completion-order fold.
                        if merged is None:
                            merged = make_partial(plan.aggregate)
                        merged.merge(outcome.partial)
                        _AGG_PARTIALS.inc()
                entries.sort(key=lambda item: item[0])
                stats.entries_matched = total
                if (
                    plan.aggregate is not None
                    and plan.mode is not OutputMode.EXPLAIN
                ):
                    if merged is None:
                        merged = make_partial(plan.aggregate)
                    _AGG_QUERIES.inc(kind=plan.aggregate.kind.value)
                    _AGG_ROWS.inc(merged.rows)
                    qspan.set("aggregate_rows", merged.rows)
                qspan.set("blocks", len(names))
                qspan.set("entries_matched", stats.entries_matched)
                qspan.set("capsules_decompressed", stats.capsules_decompressed)
                qspan.set("bytes_decompressed", stats.bytes_decompressed)
        except BudgetExceeded as exc:
            # The per-block ledgers were merged by _schedule's finally, so
            # the exception carries the partial bill up to the caller.
            exc.ledger = ledger
            raise
        elapsed = time.perf_counter() - start
        if plan.mode is not OutputMode.EXPLAIN:
            stats.publish(elapsed)
        self._maybe_log_slow(plan, stats, ledger, elapsed)
        return ExecutionResult(
            plan, entries, stats, elapsed, renderings, ledger, merged,
            rowsets,
        )

    def _make_ledger(self, mode: OutputMode) -> QueryLedger:
        """An active ledger when anything will consume it, else the null
        object (which keeps the charge channel empty — zero overhead)."""
        max_read = getattr(self.config, "max_read_bytes", None)
        max_decoded = getattr(self.config, "max_decoded_values", None)
        slow_ms = getattr(self.config, "slow_query_ms", None)
        if (
            mode is not OutputMode.ANALYZE
            and slow_ms is None
            and max_read is None
            and max_decoded is None
        ):
            return NULL_LEDGER
        budget = (
            BudgetMeter(max_read, max_decoded)
            if max_read is not None or max_decoded is not None
            else None
        )
        return QueryLedger(budget)

    def _maybe_log_slow(
        self,
        plan: QueryPlan,
        stats: QueryStats,
        ledger: QueryLedger,
        elapsed: float,
    ) -> None:
        """Emit one slow-query record when the query crossed the threshold."""
        threshold = getattr(self.config, "slow_query_ms", None)
        if threshold is None or elapsed * 1000.0 < threshold:
            return
        from ..obs import slowlog

        record = slowlog.build_record(
            query=plan.raw,
            mode=plan.mode.value,
            elapsed_ms=elapsed * 1000.0,
            threshold_ms=float(threshold),
            plan=self.describe(plan),
            stats=stats.as_dict(),
            ledger=ledger.as_dict() if ledger.enabled else None,
        )
        slowlog.emit(record, getattr(self.config, "slow_query_log_path", None))

    def _schedule(
        self,
        names: List[str],
        plan: QueryPlan,
        stats: QueryStats,
        qspan: object,
        ledger: QueryLedger = NULL_LEDGER,
    ) -> List[BlockOutcome]:
        """Run every block, serially or on a thread pool, merging stats
        in block order either way."""
        tracer = get_tracer()
        parallelism = getattr(self.config, "query_parallelism", 1)

        def run_one(name: str, spawn: bool = True) -> Tuple[BlockOutcome, QueryStats]:
            block_stats = QueryStats()
            # One child ledger per block: a block runs wholly on one
            # thread, so its charges never race; the children are folded
            # back below once the pool has drained.  Serial execution has
            # no races to isolate, so it charges the root directly.
            block_ledger = ledger.spawn() if spawn else ledger
            with tracer.span("block", parent=qspan, block=name):
                outcome = self.execute_block(
                    name, plan, block_stats, block_ledger
                )
            return outcome, block_stats

        try:
            if parallelism > 1 and len(names) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(parallelism) as pool:
                    pairs = list(pool.map(run_one, names))
            else:
                pairs = [run_one(name, spawn=False) for name in names]
        finally:
            # Runs after the pool has exited (its with-block joins every
            # worker), so merging is race-free even when a BudgetExceeded
            # is propagating — the partial ledger stays consistent.
            ledger.merge_children()
        outcomes: List[BlockOutcome] = []
        for outcome, block_stats in pairs:
            stats.merge(block_stats)
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    # per-block operator pipeline
    # ------------------------------------------------------------------
    def execute_block(
        self,
        name: str,
        plan: QueryPlan,
        stats: QueryStats,
        ledger: QueryLedger = NULL_LEDGER,
    ) -> BlockOutcome:
        """BloomPrune → LoadBox → Locate/Match → Reconstruct for one block."""
        tracer = get_tracer()
        stats.blocks_visited += 1
        box = self.source.cached(name)
        if self.source.box_cache is not None:
            ledger.charge_box_cache(box is not None)
        data: Optional[bytes] = None
        use_bloom = bool(getattr(self.config, "use_block_bloom", False))
        summary = (
            self.source.summary(name)
            if getattr(self.config, "use_prune_index", True)
            else None
        )
        # -- TimePrune: a block whose sidecar timestamp range is disjoint
        # from the plan's wall-clock window is skipped before any Bloom or
        # stamp check — zero store reads.  Runs even for match-all
        # aggregates (no disjuncts needed); blocks without a known range
        # conservatively survive.
        if (
            box is None
            and summary is not None
            and (plan.from_time is not None or plan.to_time is not None)
            and not summary.in_time_range(plan.from_time, plan.to_time)
        ):
            stats.blocks_pruned += 1
            stats.blocks_time_pruned += 1
            rendering = (
                f"block {name}: pruned by time window "
                f"(block range [{summary.min_ts}, {summary.max_ts}] outside "
                f"[{plan.from_time}, {plan.to_time}])"
                if plan.mode is OutputMode.EXPLAIN
                else None
            )
            return BlockOutcome(name, pruned=True, rendering=rendering)
        # -- BloomPrune: with an index entry the whole check runs in
        # memory (zero store reads); otherwise only the Bloom section is
        # fetched via the TOC — a prune never pays a whole-blob read.
        # A match-all aggregate (no disjuncts) can never be pruned, so
        # the filter is skipped outright.
        if box is None and plan.disjuncts and (use_bloom or summary is not None):
            with tracer.span("block_filter") as fspan, ledger.operator(
                "block_filter"
            ):
                via = "prune index"
                if summary is not None:
                    settings = self._settings()
                    pruned = not summary_might_match(
                        summary,
                        plan.command,
                        use_stamps=getattr(settings, "use_stamps", True),
                        use_bloom=use_bloom,
                    )
                else:
                    via = "block-level Bloom filter"
                    bloom, data = self._read_bloom(name)
                    pruned = bloom is not None and not command_might_match(
                        bloom, plan.command
                    )
                fspan.set("pruned", pruned)
            if pruned:
                stats.blocks_pruned += 1
                rendering = (
                    f"block {name}: pruned by {via} "
                    "(no disjunct survives the mask/trigram checks)"
                    if plan.mode is OutputMode.EXPLAIN
                    else None
                )
                return BlockOutcome(name, pruned=True, rendering=rendering)
        # -- LoadBox
        if box is None:
            with tracer.span("load_box") as lspan, ledger.operator("load_box"):
                box = self._open_box(name, data)
                source = box._source
                if isinstance(source, StoreBlobSource):
                    lspan.set("bytes", source.bytes_read)
        # -- EXPLAIN: dry-run the remaining operators into a rendering.
        if plan.mode is OutputMode.EXPLAIN:
            from .explain import explain_block

            return BlockOutcome(
                name, rendering=explain_block(box, plan, name).summary()
            )
        # -- Locate (calling Match per search string).  A match-all
        # aggregate has nothing to locate: every row of every group.
        engine = BlockEngine(box, self._settings(), stats)
        with tracer.span("locate") as lspan, ledger.operator("locate"):
            if plan.disjuncts:
                hits = engine.execute(
                    plan, self._matcher(name, engine, stats, ledger)
                )
            else:
                hits = engine.full_rows()
            lspan.set("groups_hit", len(hits))
        count = sum(len(rows) for rows in hits.values())
        # -- ROWS: ship the located row sets themselves (bitmaps — a few
        # bytes per group) and let the caller defer reconstruction to a
        # bounded fetch; the cluster's grep gather path.
        if plan.mode is OutputMode.ROWS:
            return BlockOutcome(
                name, count=count,
                rows={g: rows for g, rows in hits.items() if rows},
            )
        # -- Aggregate (replaces Reconstruct for aggregate plans): fold
        # the located rows into a per-block partial without rebuilding a
        # single line.  ANALYZE aggregates run the same operator with the
        # ledger active.
        if plan.aggregate is not None:
            with tracer.span(
                "aggregate", kind=plan.aggregate.kind.value
            ) as aspan, ledger.operator("aggregate"):
                partial = self._aggregate_block(
                    box, engine, plan.aggregate, hits
                )
                aspan.set("rows", partial.rows)
            return BlockOutcome(name, count=count, partial=partial)
        # -- Reconstruct (elided for COUNT plans; ANALYZE runs it in full
        # so the ledger reflects what a real LINES query would cost)
        entries: List[Entry] = []
        if plan.mode in (OutputMode.LINES, OutputMode.ANALYZE) and hits:
            from ..core.reconstructor import BlockReconstructor

            with tracer.span("reconstruct") as rspan, ledger.operator(
                "reconstruct"
            ):
                # Reconstruction touches every vector of each hit group;
                # batch the still-unfetched payloads into coalesced
                # ranged reads instead of one read per capsule.
                prefetched = box.prefetch(hits.keys())
                if prefetched:
                    rspan.set("prefetched_bytes", prefetched)
                reconstructor = BlockReconstructor(
                    box, self._settings(), stats, readers=engine.readers
                )
                entries = reconstructor.reconstruct(hits)
                rspan.set("entries", len(entries))
        return BlockOutcome(name, entries=entries, count=count)

    # ------------------------------------------------------------------
    # deferred reconstruction (the second half of a ROWS query)
    # ------------------------------------------------------------------
    def reconstruct_rows(
        self,
        name: str,
        hits: GroupRows,
        stats: Optional[QueryStats] = None,
    ) -> List[Entry]:
        """Rebuild the original entries of pre-located rows of one block.

        The bounded-fetch half of the ROWS protocol: a coordinator that
        gathered row sets calls back (on any replica holding the block)
        with exactly the rows it still wants rendered.  Loads go through
        the shared BoxCache/lazy-I/O path; only the hit groups' capsule
        payloads are fetched, coalesced.
        """
        from ..core.reconstructor import BlockReconstructor

        stats = stats if stats is not None else QueryStats()
        hits = {g: rows for g, rows in hits.items() if rows}
        if not hits:
            return []
        tracer = get_tracer()
        with tracer.span("reconstruct", block=name) as rspan:
            box = self.load_box(name)
            prefetched = box.prefetch(hits.keys())
            if prefetched:
                rspan.set("prefetched_bytes", prefetched)
            reconstructor = BlockReconstructor(box, self._settings(), stats)
            entries = reconstructor.reconstruct(hits)
            rspan.set("entries", len(entries))
        return entries

    # ------------------------------------------------------------------
    # the Aggregate operator
    # ------------------------------------------------------------------
    def _aggregate_block(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
    ) -> AggregatePartial:
        """Fold one block's located rows into a partial aggregate.

        Dictionary index cells and group metadata do almost all the work:

        * ``COUNT_BY_TEMPLATE`` counts row sets per static pattern —
          zero capsule payloads touched;
        * ``HISTOGRAM`` buckets ``first_line_id + line_ids[row]`` — the
          logical clock, again zero payloads;
        * field aggregates go through the readers' ``value_counts``: on
          nominal vectors that is raw index-cell counting (payload reads
          proportional to *distinct* values), real/plain vectors decode —
          the documented residual slow path.
        """
        partial = make_partial(spec)
        if spec.kind is AggregateKind.COUNT_BY_TEMPLATE:
            for group_idx, rows in hits.items():
                partial.add(  # type: ignore[attr-defined]
                    box.groups[group_idx].template.display(), len(rows)
                )
            return partial
        if spec.kind is AggregateKind.HISTOGRAM:
            for group_idx, rows in hits.items():
                line_ids = box.groups[group_idx].line_ids
                base = box.first_line_id
                for row in rows:
                    partial.add_line(base + line_ids[row], spec)  # type: ignore[attr-defined]
            return partial
        if spec.kind is AggregateKind.PAIRS:
            self._aggregate_pairs(box, engine, spec, hits, partial)
            return partial
        if spec.kind is AggregateKind.VALUES:
            self._aggregate_values(box, engine, spec, hits, partial)
            return partial
        # COUNT_BY / TOP_K / STATS: per-distinct-value counts suffice.
        refs = schema_of(box).by_name(spec.field or "")
        _fetch_fields(box, refs, hits)
        for ref in refs:
            rows = hits.get(ref.group_index)
            if not rows:
                continue
            if ref.is_constant:
                partial.add(ref.constant or "", len(rows))  # type: ignore[attr-defined]
                continue
            reader = engine.reader(ref.group_index, ref.var_index)
            counts = reader.value_counts(rows)
            if isinstance(reader, NominalVectorReader):
                _AGG_INDEX_ROWS.inc(len(rows))
            else:
                _AGG_DECODED_ROWS.inc(len(rows))
            for value, n in counts.items():
                partial.add(ref.clean(value), n)  # type: ignore[attr-defined]
        return partial

    def _column_values(
        self,
        engine: BlockEngine,
        ref: FieldRef,
        rows: object,
    ) -> List[str]:
        """One field's (cleaned) values for the given row set, in row
        order — the VALUES/PAIRS extraction path."""
        if ref.is_constant:
            return [ref.constant or ""] * len(rows)  # type: ignore[arg-type]
        reader = engine.reader(ref.group_index, ref.var_index)
        _AGG_DECODED_ROWS.inc(len(rows))  # type: ignore[arg-type]
        if rows.is_full():  # type: ignore[attr-defined]
            return [ref.clean(value) for value in reader.values_list()]
        return [ref.clean(reader.value_at(row)) for row in rows]  # type: ignore[attr-defined]

    def _aggregate_values(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
        partial: AggregatePartial,
    ) -> None:
        refs = schema_of(box).by_name(spec.field or "")
        _fetch_fields(box, refs, hits)
        chunk: List[str] = []
        for ref in refs:
            rows = hits.get(ref.group_index)
            if not rows:
                continue
            chunk.extend(self._column_values(engine, ref, rows))
        if chunk:
            partial.add_chunk(box.first_line_id, chunk)  # type: ignore[attr-defined]

    def _aggregate_pairs(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
        partial: AggregatePartial,
    ) -> None:
        """(key, value) extraction: both fields must share a group (the
        same template) for their rows to join."""
        schema = schema_of(box)
        value_refs = {
            ref.group_index: ref
            for ref in schema.by_name(spec.value_field or "")
        }
        key_refs = [
            ref
            for ref in schema.by_name(spec.field or "")
            if ref.group_index in value_refs
        ]
        _fetch_fields(
            box, key_refs + [value_refs[ref.group_index] for ref in key_refs], hits
        )
        chunk: List[Tuple[str, str]] = []
        for key_ref in key_refs:
            value_ref = value_refs[key_ref.group_index]
            rows = hits.get(key_ref.group_index)
            if not rows:
                continue
            keys = self._column_values(engine, key_ref, rows)
            values = self._column_values(engine, value_ref, rows)
            chunk.extend(zip(keys, values))
        if chunk:
            partial.add_chunk(box.first_line_id, chunk)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # box loading (shared by the pipeline, pinning and decompress_all)
    # ------------------------------------------------------------------
    def _read_bloom(
        self, name: str
    ) -> Tuple[Optional[object], Optional[bytes]]:
        """The block's Bloom filter, via a ranged TOC read when possible.

        Returns ``(bloom, data)`` where *data* is the full blob iff the
        store forced a whole-blob fallback (reused by LoadBox).
        """
        blob = self.source.blob(name)
        if blob is not None:
            return CapsuleBox.open_bloom(blob), None
        data = self.source.raw(name)
        return CapsuleBox.read_bloom(data), data

    def _open_box(self, name: str, data: Optional[bytes] = None) -> CapsuleBox:
        """Open one box: lazily through ranged reads when configured and
        supported, else from the whole blob."""
        templates = getattr(self.source, "templates", None)
        if data is not None:
            return CapsuleBox.deserialize(data, templates=templates)
        blob = (
            self.source.blob(name)
            if getattr(self.config, "lazy_io", True)
            else None
        )
        if blob is not None:
            return CapsuleBox.open(blob, templates=templates)
        return CapsuleBox.deserialize(self.source.raw(name), templates=templates)

    def load_box(self, name: str, pin: bool = False) -> CapsuleBox:
        """Load (or reuse) one block's box outside a query.

        This is the same path queries take through the shared
        :class:`BoxCache`: pinned boxes (``pin=True``, refining sessions)
        and query-time boxes share one LRU and one set of metrics instead
        of deserializing the blob twice.
        """
        box = self.source.cached(name)
        if box is None:
            box = self._open_box(name)
            if pin and self.source.box_cache is not None:
                self.source.box_cache.put(name, box)
        return box

    def _matcher(
        self,
        name: str,
        engine: BlockEngine,
        stats: QueryStats,
        ledger: QueryLedger = NULL_LEDGER,
    ) -> Callable[[SearchString], GroupRows]:
        """The Match operator: engine search memoized per (block, search)."""
        tracer = get_tracer()
        use_cache = (
            self.cache is not None
            and getattr(self.config, "use_query_cache", False)
        )
        # One reusable timer for the whole block: match runs once per
        # (group, search) pair — the hottest operator boundary by far.
        match_timer = ledger.operator("match")

        def match(search: SearchString) -> GroupRows:
            with tracer.span(
                "match", search=search.cache_key
            ) as mspan, match_timer:
                if use_cache:
                    cached = self.cache.get(name, search.cache_key)  # type: ignore[union-attr]
                    if cached is not None:
                        stats.cache_hits += 1
                        mspan.set("cache_hit", True)
                        return cached
                rows = engine.search_string_rows(search)
                if use_cache:
                    self.cache.put(name, search.cache_key, rows)  # type: ignore[union-attr]
                return rows

        return match

    def _settings(self) -> object:
        return self.config.query_settings()  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def describe(self, plan: QueryPlan) -> str:
        """The physical plan: operators, scheduler, term order."""
        bloom = "on" if getattr(self.config, "use_block_bloom", False) else "off"
        cache = (
            "on"
            if self.cache is not None
            and getattr(self.config, "use_query_cache", False)
            else "off"
        )
        if plan.aggregate is not None and plan.mode is not OutputMode.EXPLAIN:
            tail = f"Aggregate({plan.aggregate.describe()})"
        elif plan.mode in (OutputMode.LINES, OutputMode.ANALYZE):
            tail = "Reconstruct"
        elif plan.mode is OutputMode.COUNT:
            tail = "Reconstruct(elided)"
        elif plan.mode is OutputMode.ROWS:
            tail = "ShipRowSets -> Reconstruct(deferred)"
        else:
            tail = "Reconstruct(dry-run)"
        parallelism = getattr(self.config, "query_parallelism", 1)
        scheduler = (
            f"thread-pool({parallelism})" if parallelism > 1 else "serial"
        )
        io = "lazy (ranged reads)" if getattr(self.config, "lazy_io", True) else "eager (whole blobs)"
        index = (
            f"loaded ({len(self.source.index)} block(s))"
            if self.source.index is not None
            and getattr(self.config, "use_prune_index", True)
            else "off"
        )
        lines = [
            f"physical plan for {plan.raw!r} (mode={plan.mode.value})",
            f"  pipeline: BloomPrune({bloom}) -> LoadBox -> Locate -> "
            f"Match(query_cache={cache}) -> {tail}",
            f"  io: {io}; prune index: {index}",
            f"  scheduler: {scheduler} over {len(self.source.names())} block(s)",
        ]
        for i, disjunct in enumerate(plan.disjuncts):
            lines.append(f"  disjunct {i}: {disjunct.describe()}")
        return "\n".join(lines)


def _fetch_fields(
    box: CapsuleBox, refs: Sequence[FieldRef], hits: GroupRows
) -> None:
    """Fetch the Capsules of every field reference with hit rows in one
    coalesced pass, instead of a store request per Capsule as the
    Aggregate operator reads them."""
    box.fetch(
        capsule
        for ref in refs
        if not ref.is_constant and hits.get(ref.group_index)
        for capsule in _capsules_of(
            box.groups[ref.group_index].vectors[ref.var_index]
        )
    )
