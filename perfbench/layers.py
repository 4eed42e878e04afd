"""The layer table: what the traced run wraps and the per-layer metrics.

Each wrap target is named where its caller looks it up (for example
``repro.core.schedule:parse_block``, not where ``parse_block`` is
defined), so only the calls on the measured path are seen.  Counter
metrics are deltas of the program's own ``loggrep_*`` registry counters
taken around the traced phase.

A per-layer metric is reported missing — not zero, and without failing
the run — when every wrap target it depends on is gone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .tracing import Target, totals

_STORES = ("ArchiveStore", "MemoryStore")

TARGETS: Tuple[Target, ...] = (
    # -- write path ----------------------------------------------------
    Target("repro.core.schedule:parse_block", "staticparse.parse"),
    Target("repro.capsule.assembler:extract_real_pattern", "runtime.extract"),
    Target("repro.capsule.assembler:extract_nominal", "runtime.extract"),
    Target("repro.runtime.pattern:RuntimePattern.match", "runtime.pattern_match", "count"),
    Target("repro.core.schedule:encode_parsed", "capsule.encode"),
    Target("repro.capsule.stamp:CapsuleStamp.of_values", "capsule.stamp"),
    Target("repro.capsule.capsule:_lzma_compress", "capsule.codec"),
    Target("repro.capsule.capsule:zlib.compress", "capsule.codec"),
    *(
        Target(f"repro.blockstore.store:{cls}.{method}", "blockstore.write", data_arg=2)
        for cls in _STORES
        for method in ("put", "put_aux")
    ),
    Target("repro.core.schedule:save_index", "blockstore.index"),
    Target("repro.core.lifecycle:save_index", "blockstore.index"),
    Target("repro.blockstore.index:BlockSummary.from_box", "blockstore.index"),
    Target("repro.core.loggrep:LogGrep.compress", "core.compress"),
    Target("repro.core.lifecycle:LifecycleManager._load_box", "lifecycle.read"),
    Target("repro.core.reconstructor:BlockReconstructor.all_lines", "lifecycle.read"),
    Target("repro.core.lifecycle:compress_block", "lifecycle.encode"),
    # -- read path -----------------------------------------------------
    Target("repro.core.loggrep:build_plan", "query.plan"),
    Target("repro.core.loggrep:build_aggregate_plan", "query.plan"),
    Target("repro.cluster.coordinator:build_plan", "query.plan"),
    Target("repro.cluster.coordinator:build_aggregate_plan", "query.plan"),
    Target("repro.core.loggrep:load_index", "blockstore.index_load"),
    *(
        Target(f"repro.blockstore.store:{cls}.{method}", "blockstore.read")
        for cls in _STORES
        for method in ("get", "get_range")
    ),
    Target("repro.blockstore.remote:RemoteStore.get", "blockstore.read"),
    Target("repro.blockstore.remote:RemoteStore.get_range", "blockstore.read"),
    Target("repro.capsule.box:CapsuleBox.open", "capsule.box_open"),
    Target("repro.capsule.box:CapsuleBox.deserialize", "capsule.box_open"),
    Target("repro.capsule.capsule:_lzma_decompress", "capsule.decode"),
    Target("repro.capsule.capsule:zlib.decompress", "capsule.decode"),
    Target("repro.query.vectors:locate", "query.locate"),
    *(
        Target(f"repro.capsule.scan:{fn}", "capsule.scan")
        for fn in (
            "scan_fixed", "scan_region", "scan_regions", "scan_variable",
            "check_rows_fixed",
        )
    ),
    Target("repro.core.reconstructor:BlockReconstructor.reconstruct", "query.reconstruct", "items"),
    Target("repro.query.executor:QueryExecutor._aggregate_block", "query.aggregate"),
    # -- streaming -----------------------------------------------------
    Target("repro.core.streaming:StreamingCompressor.extend", "streaming.append"),
    Target("repro.core.streaming:StreamingCompressor.tail_snapshot", "streaming.tail_build"),
    Target("repro.core.streaming:StreamingCompressor._tail_box", "streaming.tail_build"),
    Target("repro.core.streaming:StreamingCompressor._on_commit", "streaming.seal", "count"),
    # -- cluster -------------------------------------------------------
    *(
        Target(f"repro.cluster.node:WorkerNode.{method}", "cluster.node")
        for method in (
            "query_block", "query_block_batch", "aggregate_block", "reconstruct_rows",
        )
    ),
    Target("repro.cluster.scatter:ScatterGather.map", "cluster.scatter"),
)

#: Spans whose fan-out threads' spans count as their children.
ADOPTERS = ("cluster.scatter",)

#: Registry counters read around the traced phase (summed over labels).
COUNTERS = (
    "loggrep_template_cache_hits_total",
    "loggrep_template_cache_misses_total",
    "loggrep_template_cache_remines_total",
    "loggrep_store_range_reads_total",
    "loggrep_store_read_bytes_total",
    "loggrep_scan_rows_total",
    "loggrep_value_cache_hits_total",
    "loggrep_value_cache_misses_total",
    "loggrep_fragcache_hits_total",
    "loggrep_fragcache_misses_total",
    "loggrep_fragcache_invalidations_total",
    "loggrep_query_cache_hits_total",
    "loggrep_query_cache_misses_total",
    "loggrep_box_cache_hits_total",
    "loggrep_box_cache_misses_total",
    "loggrep_box_cache_evictions_total",
    "loggrep_batch_shared_block_loads_total",
    "loggrep_batch_runs_total",
    "loggrep_cluster_node_queries_total",
    "loggrep_cluster_hedge_launched_total",
    "loggrep_cluster_hedge_wins_total",
    "loggrep_cluster_retry_attempts_total",
    "loggrep_remote_requests_total",
    "loggrep_remote_sleep_seconds_total",
)


def counter_snapshot(registry) -> Dict[str, float]:
    """Current totals of :data:`COUNTERS` (absent counters read 0)."""
    exported = registry.to_dict()
    out: Dict[str, float] = {}
    for name in COUNTERS:
        entry = exported.get(name)
        out[name] = (
            float(sum(sample["value"] for sample in entry["samples"]))
            if entry is not None
            else 0.0
        )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class PhaseData:
    """Everything one traced phase produced, as the metric table reads it."""

    def __init__(self, recorder, counters: Mapping[str, float], tally: Mapping[str, float]):
        self.self_s, self.incl_s, self.spans = totals(recorder.spans)
        self.calls = recorder.calls
        self.items = recorder.items
        self.nbytes = recorder.nbytes
        self.d = counters
        #: Workload-side sums over the traced phase: ``queries``,
        #: ``raw_bytes`` ingested, ``blocks_pruned`` and friends from the
        #: results' QueryStats, ``wire_bytes`` and ``demote_*`` bytes.
        self.t = tally

    def hit_ratio(self, prefix: str) -> float:
        hits = self.d[f"{prefix}_hits_total"]
        return _ratio(hits, hits + self.d[f"{prefix}_misses_total"])

    def per_query(self, value: float) -> float:
        return _ratio(value, self.t.get("queries", 0))


Metric = Tuple[str, str, Sequence[str], Callable[[PhaseData], float]]

#: (name, unit, span names it needs — empty for counter/tally metrics,
#: computation).
METRICS: List[Metric] = [
    ("staticparse.parse_s", "s", ["staticparse.parse"], lambda p: p.self_s.get("staticparse.parse", 0.0)),
    ("staticparse.template_hit_ratio", "ratio", [], lambda p: p.hit_ratio("loggrep_template_cache")),
    ("staticparse.remines", "count", [], lambda p: p.d["loggrep_template_cache_remines_total"]),
    ("runtime.extract_s", "s", ["runtime.extract"], lambda p: p.self_s.get("runtime.extract", 0.0)),
    ("runtime.pattern_match_calls", "count", ["runtime.pattern_match"], lambda p: p.calls.get("runtime.pattern_match", 0)),
    ("capsule.encode_s", "s", ["capsule.encode"], lambda p: p.self_s.get("capsule.encode", 0.0)),
    ("capsule.stamp_s", "s", ["capsule.stamp"], lambda p: p.self_s.get("capsule.stamp", 0.0)),
    ("capsule.codec_s", "s", ["capsule.codec"], lambda p: p.self_s.get("capsule.codec", 0.0)),
    ("capsule.payload_bytes_per_raw_byte", "ratio", [], lambda p: p.t.get("payload_ratio", 0.0)),
    ("blockstore.write_s", "s", ["blockstore.write"], lambda p: p.self_s.get("blockstore.write", 0.0)),
    ("blockstore.writes", "count", ["blockstore.write"], lambda p: p.spans.get("blockstore.write", 0)),
    ("blockstore.write_bytes_per_raw_byte", "ratio", ["blockstore.write"], lambda p: _ratio(p.nbytes.get("blockstore.write", 0), p.t.get("raw_bytes", 0))),
    ("blockstore.index_s", "s", ["blockstore.index"], lambda p: p.self_s.get("blockstore.index", 0.0)),
    ("core.schedule.other_s", "s", ["core.compress"], lambda p: p.self_s.get("core.compress", 0.0)),
    ("lifecycle.demote_read_s", "s", ["lifecycle.read"], lambda p: p.incl_s.get("lifecycle.read", 0.0)),
    ("lifecycle.demote_encode_s", "s", ["lifecycle.encode"], lambda p: p.incl_s.get("lifecycle.encode", 0.0)),
    ("lifecycle.rewrite_bytes_per_live_byte", "ratio", ["blockstore.write"], lambda p: _ratio(p.t.get("demote_written", 0), p.t.get("demote_live", 0))),
    ("query.plan_s", "s", ["query.plan"], lambda p: p.self_s.get("query.plan", 0.0)),
    ("blockstore.index_load_s", "s", ["blockstore.index_load"], lambda p: p.self_s.get("blockstore.index_load", 0.0)),
    ("query.block_prune_ratio", "ratio", [], lambda p: _ratio(p.t.get("blocks_pruned", 0), p.t.get("blocks_visited", 0))),
    ("capsule.stamp_filter_ratio", "ratio", [], lambda p: _ratio(p.t.get("capsules_filtered", 0), p.t.get("capsules_filtered", 0) + p.t.get("capsules_decompressed", 0))),
    ("blockstore.range_reads_per_query", "1/query", [], lambda p: p.per_query(p.d["loggrep_store_range_reads_total"])),
    ("blockstore.read_bytes_per_query", "B/query", [], lambda p: p.per_query(p.d["loggrep_store_read_bytes_total"])),
    ("blockstore.read_s", "s", ["blockstore.read"], lambda p: p.self_s.get("blockstore.read", 0.0)),
    ("capsule.box_open_s", "s", ["capsule.box_open"], lambda p: p.self_s.get("capsule.box_open", 0.0)),
    ("capsule.decode_s", "s", ["capsule.decode"], lambda p: p.self_s.get("capsule.decode", 0.0)),
    ("capsule.capsules_decoded", "count", ["capsule.decode"], lambda p: p.spans.get("capsule.decode", 0)),
    ("query.locate_s", "s", ["query.locate"], lambda p: p.self_s.get("query.locate", 0.0)),
    ("capsule.scan_s", "s", ["capsule.scan"], lambda p: p.self_s.get("capsule.scan", 0.0)),
    ("capsule.scan_rows", "count", [], lambda p: p.d["loggrep_scan_rows_total"]),
    ("query.reconstruct_s", "s", ["query.reconstruct"], lambda p: p.self_s.get("query.reconstruct", 0.0)),
    ("query.lines_reconstructed", "count", ["query.reconstruct"], lambda p: p.items.get("query.reconstruct", 0)),
    ("query.aggregate_s", "s", ["query.aggregate"], lambda p: p.self_s.get("query.aggregate", 0.0)),
    ("query.value_cache_hit_ratio", "ratio", [], lambda p: p.hit_ratio("loggrep_value_cache")),
    ("streaming.append_s", "s", ["streaming.append"], lambda p: p.self_s.get("streaming.append", 0.0)),
    ("streaming.tail_build_s", "s", ["streaming.tail_build"], lambda p: p.self_s.get("streaming.tail_build", 0.0)),
    ("streaming.seals", "count", ["streaming.seal"], lambda p: p.calls.get("streaming.seal", 0)),
    ("query.fragcache_hit_ratio", "ratio", [], lambda p: p.hit_ratio("loggrep_fragcache")),
    ("query.fragcache_invalidations", "count", [], lambda p: p.d["loggrep_fragcache_invalidations_total"]),
    ("query.cache_hit_ratio", "ratio", [], lambda p: p.hit_ratio("loggrep_query_cache")),
    ("query.box_cache_hit_ratio", "ratio", [], lambda p: p.hit_ratio("loggrep_box_cache")),
    ("query.box_cache_evictions", "count", [], lambda p: p.d["loggrep_box_cache_evictions_total"]),
    ("query.batch_shared_loads_per_batch", "1/batch", [], lambda p: _ratio(p.d["loggrep_batch_shared_block_loads_total"], p.d["loggrep_batch_runs_total"])),
    ("cluster.rpcs_per_query", "1/query", [], lambda p: p.per_query(p.d["loggrep_cluster_node_queries_total"])),
    ("cluster.node_busy_s", "s", ["cluster.node"], lambda p: p.incl_s.get("cluster.node", 0.0)),
    ("cluster.scatter_s", "s", ["cluster.scatter"], lambda p: p.self_s.get("cluster.scatter", 0.0)),
    ("cluster.wire_bytes_per_query", "B/query", [], lambda p: p.per_query(p.t.get("wire_bytes", 0))),
    ("cluster.hedges_per_query", "1/query", [], lambda p: p.per_query(p.d["loggrep_cluster_hedge_launched_total"])),
    ("cluster.hedge_win_ratio", "ratio", [], lambda p: _ratio(p.d["loggrep_cluster_hedge_wins_total"], p.d["loggrep_cluster_hedge_launched_total"])),
    ("cluster.retries", "count", [], lambda p: p.d["loggrep_cluster_retry_attempts_total"]),
    ("blockstore.remote_requests_per_query", "1/query", [], lambda p: p.per_query(p.d["loggrep_remote_requests_total"])),
    ("blockstore.remote_wait_s", "s", [], lambda p: p.d["loggrep_remote_sleep_seconds_total"]),
]


def missing_span_names(missing_targets: Sequence[str]) -> Dict[str, str]:
    """Span name → reason, for span names all of whose targets are gone."""
    by_name: Dict[str, List[str]] = {}
    for target in TARGETS:
        by_name.setdefault(target.name, []).append(target.path)
    out: Dict[str, str] = {}
    for name, paths in by_name.items():
        if all(path in missing_targets for path in paths):
            out[name] = "; ".join(missing_targets[path] for path in paths)  # type: ignore[index]
    return out


def per_layer(
    phase: PhaseData, missing_targets: Mapping[str, str]
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """(metric → (value, unit), metric → reason it is missing)."""
    gone = missing_span_names(missing_targets)  # type: ignore[arg-type]
    values: Dict[str, Tuple[float, str]] = {}
    missing: Dict[str, str] = {}
    for name, unit, needs, compute in METRICS:
        lost = [span for span in needs if span in gone]
        if lost:
            missing[name] = gone[lost[0]]
            continue
        values[name] = (float(compute(phase)), unit)
    return values, missing

