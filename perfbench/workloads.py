"""The four workloads.

Each workload has a ``setup`` (input generation and archive build, timed
as ``setup_s`` and repeated by the runner), a ``prepare`` (query draw and
oracle, once per run, not timed), an ``episode`` (one fixed unit of timed
work, repeated until the run's time is up) and a ``finish`` (checks and
counts made after timing).  Every operation is counted as attempted, and
as failed when it raises or disagrees with the oracle.

All workloads are closed loop with one client; the only other threads
are the program's own (the streaming pipeline, the cluster fan-out).
Archives are file-backed ``ArchiveStore`` directories under the run's
scratch directory, except the cluster's, whose nodes keep their blobs
in the ``RemoteStore``-over-memory stores ``ClusterLogGrep`` builds.

Sizes are for a 2-core host; ``tiny`` shrinks every one of them for the
benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import shutil
import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import LogGrep, LogGrepConfig
from repro.blockstore.remote import FaultProfile
from repro.blockstore.store import ArchiveStore
from repro.capsule.capsule import Capsule
from repro.cluster import ClusterLogGrep
from repro.cluster.scatter import ScatterConfig
from repro.core.lifecycle import LifecycleManager, Tier
from repro.core.streaming import StreamingCompressor
from repro.workloads import spec_by_name

from .oracle import Oracle, Query, draw_count_by, draw_queries


def dir_bytes(path: str) -> int:
    """Every byte an archive directory holds, sidecars and aux blobs included."""
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def raw_bytes(lines: Sequence[str]) -> int:
    return sum(len(line.encode("utf-8")) + 1 for line in lines)


def payload_bytes(path: str, config: LogGrepConfig) -> int:
    """Capsule payload bytes of every block of the archive at *path*."""
    lg = LogGrep(store=ArchiveStore(path), config=config)
    total = 0
    for name in lg.store.names():
        for group in lg.executor.load_box(name).groups:
            for vector in group.vectors:
                for value in vars(vector).values():
                    for item in value if isinstance(value, list) else [value]:
                        if isinstance(item, Capsule):
                            total += item.compressed_bytes
    return total


def segmented(dataset: str, first_seed: int, segments: int, lines: int) -> List[str]:
    """*lines* base lines of *dataset*: *segments* equal parts, generated
    with seeds ``first_seed``, ``first_seed + 1``, ...

    A generator's per-seed state (the ids and states it draws) sets a
    dataset's structure, and with it compress and query costs; across
    seeds these fall into distinct modes, so one state must not set a
    run's figures.  The first segment's state also sets the mode of an
    archive built from the whole (its first block seeds the template
    cache), which ``Workload.variant`` averages over."""
    spec = spec_by_name(dataset)
    out: List[str] = []
    for k in range(segments):
        part = lines // segments + (k < lines % segments)
        out += dataclasses.replace(spec, seed=first_seed + k).generate(part)
    return out


class Samples:
    """Timed samples, tallies and the operation ledger of one phase."""

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = defaultdict(list)
        self.tally: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"wrong result: {what}")

    def error(self, what: str) -> None:
        """Count the operation being handled as failed (call from ``except``)."""
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")

    def add_rate(self, what: str, nbytes: int, seconds: float) -> None:
        """Add *nbytes* processed in *seconds* to the *what* rate."""
        self.tally[f"{what}_bytes"] += nbytes
        self.tally[f"{what}_s"] += seconds

    def mb_per_s(self, what: str) -> float:
        """The *what* rate over the whole phase: all its bytes over all its
        seconds, so every part of the phase weighs by its duration."""
        seconds = self.tally.get(f"{what}_s", 0.0)
        return self.tally.get(f"{what}_bytes", 0.0) / 1e6 / seconds if seconds else 0.0

    def add_stats(self, stats) -> None:
        for key in ("blocks_pruned", "blocks_visited", "capsules_filtered", "capsules_decompressed"):
            self.tally[key] += getattr(stats, key)


class Workload:
    """Base: scratch directories, seeded generation, the timed query."""

    name = ""
    #: (dataset, base lines); ``spec.generate`` scales by size_factor.
    datasets: Tuple[Tuple[str, int], ...] = ()
    block_bytes = 256 * 1024
    segments = 4

    def __init__(self, seed: int, scratch: str, tiny: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.tiny = tiny
        # Built here, not at import, so it sees the cleaned environment.
        self.config = LogGrepConfig(block_bytes=self.block_bytes)
        self.recorder = None  # set by the runner during the traced phase
        self.calibrator = None  # set by the runner during timed phases
        #: Archive directories of the current set-up or episode.
        self.archives: Dict[str, str] = {}
        self.data: Dict[str, List[str]] = {}
        self.oracles: Dict[str, Oracle] = {}
        self._dirs = 0

    def new_dir(self, tag: str) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{tag}-{self._dirs}")
        os.makedirs(path)
        return path

    def size(self, lines: int) -> int:
        return max(40, lines // 25) if self.tiny else lines

    def generate(self) -> None:
        self.data = self.variant(0)

    def variant(self, k: int) -> Dict[str, List[str]]:
        """The datasets of the run's *k*-th seed-derived variant (0 is the
        one ``generate`` makes).  An archive's first block sets its
        structure mode (see ``segmented``), so what an episode builds
        rotates over several variants and a run averages their modes."""
        first_seed = self.seed * 16 if k == 0 else (self.seed * 16 + k) * 16
        return {
            name: segmented(name, first_seed, self.segments, self.size(lines))
            for name, lines in self.datasets
        }

    def teardown(self) -> None:
        """Drop the previous set-up's or episode's archives (not timed)."""
        for path in self.archives.values():
            shutil.rmtree(path, ignore_errors=True)
        self.archives = {}

    def query(
        self,
        samples: Samples,
        run: Callable[[], object],
        check: Callable[[object], bool],
        what: str,
        series: str = "query_ms",
        queries: int = 1,
    ) -> None:
        """Time one query operation (*queries* user queries), then check it."""
        self.new_op()
        start = time.perf_counter()
        try:
            result = run()
        except Exception:  # a failed operation is counted; the run goes on
            samples.error(what)
            return
        elapsed = time.perf_counter() - start
        samples.series[series].append(elapsed * 1000.0)
        samples.tally["queries"] += queries
        samples.outcome(check(result), what)

    def new_op(self) -> None:
        """Mark the start of one user-visible operation in the trace (and,
        before its timer starts, give the host-speed calibrator a turn)."""
        if self.calibrator is not None:
            self.calibrator.tick()
        if self.recorder is not None:
            self.recorder.next_op()

    def setup(self, samples: Samples) -> None:
        self.generate()

    def prepare(self) -> None:
        """Draw the queries and compute their expected answers."""

    def episode(self, samples: Samples) -> None:
        raise NotImplementedError

    def finish(self, samples: Samples) -> None:
        """Payload bytes over raw bytes of the archives left at the end."""
        payload = sum(payload_bytes(path, self.config) for path in self.archives.values())
        raw = sum(raw_bytes(self.data[name]) for name in self.archives)
        samples.tally["payload_ratio"] = payload / raw if raw else 0.0


def grep_check(oracle: Oracle, command: str, limit: Optional[int] = None):
    return lambda result: oracle.check_grep(command, result.line_ids, result.lines, limit)


def count_by_check(oracle: Oracle, q: Query):
    expected = oracle.count_by(q.field, q.command, len(oracle.lines))
    return lambda result: result == expected


def log_a_terms(lines: Sequence[str]) -> Tuple[List[str], List[str], List[str]]:
    """Log A's incident vocabulary: levels, ``state:`` and ``code:`` tokens."""
    tokens = sorted({t for line in lines for t in line.split(" ")})
    levels = [t for t in ("ERROR", "WARNING") if t in tokens]
    states = [t for t in tokens if t.startswith("state:")]
    codes = [t for t in tokens if t.startswith("code:")]
    return levels, states, codes


def draw_family(
    name: str, lines: Sequence[str], rng: random.Random, tiny: bool, count_by: int, draws: int = 6
) -> List[Query]:
    """The grep-cold query family of one dataset: every class (*draws* of
    each cheap selective one), the Table-1 query and count-by aggregates."""
    queries = draw_queries(lines, rng, 1, 1) if tiny else draw_queries(lines, rng, 3, draws)
    queries.append(Query("table1", spec_by_name(name).query))
    queries += draw_count_by(name, lines, count_by)
    return queries


# ----------------------------------------------------------------------
class Ingest(Workload):
    """Bulk compress of three datasets, then a cold demote of Log A.

    The read side runs only a short burst of incident queries (the
    Table-1 query and drawn ``level and state and code`` conjunctions) on
    the freshly demoted archive, each through a new handle: the first
    answers a user gets from the cold tier.  They are alike in cost, so
    the burst's percentiles do not hinge on which classes were drawn.
    """

    name = "ingest"
    datasets = (("Log A", 10000), ("Hdfs", 10000), ("Log T", 1500))

    variants = 4

    def prepare(self) -> None:
        """Episodes rotate over ``variants`` seed-derived inputs (generated
        here, once, untimed, besides the set-up's), each with its burst."""
        rng = random.Random(self.seed)
        self.inputs: List[Tuple[Dict[str, List[str]], Oracle, List[Query]]] = []
        for k in range(self.variants):
            data = self.data if k == 0 else self.variant(k)
            oracle = Oracle("Log A", data["Log A"])
            levels, states, codes = log_a_terms(data["Log A"])
            # Levels and states cycle in a fixed order (as in live-triage),
            # so every seed asks the same mix; codes are drawn.
            queries = [Query("table1", spec_by_name("Log A").query)] + [
                Query(
                    "incident",
                    f"{levels[i % len(levels)]} and {states[i % len(states)]} and {rng.choice(codes)}",
                )
                for i in range(3 if self.tiny else 71)
            ]
            for q in queries:
                oracle.ids(q.command)
            self.inputs.append((data, oracle, queries))
        self._episodes = 0

    def episode(self, samples: Samples) -> None:
        self.teardown()
        # ``finish`` checks the last episode's archives against self.data.
        self.data, oracle, queries = self.inputs[self._episodes % len(self.inputs)]
        self._episodes += 1
        raw = 0
        seconds = 0.0
        for name, lines in self.data.items():
            path = self.archives[name] = self.new_dir("ingest")
            lg = LogGrep(store=ArchiveStore(path), config=self.config)
            self.new_op()
            start = time.perf_counter()
            try:
                report = lg.compress(lines)
            except Exception:
                samples.error(f"compress {name}")
                return
            seconds += time.perf_counter() - start
            samples.outcome(report.raw_bytes == raw_bytes(lines), f"compress {name} raw bytes")
            raw += report.raw_bytes
        samples.add_rate("ingest", raw, seconds)
        samples.tally["raw_bytes"] += raw
        stored = sum(dir_bytes(p) for p in self.archives.values())
        samples.series["compression_ratio"].append(raw / stored)

        path_a = self.archives["Log A"]
        written_before = self._written()
        self.new_op()
        start = time.perf_counter()
        try:
            LifecycleManager(ArchiveStore(path_a), self.config).demote(Tier.COLD)
        except Exception:
            samples.error("demote Log A")
            return
        samples.add_rate("demote", raw_bytes(self.data["Log A"]), time.perf_counter() - start)
        samples.tally["demote_written"] += self._written() - written_before
        samples.tally["demote_live"] += dir_bytes(path_a)
        stored = sum(dir_bytes(p) for p in self.archives.values())
        samples.series["cold_compression_ratio"].append(raw / stored)

        for q in queries:
            self.query(
                samples,
                lambda: LogGrep(store=ArchiveStore(path_a), config=self.config).grep(q.command),
                grep_check(oracle, q.command),
                f"cold grep {q.command!r}",
            )

    def _written(self) -> int:
        rec = self.recorder
        return rec.nbytes.get("blockstore.write", 0) if rec is not None else 0

    def finish(self, samples: Samples) -> None:
        """Round trip: every archive of the last episode decompresses to
        exactly its input."""
        for name, path in self.archives.items():
            lg = LogGrep(store=ArchiveStore(path), config=self.config)
            try:
                ok = lg.decompress_all() == self.data[name]
            except Exception:
                samples.error(f"decompress_all {name}")
                continue
            samples.outcome(ok, f"round trip {name}")
        super().finish(samples)


# ----------------------------------------------------------------------
class GrepCold(Workload):
    """Fig 7c: every query opens a fresh handle on a hot archive."""

    name = "grep-cold"
    datasets = (("Log A", 8000), ("Hdfs", 8000), ("Log T", 1200))

    #: Seed-derived inputs the per-episode rebuilds rotate over.
    variants = 4

    def setup(self, samples: Samples) -> None:
        self.generate()
        self.archives = self._build(samples, self.data)

    def _build(self, samples: Samples, data: Dict[str, List[str]]) -> Dict[str, str]:
        """Compress every dataset into a fresh archive; records the rate."""
        archives = {}
        raw = stored = 0
        seconds = 0.0
        for name, lines in data.items():
            path = archives[name] = self.new_dir("cold")
            lg = LogGrep(store=ArchiveStore(path), config=self.config)
            self.new_op()
            start = time.perf_counter()
            report = lg.compress(lines)
            seconds += time.perf_counter() - start
            raw += report.raw_bytes
            stored += dir_bytes(path)
        samples.add_rate("ingest", raw, seconds)
        samples.series["compression_ratio"].append(raw / stored)
        return archives

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.work: List[Tuple[str, Query]] = []
        for name, lines in self.data.items():
            oracle = self.oracles[name] = Oracle(name, lines)
            family = draw_family(name, lines, rng, self.tiny, 2 if self.tiny else 4)
            for q in family:
                if q.command:
                    oracle.ids(q.command)
                self.work.append((name, q))
        rng.shuffle(self.work)
        # Generated once, untimed, besides the set-up's.
        self.rebuilds = [self.data] + [self.variant(k) for k in range(1, self.variants)]
        self._episodes = 0

    def episode(self, samples: Samples) -> None:
        for name, q in self.work:
            path = self.archives[name]
            oracle = self.oracles[name]
            if q.field is None:
                def run(path=path, q=q):
                    result = LogGrep(store=ArchiveStore(path), config=self.config).grep(q.command)
                    samples.add_stats(result.stats)
                    return result
                check = grep_check(oracle, q.command)
            else:
                def run(path=path, q=q):
                    lg = LogGrep(store=ArchiveStore(path), config=self.config)
                    return lg.count_by(q.field, q.command or None)
                check = count_by_check(oracle, q)
            self.query(samples, run, check, f"{name} {q.label} {q.command!r}")
        if self.recorder is None:
            # The build rate, sampled across the run rather than only in
            # set-up (a few seconds at its start), from the queried inputs
            # and the variants in turn; the archives are discarded.
            rebuild = self.rebuilds[self._episodes % len(self.rebuilds)]
            self._episodes += 1
            for path in self._build(samples, rebuild).values():
                shutil.rmtree(path, ignore_errors=True)
            gc.collect()


# ----------------------------------------------------------------------
class LiveTriage(Workload):
    """Appends beside reads on one long-lived tail-inclusive handle.

    Each round appends a chunk, then runs one fresh query (the first
    after the append, which pays the hot-tail build), a ``grep_many``
    batch of incident queries, refining queries that share terms with the
    fresh one, and the same batch again (a dashboard refresh, which the
    fragment cache can serve until the next seal).

    Episodes rotate through ``streams`` Log A streams derived from the
    seed, each itself ``segments`` parts from distinct generator seeds
    (see ``segmented``), and a run averages over them.
    """

    name = "live-triage"
    streams = 8
    stream_lines = 4000
    block_bytes = 32 * 1024
    chunk_lines = 1000

    def generate(self) -> None:
        lines = self.size(self.stream_lines)
        self.data = {
            f"stream-{k}": segmented("Log A", (self.seed * 16 + k) * 16, self.segments, lines)
            for k in range(self.streams)
        }
        self._episodes = 0

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.plans: Dict[str, Tuple[List[List[str]], List[Tuple[str, List[str], List[str]]]]] = {}
        for key, lines in self.data.items():
            oracle = self.oracles[key] = Oracle("Log A", lines)
            chunk = max(10, len(lines) // 8) if self.tiny else self.chunk_lines
            chunks = [lines[i : i + chunk] for i in range(0, len(lines), chunk)]
            rounds = self._draw_rounds(lines, len(chunks), rng)
            for fresh, refine, batch in rounds:
                for command in (fresh, *refine, *batch):
                    oracle.ids(command)
            self.plans[key] = (chunks, rounds)

    @staticmethod
    def _draw_rounds(lines: Sequence[str], count: int, rng: random.Random):
        levels, states, codes = log_a_terms(lines)
        rare = [q.command for q in draw_queries(lines, rng, 1, count) if q.label == "rare-id"]
        incident = spec_by_name("Log A").query
        # Levels and states cycle in a fixed order, so every seed asks the
        # same mix of selectivities; codes and ids are drawn.
        rounds = []
        for i in range(count):
            level, state = levels[i % len(levels)], states[i % len(states)]
            code = rng.choice(codes)
            fresh = f"{level} and {state}"
            refine = [
                f"{level} and {state} and {code}",
                f"{level} and {code}",
                f"{state} and {code}",
            ]
            batch = [
                incident,
                f"ERROR and {states[(i + 1) % len(states)]}",
                rare[i % len(rare)],
                f"WARNING and {rng.choice(codes)}",
            ]
            rounds.append((fresh, refine, batch))
        return rounds

    def episode(self, samples: Samples) -> None:
        self.teardown()
        key = f"stream-{self._episodes % self.streams}"
        self._episodes += 1
        path = self.archives[key] = self.new_dir("live")
        stream = StreamingCompressor(store=ArchiveStore(path), config=self.config)
        try:
            self._rounds(key, stream, samples)
        finally:
            stream.close()
        samples.series["compression_ratio"].append(raw_bytes(self.data[key]) / dir_bytes(path))
        samples.tally["blocks"] = len(ArchiveStore(path).names())

    def _rounds(self, key: str, stream: StreamingCompressor, samples: Samples) -> None:
        oracle = self.oracles[key]
        reader = stream.open_reader(tail=True)
        appended = 0
        chunks, rounds = self.plans[key]
        for chunk, (fresh, refine, batch) in zip(chunks, rounds):
            self.new_op()
            start = time.perf_counter()
            try:
                stream.extend(chunk)
            except Exception:
                samples.error("extend")
                break
            size = raw_bytes(chunk)
            samples.add_rate("append", size, time.perf_counter() - start)
            samples.tally["raw_bytes"] += size
            appended += len(chunk)
            limit = appended
            self.query(samples, lambda: reader.grep(fresh), grep_check(oracle, fresh, limit),
                       f"fresh {fresh!r}", series="fresh_ms")
            self._batch(samples, reader, oracle, batch, limit)
            for command in refine:
                self.query(samples, lambda: reader.grep(command), grep_check(oracle, command, limit),
                           f"refine {command!r}")
            self._batch(samples, reader, oracle, batch, limit)

    def _batch(self, samples: Samples, reader: LogGrep, oracle: Oracle, batch: List[str], limit: int) -> None:
        self.query(
            samples,
            lambda: reader.grep_many(batch),
            lambda results: all(
                oracle.check_grep(c, r.line_ids, r.lines, limit) for c, r in zip(batch, results)
            ),
            f"batch {batch!r}",
            series="batch_ms",
            queries=len(batch),
        )


# ----------------------------------------------------------------------
class ClusterScatter(Workload):
    """Scatter/gather over four nodes on simulated remote stores, one
    replica straggling.

    Each episode queries a freshly built cluster and then replaces it
    (its builds timed for ``ingest_mb_s``): every episode starts from the
    same state (the hedging latency tracker cold), and only one cluster
    is alive at a time, so peak memory does not hinge on when a
    discarded one is collected.

    No store errors are injected: ``ClusterLogGrep.compress`` does not
    retry a failed remote put, so any failure rate aborts ingest.
    """

    name = "cluster-scatter"
    datasets = (("Log A", 4000),)
    block_bytes = 64 * 1024
    straggler_s = 0.02
    #: Clusters built per episode, each from its own seed-derived dataset,
    #: the last from the queried one: a build's cost follows the template
    #: set its first blocks teach the nodes, and its time swings with how
    #: the host schedules the four ingest threads.
    builds = 4

    def __init__(self, seed: int, scratch: str, tiny: bool = False):
        super().__init__(seed, scratch, tiny)
        self.cluster: Optional[ClusterLogGrep] = None

    def generate(self) -> None:
        super().generate()
        self.variants = [self.variant(k)["Log A"] for k in range(1, self.builds)]

    def setup(self, samples: Samples) -> None:
        self.generate()
        self.cluster = self._build(samples, self.data["Log A"])

    def _build(self, samples: Samples, lines: List[str]) -> ClusterLogGrep:
        """A cluster holding *lines*; records the ingest rate."""
        cluster = ClusterLogGrep(
            num_nodes=4,
            replication=2,
            config=self.config,
            scatter=ScatterConfig(fanout_concurrency=2),
            remote_profile=FaultProfile(latency_s=0.001, jitter_s=0.0005, seed=self.seed),
        )
        self.new_op()
        start = time.perf_counter()
        cluster.compress(lines)
        raw = raw_bytes(lines)
        samples.add_rate("ingest", raw, time.perf_counter() - start)
        samples.series["compression_ratio"].append(raw / cluster.storage_bytes())
        cluster.set_straggler("node-1", self.straggler_s)
        return cluster

    def prepare(self) -> None:
        lines = self.data["Log A"]
        oracle = self.oracles["Log A"] = Oracle("Log A", lines)
        rng = random.Random(self.seed)
        self.queries = draw_family("Log A", lines, rng, self.tiny, 2 if self.tiny else 12, draws=12)
        rng.shuffle(self.queries)
        for q in self.queries:
            if q.command:
                oracle.ids(q.command)

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        self.cluster = None

    def episode(self, samples: Samples) -> None:
        cluster = self.cluster
        oracle = self.oracles["Log A"]
        for q in self.queries:
            if q.field is None:
                def run(q=q):
                    result = cluster.grep(q.command)
                    samples.add_stats(result.stats)
                    samples.tally["wire_bytes"] += cluster.last_report.wire_bytes
                    return result
                check = grep_check(oracle, q.command)
            else:
                def run(q=q):
                    result = cluster.count_by(q.field, q.command or None)
                    samples.tally["wire_bytes"] += cluster.last_report.wire_bytes
                    return result
                check = count_by_check(oracle, q)
            self.query(samples, run, check, f"cluster {q.label} {q.command!r}")
        if self.recorder is None:
            # The traced phase keeps its cluster: a build there would count
            # in the write layers' figures.
            for lines in self.variants + [self.data["Log A"]]:
                self.teardown()
                gc.collect()
                self.cluster = self._build(samples, lines)

    def finish(self, samples: Samples) -> None:
        """The cluster keeps no local archive: payload bytes are not counted."""
        self.teardown()


WORKLOADS = {w.name: w for w in (Ingest, GrepCold, LiveTriage, ClusterScatter)}
