"""The fan-out scheduler: bounded concurrency, deadlines, retries, hedges.

One query scatters one *shard task* per block.  Each task runs a small
state machine on the coordinator:

* launch the first attempt on the alive replica with the lowest latency
  estimate (:class:`ReplicaRanker`, a per-node EWMA of attempt latency —
  C3-style adaptive replica selection), so a straggler stops receiving
  first attempts once it has been seen to be slow;
* if the attempt has not returned after an adaptive **hedge delay** (a
  high percentile of recently observed shard latencies), launch a
  speculative second attempt on the next replica and take whichever
  returns first — the classic tail-at-scale straggler mitigation;
* an attempt that exceeds the per-shard **deadline** is abandoned (its
  thread keeps running; its result is discarded) and counts as a timeout;
* a failed or timed-out attempt is **retried with exponential backoff**
  on the next replica in rank order, round-robin, until ``max_attempts``
  is spent — only then does the shard (and the query) fail.

Shard tasks themselves run on a bounded fan-out pool, so a thousand-block
archive never launches a thousand concurrent RPCs.  Results carry
per-shard accounting (attempts, retries, hedge outcome, wire bytes) that
the coordinator rolls into its ANALYZE report.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..blockstore.remote import RemoteStoreError
from ..common.errors import ReproError
from ..obs.metrics import get_registry
from ..query.stats import QueryStats
from .node import NodeDownError

_HEDGE_LAUNCHED = get_registry().counter(
    "loggrep_cluster_hedge_launched_total",
    "Speculative (hedged) replica reads launched",
)
_HEDGE_WINS = get_registry().counter(
    "loggrep_cluster_hedge_wins_total",
    "Shards where the hedged attempt returned first",
)
_HEDGE_LOSSES = get_registry().counter(
    "loggrep_cluster_hedge_losses_total",
    "Shards where the original attempt beat its hedge",
)
_RETRIES = get_registry().counter(
    "loggrep_cluster_retry_attempts_total",
    "Shard attempts retried on another replica, by reason",
)
_TIMEOUTS = get_registry().counter(
    "loggrep_cluster_shard_timeouts_total",
    "Shard attempts abandoned at the per-shard deadline",
)
_GATHER_BYTES = get_registry().counter(
    "loggrep_cluster_gather_bytes_total",
    "Serialized bytes gathered from shards, by payload kind",
)
_SHARD_SECONDS = get_registry().histogram(
    "loggrep_cluster_shard_seconds",
    "End-to-end shard latency (including retries and hedges)",
)

#: What a node RPC returns: (payload, matched count, per-block stats).
ShardResponse = Tuple[object, int, QueryStats]

#: Exceptions that mean "this replica, this time" — retryable on another.
RETRYABLE = (NodeDownError, RemoteStoreError)


class ShardError(ReproError):
    """One shard exhausted its replicas/attempt budget."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"shard {name}: {detail}")
        self.name = name


@dataclass
class ScatterConfig:
    """Tuning of the fan-out scheduler (all times in seconds)."""

    #: Shard tasks running concurrently (bounded fan-out).
    fanout_concurrency: int = 8
    #: Abandon an attempt after this long; None disables deadlines.
    shard_deadline_s: Optional[float] = 10.0
    #: Total attempt budget per shard (first try + retries + hedge).
    max_attempts: int = 4
    #: First retry backoff; doubles per retry.
    retry_backoff_s: float = 0.002
    #: Launch a speculative replica read when the first attempt outlives
    #: the observed latency percentile.
    hedge: bool = True
    hedge_percentile: float = 0.95
    #: Clamp on the adaptive hedge delay (and the cold-start default).
    hedge_min_s: float = 0.010
    hedge_max_s: float = 2.0
    #: Observations needed before the percentile is trusted.
    hedge_min_samples: int = 8


class LatencyTracker:
    """A bounded window of shard latencies with quantile lookup.

    Shared across queries so hedging warms up once per cluster, and
    thread-safe because every shard task observes into it concurrently.
    """

    def __init__(self, window: int = 512):
        self._samples: Deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> Optional[float]:
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def hedge_delay(self, config: ScatterConfig) -> float:
        """How long to give the first attempt before hedging."""
        if len(self) < config.hedge_min_samples:
            return config.hedge_min_s
        value = self.quantile(config.hedge_percentile)
        if value is None:
            return config.hedge_min_s
        return min(max(value, config.hedge_min_s), config.hedge_max_s)


class ReplicaRanker:
    """Per-node EWMA of attempt latency, ordering each shard's replicas.

    Learns from every winning attempt and, as a lower bound, from the
    elapsed time of every attempt abandoned to a hedge or a deadline
    (the estimate is raised to the bound, never lowered by it).  An
    estimate *ages*: it halves for every :attr:`HALF_LIFE_S` without a
    fresh observation.  Estimates of the nodes in use are refreshed all
    the time, so a node demoted for being slow drifts back ahead of them
    and is re-tried — if it has recovered it keeps its first attempts,
    otherwise one slow attempt demotes it again.

    Shared across queries (like :class:`LatencyTracker`) and thread-safe.
    ``clock`` is injectable so tests can age estimates without sleeping.
    """

    #: Weight of a new observation.
    ALPHA = 0.3
    #: Seconds for an unrefreshed estimate to halve.
    HALF_LIFE_S = 2.0

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._estimates: Dict[str, Tuple[float, float]] = {}  # node → (s, at)
        self._lock = threading.Lock()

    def _aged(self, node_id: str, now: float) -> Optional[float]:
        entry = self._estimates.get(node_id)
        if entry is None:
            return None
        seconds, at = entry
        return seconds * 0.5 ** (max(0.0, now - at) / self.HALF_LIFE_S)

    def observe(self, node_id: str, seconds: float, bound: bool = False) -> None:
        """Fold one attempt latency into *node_id*'s estimate; with
        ``bound`` it is only a lower bound (the attempt was abandoned)."""
        with self._lock:
            now = self.clock()
            current = self._aged(node_id, now)
            if current is not None:
                if bound:
                    # The node's latency is at least *seconds*.
                    seconds = max(current, seconds)
                else:
                    seconds = current + self.ALPHA * (seconds - current)
            self._estimates[node_id] = (seconds, now)

    def estimate(self, node_id: str) -> Optional[float]:
        """The aged estimate in seconds; None while unobserved."""
        with self._lock:
            return self._aged(node_id, self.clock())

    def order(self, replicas: Sequence[str]) -> List[str]:
        """*replicas* (in placement order) sorted by aged estimate.

        An unobserved node ranks as instantly fast, so it is measured on
        its next shard instead of hiding behind a slow peer forever; the
        sort is stable, so ties — every node of a cold cluster — keep the
        placement order.
        """
        with self._lock:
            now = self.clock()
            estimates = [self._aged(node_id, now) or 0.0 for node_id in replicas]
        ranked = sorted(zip(estimates, range(len(replicas))))
        return [replicas[i] for _, i in ranked]


@dataclass
class ShardTask:
    """One block's unit of scatter work."""

    name: str
    replicas: List[str]
    request: object = None


@dataclass
class ShardOutcome:
    """One shard's gathered result plus its delivery accounting."""

    name: str
    node_id: str
    payload: object
    count: int
    stats: QueryStats
    attempts: int = 1
    retries: int = 0
    timeouts: int = 0
    hedged: bool = False
    hedge_won: bool = False
    elapsed: float = 0.0
    wire_bytes: int = 0


@dataclass
class _Attempt:
    node_id: str
    started: float
    hedged: bool


def wire_size(response: ShardResponse) -> int:
    """Serialized size of one shard response — what a real network gather
    would put on the wire (the simulated RPCs pass objects in-process, so
    transfer bytes are measured, not paid)."""
    return len(pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL))


class ScatterGather:
    """Runs shard tasks against replicas with deadlines, retries, hedges."""

    def __init__(
        self,
        config: ScatterConfig,
        latency: Optional[LatencyTracker] = None,
        alive: Optional[Callable[[str], bool]] = None,
        ranker: Optional[ReplicaRanker] = None,
    ):
        self.config = config
        self.latency = latency if latency is not None else LatencyTracker()
        self.ranker = ranker if ranker is not None else ReplicaRanker()
        self._alive = alive if alive is not None else (lambda _nid: True)
        self._fanout = ThreadPoolExecutor(
            max_workers=max(1, config.fanout_concurrency),
            thread_name_prefix="scatter-fanout",
        )
        # Attempts outnumber shards transiently: a hedge plus abandoned
        # stragglers still draining their simulated I/O.  Size the pool so
        # zombies do not starve fresh attempts at test/bench scale.
        self._attempts = ThreadPoolExecutor(
            max_workers=max(2, config.fanout_concurrency * 4),
            thread_name_prefix="scatter-attempt",
        )

    def close(self) -> None:
        self._fanout.shutdown(wait=True)
        self._attempts.shutdown(wait=True)

    # ------------------------------------------------------------------
    def map(
        self,
        tasks: Sequence[ShardTask],
        action: Callable[[str, ShardTask], ShardResponse],
        kind: str,
    ) -> List[ShardOutcome]:
        """Run every task (bounded concurrency); outcomes in task order.

        Raises the first :class:`ShardError` once encountered — partial
        results are dropped, matching the all-or-nothing semantics of a
        gather.
        """
        futures = [
            self._fanout.submit(self._run_shard, task, action, kind)
            for task in tasks
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        task: ShardTask,
        action: Callable[[str, ShardTask], ShardResponse],
        kind: str,
    ) -> ShardOutcome:
        config = self.config
        start = time.perf_counter()
        candidates = self.ranker.order(
            [nid for nid in task.replicas if self._alive(nid)]
        )
        if not candidates:
            raise ShardError(
                task.name, f"all replicas down ({task.replicas})"
            )
        inflight: Dict["Future[ShardResponse]", _Attempt] = {}
        attempts = retries = timeouts = 0
        hedged = False
        backoff = config.retry_backoff_s
        next_replica = 0
        last_error: Optional[Exception] = None

        def launch(is_hedge: bool) -> None:
            nonlocal attempts, next_replica
            node_id = candidates[next_replica % len(candidates)]
            next_replica += 1
            attempts += 1
            future = self._attempts.submit(action, node_id, task)
            inflight[future] = _Attempt(node_id, time.perf_counter(), is_hedge)

        launch(is_hedge=False)
        while True:
            now = time.perf_counter()
            sole = (
                next(iter(inflight.values()))
                if len(inflight) == 1
                else None
            )
            can_hedge = (
                config.hedge
                and not hedged
                and sole is not None
                and not sole.hedged
                and attempts < config.max_attempts
                and len(candidates) > 1
            )
            wake: Optional[float] = None
            if can_hedge:
                assert sole is not None
                wake = sole.started + self.latency.hedge_delay(config)
            if config.shard_deadline_s is not None and inflight:
                deadline = min(
                    attempt.started + config.shard_deadline_s
                    for attempt in inflight.values()
                )
                wake = deadline if wake is None else min(wake, deadline)
            timeout = None if wake is None else max(0.0, wake - now)
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.perf_counter()
            for future in done:
                attempt = inflight.pop(future)
                try:
                    payload, count, stats = future.result()
                except RETRYABLE as exc:
                    last_error = exc
                    retries += 1
                    _RETRIES.inc(reason="failure")
                    continue
                # Winner: everything still inflight is abandoned (results
                # discarded — attempts are idempotent reads); their elapsed
                # time is a lower bound on their nodes' latency.
                elapsed = now - start
                self.latency.observe(now - attempt.started)
                self.ranker.observe(attempt.node_id, now - attempt.started)
                for other in inflight.values():
                    self.ranker.observe(
                        other.node_id, now - other.started, bound=True
                    )
                _SHARD_SECONDS.observe(elapsed)
                if attempt.hedged:
                    _HEDGE_WINS.inc()
                elif hedged:
                    _HEDGE_LOSSES.inc()
                bytes_on_wire = wire_size((payload, count, stats))
                _GATHER_BYTES.inc(bytes_on_wire, kind=kind)
                return ShardOutcome(
                    task.name,
                    attempt.node_id,
                    payload,
                    count,
                    stats,
                    attempts=attempts,
                    retries=retries,
                    timeouts=timeouts,
                    hedged=hedged,
                    hedge_won=attempt.hedged,
                    elapsed=elapsed,
                    wire_bytes=bytes_on_wire,
                )
            if config.shard_deadline_s is not None:
                for future, attempt in list(inflight.items()):
                    if now - attempt.started >= config.shard_deadline_s:
                        # Threads cannot be interrupted: drop the future
                        # (cancel() only helps while still queued) and
                        # stop listening to it.
                        inflight.pop(future)
                        future.cancel()
                        self.ranker.observe(
                            attempt.node_id, now - attempt.started, bound=True
                        )
                        timeouts += 1
                        retries += 1
                        _TIMEOUTS.inc()
                        _RETRIES.inc(reason="timeout")
            if not inflight:
                if attempts >= config.max_attempts:
                    raise ShardError(
                        task.name,
                        f"gave up after {attempts} attempt(s), "
                        f"{timeouts} timeout(s) on {candidates} "
                        f"(last error: {last_error})",
                    )
                time.sleep(backoff)
                backoff *= 2.0
                launch(is_hedge=False)
            elif (
                can_hedge
                and sole is not None
                and now >= sole.started + self.latency.hedge_delay(config)
                and next(iter(inflight.values())) is sole
            ):
                hedged = True
                _HEDGE_LAUNCHED.inc()
                launch(is_hedge=True)
