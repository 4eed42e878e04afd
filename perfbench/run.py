#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grep-cold --seed 1 --seconds 22 --trace 0

Run from the repository root.  The program is imported from ``src/``;
every ``LOGGREP_*`` environment variable is cleared first, so CI legs
cannot change what is measured.  Set-up (input generation and archive
build) runs three times after one untimed warm-up and ``setup_s`` is
their median; the queries and their oracle answers are computed once,
untimed; then episodes of the workload repeat for ``--seconds``.  Every
end-to-end time is reported at the reference host speed
(``perfbench/calibrate.py``); the wall-clock figures are printed on the
line before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with every layer
wrapper installed, prints the per-layer metrics (and the tracing
overhead of the second half against the first), and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
#: Kernel timings before each timed set-up and after the last.
SETUP_KERNELS = 3


def clear_loggrep_env(environ=os.environ) -> List[str]:
    """Remove every ``LOGGREP_*`` variable; returns the names removed."""
    names = sorted(name for name in environ if name.startswith("LOGGREP_"))
    for name in names:
        del environ[name]
    return names


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_phase(workload, samples, seconds: float) -> int:
    """Repeat whole episodes for about *seconds*; returns the count.

    A new episode starts only while more than half an average episode's
    time is left, so the phase ends within half an episode of *seconds*.
    """
    start = time.perf_counter()
    episodes = 0
    while True:
        workload.episode(samples)
        episodes += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed <= 0.5 * elapsed / episodes:
            return episodes


def end_to_end(samples, setup, setup_samples, slowdown: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics of one phase.  Times are divided by the
    phase's *slowdown* (and set-up times by the set-up's own), so they read
    at the calibrated reference speed; with ``slowdown=1`` they are wall
    times.  *setup* is ``(set-up seconds, set-up slowdown)``."""
    setup_s, setup_slowdown = setup
    # Single queries; live-triage's fresh queries and batches have their
    # own (traced-run) metrics: a fresh query's cost is the tail the
    # background pipeline has not sealed yet, which swings with host load.
    singles = samples.series["query_ms"]
    # Streaming ingests by appending; the others compress in episodes or,
    # when the timed phase only reads, in set-up.
    ingest = (
        samples.mb_per_s("ingest") or samples.mb_per_s("append") or setup_samples.mb_per_s("ingest")
    )
    ratio = samples.series["compression_ratio"] or setup_samples.series["compression_ratio"]
    return {
        "setup_s": median(setup_s) / setup_slowdown,
        "ingest_mb_s": ingest * slowdown,
        "compression_ratio": median(ratio),
        "query_p50_ms": median(singles) / slowdown,
        "query_p90_ms": p90(singles) / slowdown,
        "queries_per_s": 1000.0 * len(singles) / sum(singles) * slowdown if singles else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {
    "setup_s": "s",
    "ingest_mb_s": "MB/s",
    "compression_ratio": "x",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def user_metrics(samples, slowdown: float) -> Dict[str, float]:
    """Workload-specific user-visible numbers (0 where not exercised),
    times at the calibrated reference speed."""
    series = samples.series
    return {
        "demote_mb_s": samples.mb_per_s("demote") * slowdown,
        "cold_compression_ratio": median(series["cold_compression_ratio"]),
        "fresh_query_p50_ms": median(series["fresh_ms"]) / slowdown,
        "fresh_query_p90_ms": p90(series["fresh_ms"]) / slowdown,
        "batch_p50_ms": median(series["batch_ms"]) / slowdown,
        "batch_p90_ms": p90(series["batch_ms"]) / slowdown,
        "append_mb_s": samples.mb_per_s("append") * slowdown,
    }


USER_UNITS = {
    "demote_mb_s": "MB/s",
    "cold_compression_ratio": "x",
    "fresh_query_p50_ms": "ms",
    "fresh_query_p90_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "append_mb_s": "MB/s",
}


def mean_op_ms(samples) -> float:
    ops = samples.series["query_ms"] + samples.series["fresh_ms"] + samples.series["batch_ms"]
    return statistics.fmean(ops) if ops else 0.0


def set_up(workload, setup_samples) -> Tuple[List[float], float]:
    """The timed set-ups (after an untimed warm-up), then the oracle.
    Returns the set-up times and the host slowdown measured around them."""
    from perfbench.calibrate import Calibrator
    from perfbench.workloads import Samples

    # Flush writeback left by earlier runs, then one untimed set-up
    # absorbs first-call costs (lazy imports, allocator growth).
    os.sync()
    workload.setup(Samples())
    calibrator = Calibrator()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        calibrator.measure(SETUP_KERNELS)
        start = time.perf_counter()
        workload.setup(setup_samples)
        setup_s.append(time.perf_counter() - start)
    calibrator.measure(SETUP_KERNELS)
    start = time.perf_counter()
    workload.prepare()
    print(json.dumps({
        "setup_s": setup_s, "setup_slowdown": calibrator.slowdown(),
        "prepare_s": time.perf_counter() - start,
    }))
    return setup_s, calibrator.slowdown()


def timed_phase(workload, samples, seconds: float) -> Tuple[int, float]:
    """``run_phase`` with the host-speed calibrator ticking between
    operations; returns the episode count and the phase's slowdown."""
    from perfbench.calibrate import Calibrator

    workload.calibrator = Calibrator()
    try:
        episodes = run_phase(workload, samples, seconds)
    finally:
        calibrator, workload.calibrator = workload.calibrator, None
    return episodes, calibrator.slowdown()


def traced_metrics(workload, args, untraced, traced, setup, setup_samples, slowdown) -> Dict[str, dict]:
    """Run the traced half; the per-layer metrics, the workload-specific
    user metrics of the untraced half and the tracing overhead."""
    from perfbench import layers, tracing
    from repro.obs.metrics import get_registry

    recorder = tracing.Recorder(adopters=layers.ADOPTERS)
    registry = get_registry()
    before = layers.counter_snapshot(registry)
    installation = tracing.install(layers.TARGETS, recorder)
    workload.recorder = recorder
    try:
        traced_episodes, traced_slowdown = timed_phase(workload, traced, args.seconds / 2)
    finally:
        installation.uninstall()
        workload.recorder = None
    after = layers.counter_snapshot(registry)
    workload.finish(traced)
    deltas = {name: after[name] - before[name] for name in after}
    phase = layers.PhaseData(recorder, deltas, traced.tally)
    values, missing = layers.per_layer(phase, installation.missing)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    for name, value in user_metrics(untraced, slowdown).items():
        metrics[name] = {"value": value, "unit": USER_UNITS[name]}
    untraced_ms = mean_op_ms(untraced) / slowdown
    traced_ms = mean_op_ms(traced) / traced_slowdown
    metrics["tracing.overhead_ratio"] = {
        "value": traced_ms / untraced_ms if untraced_ms else 0.0, "unit": "x",
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    recorder.write(spans_path, {"workload": args.workload, "seed": args.seed, "missing": missing})
    print(json.dumps({
        "traced_episodes": traced_episodes,
        "spans": os.path.relpath(spans_path, ROOT),
        "span_count": len(recorder.spans),
        "missing_metrics": missing,
        "untraced": end_to_end(untraced, setup, setup_samples, slowdown),
        "traced": end_to_end(traced, setup, setup_samples, traced_slowdown),
    }, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke tests)")
    args = parser.parse_args(argv)

    # A terminated run still removes its scratch archives.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cleared = clear_loggrep_env()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import dataclasses

    from perfbench.workloads import WORKLOADS, Samples

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, tiny=args.tiny)
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "cleared_env": cleared,
            "config": dataclasses.asdict(workload.config),
        }, sort_keys=True))
        setup_samples = Samples()
        setup = set_up(workload, setup_samples)

        untraced = Samples()
        if args.trace == 0:
            episodes, slowdown = timed_phase(workload, untraced, args.seconds)
            workload.finish(untraced)
            phases = [untraced]
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in end_to_end(untraced, setup, setup_samples, slowdown).items()
            }
        else:
            episodes, slowdown = timed_phase(workload, untraced, args.seconds / 2)
            traced = Samples()
            metrics = traced_metrics(workload, args, untraced, traced, setup, setup_samples, slowdown)
            phases = [untraced, traced]
        print(json.dumps({
            "episodes": episodes,
            "slowdown": slowdown,
            "wall": end_to_end(untraced, (setup[0], 1.0), setup_samples),
        }, sort_keys=True))

        attempted = sum(p.attempted for p in phases) + setup_samples.attempted
        failed = sum(p.failed for p in phases) + setup_samples.failed
        if args.trace == 1:
            # Operations that raised or disagreed with the oracle, over all.
            metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        for p in phases:
            for failure in p.failures:
                print(f"FAILED {failure}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
