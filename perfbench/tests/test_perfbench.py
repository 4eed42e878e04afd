"""The benchmark's own tests.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from types import SimpleNamespace

import pytest

from perfbench import layers, tracing
from perfbench.oracle import Oracle, Query
from perfbench.tracing import Recorder, Span, Target
from perfbench.workloads import Samples, Workload, count_by_check, grep_check

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("ingest", "grep-cold", "live-triage", "cluster-scatter")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env=env,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, [json.loads(line) for line in lines]


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    proc, out = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = out[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = bench_spec()
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    proc, out = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    info, result = out[-3], out[-1]
    assert result["correct"]
    assert info["missing_metrics"] == {}
    assert info["span_count"] > 0
    spec = bench_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_their_overlap():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, 0),
        Span(2, "child", 1.0, 3.0, 1, 1, 0),
        # Two parallel children on fan-out threads overlapping each other:
        # together they cover [4, 8), not 4 + 3 seconds.
        Span(3, "shard", 4.0, 8.0, 1, 1, 1),
        Span(4, "shard", 5.0, 8.0, 1, 1, 2),
        Span(5, "leaf", 1.5, 2.0, 2, 1, 0),
        # A child running past its parent's end only covers the overlap.
        Span(6, "late", 9.0, 12.0, 1, 1, 3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(0.5)
    self_by, incl_by, count_by = tracing.totals(spans)
    assert self_by["shard"] == pytest.approx(7.0)
    assert incl_by["root"] == pytest.approx(10.0)
    assert count_by["shard"] == 2


FAKE_LAYER = """
import threading

def inner():
    return [1, 2, 3]

def outer():
    return inner()

def fan():
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    return worker
"""


def test_wrappers_nest_adopt_and_uninstall():
    mod_name = "perfbench_fake_layer"
    module = types.ModuleType(mod_name)
    exec(FAKE_LAYER, module.__dict__)
    originals = (module.inner, module.outer, module.fan)
    sys.modules[mod_name] = module
    try:
        rec = Recorder(adopters=["fan"])
        inst = tracing.install(
            [
                Target(f"{mod_name}:inner", "inner", "items"),
                Target(f"{mod_name}:outer", "outer"),
                Target(f"{mod_name}:fan", "fan"),
                Target(f"{mod_name}:gone", "gone"),
            ],
            rec,
        )
        module.outer()
        by_name = {s.name: s for s in rec.spans}
        assert by_name["inner"].parent == by_name["outer"].sid
        assert rec.items["inner"] == 3
        # A span on a fresh thread is adopted by the open adopting span.
        worker = module.fan()
        assert not worker.is_alive()
        fan_span = [s for s in rec.spans if s.name == "fan"][0]
        threaded = [s for s in rec.spans if s.name == "inner"][-1]
        assert threaded.parent == fan_span.sid
        assert threaded.thread != fan_span.thread
        assert f"{mod_name}:gone" in inst.missing
        inst.uninstall()
        assert (module.inner, module.outer, module.fan) == originals
    finally:
        del sys.modules[mod_name]


def test_missing_wrap_target_is_reported_not_raised():
    rec = Recorder()
    targets = [t for t in layers.TARGETS if t.name != "query.locate"]
    targets.append(Target("repro.query.vectors:no_such_locate", "query.locate"))
    inst = tracing.install(targets, rec)
    inst.uninstall()
    missing_paths = dict(inst.missing)
    # Pretend every real locate target vanished as well.
    for target in layers.TARGETS:
        if target.name == "query.locate":
            missing_paths[target.path] = "deleted"
    phase = layers.PhaseData(rec, {name: 0.0 for name in layers.COUNTERS}, {})
    values, missing = layers.per_layer(phase, missing_paths)
    assert "query.locate_s" in missing
    assert "query.locate_s" not in values
    assert "capsule.scan_s" in values


# ----------------------------------------------------------------------
# oracle and error accounting
# ----------------------------------------------------------------------
LINES = [
    "INFO a state:OPEN code:1",
    "ERROR b state:CLOSED code:2",
    "INFO c state:CLOSED code:3",
    "ERROR d state:OPEN code:2",
]


def test_off_by_one_grep_result_is_a_failure():
    oracle = Oracle("Log A", LINES)
    samples = Samples()
    workload = Workload(0, tempfile.gettempdir())
    good = SimpleNamespace(line_ids=[1, 3], lines=[LINES[1], LINES[3]])
    shifted = SimpleNamespace(line_ids=[2, 4], lines=[LINES[1], LINES[3]])
    extra = SimpleNamespace(line_ids=[0, 1, 3], lines=[LINES[0], LINES[1], LINES[3]])
    for result in (good, shifted, extra):
        workload.query(samples, lambda r=result: r, grep_check(oracle, "ERROR"), "ERROR")
    assert samples.attempted == 3
    assert samples.failed == 2
    # Over a prefix only the lines appended so far count.
    assert oracle.check_grep("ERROR", [1], [LINES[1]], limit=3)


def test_off_by_one_count_by_is_a_failure():
    oracle = Oracle("Log A", LINES)
    samples = Samples()
    workload = Workload(0, tempfile.gettempdir())
    q = Query("count-by", "ERROR", "state")
    expected = {"CLOSED": 1, "OPEN": 1}
    off = {"CLOSED": 2, "OPEN": 1}
    workload.query(samples, lambda: expected, count_by_check(oracle, q), "ok")
    workload.query(samples, lambda: off, count_by_check(oracle, q), "off")
    assert (samples.attempted, samples.failed) == (2, 1)


def test_raising_operation_is_a_failure():
    samples = Samples()
    workload = Workload(0, tempfile.gettempdir())

    def boom():
        raise RuntimeError("store gone")

    workload.query(samples, boom, lambda r: True, "boom")
    assert (samples.attempted, samples.failed) == (1, 1)
    assert "store gone" in samples.failures[0]
    assert not samples.series["query_ms"]


# ----------------------------------------------------------------------
# environment isolation
# ----------------------------------------------------------------------
def test_loggrep_environment_does_not_reach_the_measured_config():
    env = dict(os.environ)
    env.update(
        LOGGREP_BATCH_SCANS="1",
        LOGGREP_SCAN_KERNEL="python",
        LOGGREP_COMPRESS_PARALLELISM="2",
    )
    proc, out = run_bench("grep-cold", 0, env=env)
    assert proc.returncode == 0, proc.stderr
    header = out[0]
    assert header["cleared_env"] == [
        "LOGGREP_BATCH_SCANS", "LOGGREP_COMPRESS_PARALLELISM", "LOGGREP_SCAN_KERNEL",
    ]
    config = header["config"]
    assert config["batch_scans"] is False
    assert config["scan_kernel"] == "bytes"
    assert config["compress_parallelism"] == 1


def test_run_without_the_program_fails_without_a_result():
    with tempfile.TemporaryDirectory() as bare:
        os.makedirs(os.path.join(bare, "perfbench"))
        for name in os.listdir(os.path.join(ROOT, "perfbench")):
            if name.endswith(".py"):
                with open(os.path.join(ROOT, "perfbench", name), "rb") as src, open(
                    os.path.join(bare, "perfbench", name), "wb"
                ) as dst:
                    dst.write(src.read())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
def test_times_are_reported_at_the_calibrated_reference_speed():
    from perfbench.run import end_to_end
    from perfbench.workloads import Samples

    samples = Samples()
    samples.series["query_ms"] += [10.0, 20.0, 30.0]
    samples.add_rate("ingest", 4_000_000, 2.0)
    samples.add_rate("ingest", 2_000_000, 1.0)
    wall = end_to_end(samples, ([3.0, 1.0, 2.0], 1.0), Samples())
    assert wall["query_p50_ms"] == 20.0 and wall["ingest_mb_s"] == 2.0 and wall["setup_s"] == 2.0
    # A host running twice as slow as the reference: times halve, rates double.
    at_reference = end_to_end(samples, ([3.0, 1.0, 2.0], 4.0), Samples(), slowdown=2.0)
    assert at_reference["query_p50_ms"] == 10.0
    assert at_reference["queries_per_s"] == 2 * wall["queries_per_s"]
    assert at_reference["ingest_mb_s"] == 4.0
    assert at_reference["setup_s"] == 0.5


def test_calibrator_ticks_at_most_once_per_interval():
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator(interval_s=3600)
    calibrator.tick()
    calibrator.tick()
    assert len(calibrator.samples) == 1
    assert calibrator.slowdown() > 0
