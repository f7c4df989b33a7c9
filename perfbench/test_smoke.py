"""Smoke test of the benchmark's own code at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import harness

sys.path.insert(0, str(harness.SRC))

import run  # noqa: E402  (needs qbounds on the path)

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_is_correct(workload):
    wl = run.Workload(workload, seed=7)
    rec = harness.Recorder()
    harness.run_pass(wl.make(wl.rng, rec, True), rec, harness.Tracer())
    assert rec.attempted > 0
    assert rec.failed == 0, run.op_report(rec)
    assert len(rec.pass_ns) == 1 and rec.pass_ns[0] > 0


def test_same_seed_same_inputs():
    a = run.Workload("scalar-grid.float64", seed=3)
    b = run.Workload("scalar-grid.float64", seed=3)
    ops_a = a.make(a.rng, None, True)
    ops_b = b.make(b.rng, None, True)
    assert [(o.name, o.args) for o in ops_a] == [(o.name, o.args) for o in ops_b]


def test_self_time_subtracts_direct_children():
    tr = harness.Tracer()
    root = tr.record("pass", 0, 100)
    child = tr.record("op", 10, 40, parent=root, request=0)
    tr.record("inner", 20, 30, parent=child, request=0)
    assert tr.self_times() == {"pass": (1, 70), "op": (1, 20), "inner": (1, 10)}


def test_tail_keeps_ten_samples_beyond_and_caps_at_p95():
    assert harness.tail(list(range(1, 12)))[0] == 1
    assert harness.tail(list(range(1, 31)))[0] == 20
    value, pct = harness.tail(list(range(1, 10001)))
    assert value == 9500 and pct == 95.0
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_speed_scale_is_cached_between_samples():
    speed = harness.Speed()
    now = time.perf_counter_ns()
    first = speed.now(now)
    assert first > 0
    assert len(speed.samples) == harness.SPEED_MIN_SAMPLES
    assert speed.now(time.perf_counter_ns()) == first
    assert len(speed.samples) == harness.SPEED_MIN_SAMPLES


def _run(*args, cwd=harness.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    proc = _run("--workload", "table-scans", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_defects_are_probed_by_name():
    import wl_cli
    defects = wl_cli.probe_known_defects()
    assert set(defects) == set(wl_cli.KNOWN_DEFECTS)
    assert {d["status"] for d in defects.values()} <= {"present", "fixed"}
