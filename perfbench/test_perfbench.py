"""Checks of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import gc
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

#: Per-layer metrics that are counts or ratios of work done: they must
#: repeat exactly for a given seed.
EXACT_LAYER_METRICS = ("incremental.hit_ratio", "incremental.dirty_nets",
                       "incremental.full_fallbacks", "fastsim.gate_cycles",
                       "store.hit_ratio")


def _gc_collections_during(fn) -> int:
    """Collections triggered while ``fn`` runs with one GC object live
    and a threshold of 1: any GC-tracked allocation trips one."""
    events = []

    def callback(phase, info):
        events.append(phase)

    old = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(callback)
    try:
        keep = []                                   # noqa: F841
        gc.set_threshold(1)
        fn()
        gc.set_threshold(*old)
    finally:
        gc.set_threshold(*old)
        gc.callbacks.remove(callback)
    return len(events)


def test_gc_detector_sees_container_allocations():
    def allocates():
        return len((object(), 1))

    assert _gc_collections_during(allocates) > 0


def test_probe_allocates_no_gc_tracked_objects():
    assert _gc_collections_during(probe.probe) == 0


def test_probe_uses_thread_cpu_clock(monkeypatch):
    readings = iter([10.0, 10.25])
    fake_time = types.SimpleNamespace(thread_time=lambda: next(readings))
    monkeypatch.setattr(probe, "time", fake_time)
    assert probe.probe() == 0.25


def test_speed_factor_is_reference_over_run_mean():
    host = probe.HostSpeed()
    host.samples = [0.001, 0.003]
    assert host.probe_s == 0.002
    assert host.factor == probe.REFERENCE_PROBE_S / 0.002


def _run(workload, seed, trace, cwd=ROOT, ops=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    digest = re.search(r"digest=(\w+)", lines[0]).group(1)
    return result, digest


@pytest.mark.parametrize("workload", ["opt_passes", "edit_loop",
                                      "cold_estimate", "serve_batch"])
def test_same_seed_same_ops_digests_and_counts(workload):
    """Two traced runs with one seed: identical op outputs and counts,
    and exactly the per-layer metric names BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first, digest1 = _result(_run(workload, 5, 1, ops=14))
    second, digest2 = _result(_run(workload, 5, 1, ops=14))
    assert digest1 == digest2
    assert first["correct"] and first["failed"] == 0
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == declared
    for name in EXACT_LAYER_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_metrics_match_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _ = _result(_run("serve_batch", 1, 0, ops=8))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert result["metrics"]["op_p90_s"]["value"] \
        >= result["metrics"]["op_p50_s"]["value"]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _run("edit_loop", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
