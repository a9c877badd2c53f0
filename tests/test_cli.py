"""CLI (`python -m repro`) and bench-orchestrator coverage.

The orchestrator tests drive ``repro bench`` against a scratch bench
directory holding a passing, a failing, and a hanging bench, so the
sweep's graceful-degradation guarantees (timeout kills, one retry,
failures recorded not raised) are exercised in seconds.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs import runner

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestBasicCommands:
    def test_default_is_info(self, capsys):
        assert main([]) == 0
        assert "repro" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro.estimation" in out
        assert "repro.obs" in out

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["package"] == "repro"
        modules = [s["module"] for s in payload["subsystems"]]
        assert "repro.obs" in modules and "repro.bdd" in modules

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "bench_table1_fir.py" in out
        assert "python -m repro bench" in out

    def test_experiments_json(self, capsys):
        assert main(["experiments", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {e["id"]: e for e in payload}
        assert by_id["T1"]["bench"] == "bench_table1_fir.py"
        assert by_id["P1"]["kind"] == "perf"
        assert all({"id", "title", "bench", "kind"} <= set(e)
                   for e in payload)

    def test_registry_matches_bench_files(self):
        from repro.experiments import EXPERIMENTS

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        on_disk = {p.name for p in bench_dir.glob("bench_*.py")}
        registered = {e.bench for e in EXPERIMENTS}
        assert registered == on_disk

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "gate-level simulation" in out
        assert "entropy model" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_unknown_command_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "no-such-cmd"],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert proc.returncode == 2
        assert "bench" in proc.stdout


@pytest.fixture
def scratch_benches(tmp_path):
    """A bench dir with one passing, one failing, one hanging bench."""
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_pass.py").write_text(textwrap.dedent("""
        from repro import obs

        def test_ok():
            with obs.span("scratch.work"):
                obs.inc("scratch.units", 4)
            assert True
    """))
    (bench_dir / "bench_fail.py").write_text(textwrap.dedent("""
        def test_broken():
            raise RuntimeError("deliberate failure")
    """))
    (bench_dir / "bench_hang.py").write_text(textwrap.dedent("""
        import time

        def test_hangs():
            time.sleep(60)
    """))
    return bench_dir


class TestBenchOrchestrator:
    def test_sweep_degrades_gracefully(self, scratch_benches, capsys):
        rc = main(["bench", "--bench-dir", str(scratch_benches),
                   "--timeout", "6", "--jobs", "2"])
        out = capsys.readouterr().out
        assert rc == 1                       # failures reported via exit
        report_path = scratch_benches.parent / "BENCH_ALL.json"
        report = json.loads(report_path.read_text())

        benches = report["benches"]
        assert set(benches) == {"bench_pass.py", "bench_fail.py",
                                "bench_hang.py"}
        assert benches["bench_pass.py"]["status"] == "ok"
        assert benches["bench_fail.py"]["status"] == "failed"
        assert benches["bench_hang.py"]["status"] == "timeout"
        for entry in benches.values():
            assert entry["status"] in ("ok", "failed", "timeout")

        # One retry for everything that did not pass.
        assert benches["bench_fail.py"]["attempts"] == 2
        assert benches["bench_pass.py"]["attempts"] == 1
        assert benches["bench_fail.py"]["output_tail"]

        # Telemetry harvested from the instrumented worker.
        telemetry = benches["bench_pass.py"]["telemetry"]
        assert "scratch.work" in telemetry["span_roots"]
        assert telemetry["counters"]["scratch.units"] == 4

        summary = report["summary"]
        assert summary == {"total": 3, "ok": 1, "failed": 1,
                           "timeout": 1}
        assert report["manifest"]["version"]
        assert "bench_hang.py" in out

    def test_hang_timeout_is_enforced(self, scratch_benches):
        entry = runner.run_bench(scratch_benches / "bench_hang.py",
                                 timeout=1.5, retries=0)
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1
        assert entry["duration_s"] < 15

    def test_retry_pass_keeps_first_failure(self, tmp_path):
        """A bench that fails once and passes on retry still records
        why its first attempt failed."""
        bench = tmp_path / "bench_flaky.py"
        bench.write_text(textwrap.dedent("""
            from pathlib import Path

            MARKER = Path(__file__).with_name("ran_once")

            def test_flaky():
                if not MARKER.exists():
                    MARKER.write_text("x")
                    raise RuntimeError("first attempt flaked")
        """))
        entry = runner.run_bench(bench, timeout=60, trace=False,
                                 retries=1)
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2
        first = entry["first_failure"]
        assert first["status"] == "failed" and first["returncode"] == 1
        assert any("first attempt flaked" in line
                   for line in first["output_tail"])
        assert "output_tail" not in entry

    def test_filter_and_json_output(self, scratch_benches, capsys):
        rc = main(["bench", "--bench-dir", str(scratch_benches),
                   "--filter", "pass", "--timeout", "30", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["benches"]) == ["bench_pass.py"]
        assert report["summary"]["ok"] == 1
        assert report["config"]["filter"] == "pass"

    def test_smoke_selects_the_committed_subset(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        for name in runner.SMOKE_BENCHES + ["bench_other.py"]:
            (bench_dir / name).write_text("def test_ok():\n    pass\n")
        rc = main(["bench", "--bench-dir", str(bench_dir), "--smoke",
                   "--timeout", "60", "--no-trace"])
        assert rc == 0
        report = json.loads(
            (tmp_path / "BENCH_ALL.json").read_text())
        assert set(report["benches"]) == set(runner.SMOKE_BENCHES)
        assert report["config"]["smoke"] is True

    def test_solo_benches_run_after_the_others(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        log = tmp_path / "log.txt"
        body = textwrap.dedent(f"""
            import time

            def test_log():
                with open({str(log)!r}, "a") as fh:
                    fh.write(f"{{__name__}} start {{time.time()}}\\n")
                time.sleep(0.3)
                with open({str(log)!r}, "a") as fh:
                    fh.write(f"{{__name__}} end {{time.time()}}\\n")
        """)
        names = ["bench_a.py", "bench_b.py", "bench_c.py"]
        for name in names + list(runner.SOLO_BENCHES):
            (bench_dir / name).write_text(body)
        results = runner.run_sweep(runner.discover_benches(bench_dir),
                                   jobs=2, timeout=60, trace=False)
        assert all(e["status"] == "ok" for e in results.values())
        stamps = {}
        for line in log.read_text().splitlines():
            name, kind, when = line.split()
            stamps[(name, kind)] = float(when)
        solo_start = min(stamps[(n[:-3], "start")]
                         for n in runner.SOLO_BENCHES)
        assert all(stamps[(n[:-3], "end")] <= solo_start for n in names)

    def test_no_benches_matched(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        assert main(["bench", "--bench-dir", str(bench_dir)]) == 2

    def test_smoke_set_exists_on_disk(self):
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        for name in runner.SMOKE_BENCHES:
            assert (bench_dir / name).is_file(), name


class TestRegressionGate:
    def test_gate_flags_speedup_drops(self, tmp_path):
        baseline = {"exp": {"speedup": 100.0},
                    "no_speedup_key": {"note": "ignored"}}
        current = {"exp": {"speedup": 10.0}}
        (tmp_path / "BENCH_fastsim.json").write_text(json.dumps(current))
        regs = runner.gate_regressions(
            {"BENCH_fastsim.json": baseline}, tmp_path, tolerance=0.5)
        assert len(regs) == 1
        assert regs[0]["key"] == "exp"
        assert regs[0]["measured_speedup"] == 10.0

    def test_gate_passes_within_tolerance(self, tmp_path):
        baseline = {"exp": {"speedup": 100.0}}
        (tmp_path / "BENCH_fastsim.json").write_text(
            json.dumps({"exp": {"speedup": 60.0}}))
        regs = runner.gate_regressions(
            {"BENCH_fastsim.json": baseline}, tmp_path, tolerance=0.5)
        assert regs == []

    def test_gate_ignores_missing_files(self, tmp_path):
        regs = runner.gate_regressions(
            {"BENCH_fastsim.json": {}, "BENCH_bdd.json": {}}, tmp_path)
        assert regs == []


class TestPerfCommonRecord:
    def test_concurrent_writers_drop_nothing(self, tmp_path):
        import threading

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "benchmarks"))
        try:
            import _perf_common
        finally:
            sys.path.pop(0)

        path = tmp_path / "BENCH_x.json"
        n, per = 8, 12

        def writer(i):
            for j in range(per):
                _perf_common.record(path, f"w{i}_k{j}",
                                    {"value": i * 100 + j})

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        data = json.loads(path.read_text())
        assert len(data) == n * per
        assert data["w3_k7"] == {"value": 307}
        assert not path.with_name(path.name + ".lock").exists()
