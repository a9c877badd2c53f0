"""Parallel experiment orchestrator behind ``python -m repro bench``.

Discovers every ``benchmarks/bench_*.py`` target, fans the sweep out
over a worker pool, and aggregates per-bench results plus harvested
telemetry into one ``BENCH_ALL.json`` at the repo root.  Design
points, in the order they bit previous hand-rolled harnesses:

- **Isolation.**  Each bench runs in its own subprocess (pytest on a
  single file).  A bench that corrupts interpreter state, leaks
  memory, or hangs cannot take the sweep down with it.
- **Timeouts that actually kill.**  The pool is a
  :class:`multiprocessing.pool.ThreadPool` whose workers *drive*
  subprocesses; ``subprocess.run(timeout=...)`` kills the child
  process group on expiry.  (An in-process ``multiprocessing.Pool``
  cannot forcibly stop a stuck worker without burning the pool.)
- **Graceful degradation.**  A failing or hanging bench is recorded
  as ``{"status": "failed"|"timeout", ...}`` with the output tail —
  never an aborted sweep.  Every failure gets exactly one retry
  (perf flakes on loaded CI boxes are the common case).
- **Telemetry.**  Workers run with ``REPRO_OBS_EXPORT`` pointing at a
  scratch file; :mod:`repro.obs` in the child writes its span trees
  and metrics at exit, and the orchestrator folds a digest into the
  bench's entry.
- **Regression gate.**  The perf benches maintain committed baselines
  (``BENCH_fastsim.json``, ``BENCH_bdd.json``).  The orchestrator
  snapshots them before the sweep and flags entries whose measured
  speedup fell below ``tolerance`` of baseline.  Timing on shared
  runners is noisy, so the gate compares *ratios*, not absolute
  seconds, and only ``--gate`` failures affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from multiprocessing.pool import ThreadPool
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.manifest import run_manifest

__all__ = ["discover_benches", "run_bench", "run_sweep",
           "gate_regressions", "main", "SMOKE_BENCHES", "SOLO_BENCHES"]

#: Benches that time a process pool against the serial walk.  A pool
#: gate needs every CPU, so a sweep runs these one at a time after the
#: others have finished.
SOLO_BENCHES = ("bench_perf_search.py",)

#: Benches exercised by ``--smoke`` (CI) runs: all 21 paper-claim
#: benches (each reproduces one Table I row, figure or text claim in
#: 1-5 s with no timing gate, so the reproduction itself cannot
#: regress silently) and the perf benches (the regression-gate
#: inputs).
SMOKE_BENCHES = [
    "bench_c1_profile_synthesis.py",
    "bench_c2_entropy.py",
    "bench_c3_tyagi.py",
    "bench_c4_complexity.py",
    "bench_c5_macromodel.py",
    "bench_c6_sampling.py",
    "bench_c7_predictive.py",
    "bench_c8_allocation.py",
    "bench_c9_multivoltage.py",
    "bench_c10_bus_encoding.py",
    "bench_c11_fsm_encoding.py",
    "bench_c12_scheduling.py",
    "bench_c13_cold_scheduling.py",
    "bench_fig2_memory.py",
    "bench_fig3_shutdown.py",
    "bench_fig45_polynomial.py",
    "bench_fig6_precompute.py",
    "bench_fig7_gated_clock.py",
    "bench_fig8_guarded.py",
    "bench_fig9_retiming.py",
    "bench_table1_fir.py",
    "bench_perf_fastsim.py",
    "bench_perf_bdd.py",
    "bench_perf_eventsim.py",
    "bench_perf_streams.py",
    "bench_perf_serve.py",
    "bench_perf_learned.py",
    "bench_perf_incremental.py",
    "bench_perf_search.py",
]

#: Perf-baseline files at the repo root and the result keys gated in
#: each: entries carry a ``speedup`` field compared against baseline.
BASELINE_FILES = ["BENCH_fastsim.json", "BENCH_bdd.json",
                  "BENCH_eventsim.json", "BENCH_streams.json",
                  "BENCH_serve.json", "BENCH_learned.json",
                  "BENCH_incremental.json", "BENCH_search.json"]


def default_repo_root() -> Path:
    """Repo root: prefer cwd (or a parent) containing ``benchmarks/``,
    else fall back to the source checkout this module lives in."""
    probe = Path.cwd()
    for candidate in (probe, *probe.parents):
        if (candidate / "benchmarks").is_dir():
            return candidate
    return Path(__file__).resolve().parents[3]


def discover_benches(bench_dir: Path) -> List[Path]:
    """All ``bench_*.py`` files in ``bench_dir``, sorted by name."""
    return sorted(bench_dir.glob("bench_*.py"))


# ----------------------------------------------------------------------
# Single-bench execution
# ----------------------------------------------------------------------
def _child_env(bench_dir: Path, telemetry_path: Path,
               trace: bool, store_dir: Optional[Path] = None,
               cone_cache_bytes: Optional[int] = None
               ) -> Dict[str, str]:
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    if trace:
        env["REPRO_OBS"] = "1"
        env["REPRO_OBS_EXPORT"] = str(telemetry_path)
    else:
        env.pop("REPRO_OBS", None)
        env.pop("REPRO_OBS_EXPORT", None)
    if store_dir is not None:
        env["REPRO_STORE"] = str(store_dir)
    if cone_cache_bytes is not None:
        env["REPRO_CONE_CACHE_BYTES"] = str(cone_cache_bytes)
    return env


def _telemetry_digest(path: Path) -> Optional[Dict[str, Any]]:
    """Compact summary of a worker's telemetry export (if it wrote one)."""
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text())
    except ValueError:
        return None
    spans = state.get("spans", [])

    def count(nodes: List[Dict[str, Any]]) -> int:
        return sum(1 + count(n.get("children", [])) for n in nodes)

    metrics = state.get("metrics", {})
    return {
        "span_roots": sorted({s.get("name", "?") for s in spans}),
        "span_count": count(spans),
        "counters": metrics.get("counters", {}),
        "gauges": metrics.get("gauges", {}),
    }


def run_bench(bench: Path, timeout: float, trace: bool = True,
              retries: int = 1,
              store_dir: Optional[Path] = None,
              cone_cache_bytes: Optional[int] = None) -> Dict[str, Any]:
    """Run one bench file under pytest in a subprocess.

    Returns the BENCH_ALL entry: status in {ok, failed, timeout},
    duration, attempt count, (on failure) the output tail, and (after
    any retry) the first failed attempt's status, return code and
    output tail under ``first_failure``.  Never
    raises — an un-runnable bench is a *result*, not an error.
    ``store_dir`` exports ``REPRO_STORE`` so all benches share one
    plan store (a structure compiled by any bench rehydrates in every
    other).  ``cone_cache_bytes`` exports ``REPRO_CONE_CACHE_BYTES``
    so the cone-cache budget is sweep configuration, recorded in
    BENCH_ALL alongside the store.
    """
    attempts = 0
    entry: Dict[str, Any] = {"bench": bench.name}
    while True:
        attempts += 1
        with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
            telemetry_path = Path(tmp) / "telemetry.json"
            cmd = [sys.executable, "-m", "pytest", bench.name,
                   "-q", "-s", "-p", "no:cacheprovider"]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=str(bench.parent), timeout=timeout,
                    env=_child_env(bench.parent, telemetry_path, trace,
                                   store_dir, cone_cache_bytes),
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True)
                duration = time.perf_counter() - start
                status = "ok" if proc.returncode == 0 else "failed"
                returncode: Optional[int] = proc.returncode
                output = proc.stdout or ""
            except subprocess.TimeoutExpired as exc:
                duration = time.perf_counter() - start
                status = "timeout"
                returncode = None
                raw = exc.stdout or b""
                output = raw.decode("utf-8", "replace") \
                    if isinstance(raw, bytes) else raw
            except OSError as exc:   # pragma: no cover - broken env only
                duration = time.perf_counter() - start
                status = "failed"
                returncode = None
                output = repr(exc)
            entry.update({
                "status": status,
                "duration_s": round(duration, 3),
                "attempts": attempts,
                "returncode": returncode,
            })
            digest = _telemetry_digest(telemetry_path)
            if digest is not None:
                entry["telemetry"] = digest
        tail = output.strip().splitlines()[-12:]
        if status == "ok" or attempts > retries:
            if status != "ok":
                entry["output_tail"] = tail
            return entry
        # Retry; a pass on a later attempt keeps why the first failed.
        entry.setdefault("first_failure", {
            "status": status, "returncode": returncode,
            "output_tail": tail})


# ----------------------------------------------------------------------
# Sweep + aggregation
# ----------------------------------------------------------------------
def _load_json(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def snapshot_baselines(root: Path) -> Dict[str, Dict[str, Any]]:
    """The committed perf baselines, keyed by file name."""
    return {name: _load_json(root / name) for name in BASELINE_FILES}


def gate_regressions(baselines: Dict[str, Dict[str, Any]],
                     root: Path, tolerance: float = 0.5
                     ) -> List[Dict[str, Any]]:
    """Compare refreshed perf results against the pre-sweep baselines.

    An entry regresses when its measured ``speedup`` fell below
    ``tolerance`` times the baseline speedup (ratio-based: robust to
    machine-to-machine absolute-time differences).
    """
    regressions: List[Dict[str, Any]] = []
    for name, baseline in baselines.items():
        current = _load_json(root / name)
        for key, base_entry in baseline.items():
            base_speedup = base_entry.get("speedup")
            cur_entry = current.get(key)
            if base_speedup is None or not cur_entry:
                continue
            cur_speedup = cur_entry.get("speedup")
            if cur_speedup is None:
                continue
            if cur_speedup < tolerance * base_speedup:
                regressions.append({
                    "file": name,
                    "key": key,
                    "baseline_speedup": base_speedup,
                    "measured_speedup": cur_speedup,
                    "tolerance": tolerance,
                })
    return regressions


def run_sweep(benches: Sequence[Path], jobs: int, timeout: float,
              trace: bool = True, retries: int = 1,
              progress=None, store_dir: Optional[Path] = None,
              cone_cache_bytes: Optional[int] = None
              ) -> Dict[str, Dict[str, Any]]:
    """Fan the benches out over a worker pool, then run the
    :data:`SOLO_BENCHES` one at a time; collect every result."""
    results: Dict[str, Dict[str, Any]] = {}
    if not benches:
        return results

    def work(bench: Path) -> Dict[str, Any]:
        entry = run_bench(bench, timeout=timeout, trace=trace,
                          retries=retries, store_dir=store_dir,
                          cone_cache_bytes=cone_cache_bytes)
        if progress is not None:
            progress(entry)
        return entry

    shared = [b for b in benches if b.name not in SOLO_BENCHES]
    if jobs <= 1 or len(shared) <= 1:
        entries = [work(b) for b in shared]
    else:
        with ThreadPool(processes=min(jobs, len(shared))) as pool:
            entries = pool.map(work, shared)
    entries += [work(b) for b in benches if b.name in SOLO_BENCHES]
    for entry in entries:
        results[entry["bench"]] = {k: v for k, v in entry.items()
                                   if k != "bench"}
    return results


def write_bench_all(root: Path, results: Dict[str, Dict[str, Any]],
                    config: Dict[str, Any],
                    regressions: List[Dict[str, Any]],
                    out: Optional[Path] = None) -> Path:
    statuses = [entry["status"] for entry in results.values()]
    report = {
        "schema": "repro.bench/1",
        "manifest": run_manifest(extra={"command": "repro bench"}),
        "config": config,
        "benches": results,
        "regressions": regressions,
        "summary": {
            "total": len(statuses),
            "ok": statuses.count("ok"),
            "failed": statuses.count("failed"),
            "timeout": statuses.count("timeout"),
        },
    }
    path = out if out is not None else root / "BENCH_ALL.json"
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the experiment benches in parallel and "
                    "aggregate results + telemetry into BENCH_ALL.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI subset with short timeouts")
    parser.add_argument("--filter", metavar="SUBSTR", default=None,
                        help="only benches whose file name contains this")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size (default: cpu count)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-bench timeout in seconds "
                             "(default: 300, smoke: 120)")
    parser.add_argument("--bench-dir", type=Path, default=None,
                        help="directory holding bench_*.py "
                             "(default: <repo>/benchmarks)")
    parser.add_argument("--out", type=Path, default=None,
                        help="aggregate report path "
                             "(default: <repo>/BENCH_ALL.json)")
    parser.add_argument("--no-trace", action="store_true",
                        help="do not enable repro.obs telemetry in "
                             "bench workers")
    parser.add_argument("--store", metavar="DIR", type=Path,
                        default=None,
                        help="shared plan-store directory exported to "
                             "bench workers as REPRO_STORE (default: "
                             "a sweep-lifetime temp dir)")
    parser.add_argument("--no-store", action="store_true",
                        help="run bench workers without a shared "
                             "plan store")
    parser.add_argument("--cone-cache-bytes", metavar="BYTES",
                        type=int, default=None,
                        help="cone-cache budget exported to bench "
                             "workers as REPRO_CONE_CACHE_BYTES")
    parser.add_argument("--no-gate", action="store_true",
                        help="report perf regressions but never fail "
                             "the exit code on them")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="regression gate: measured speedup must "
                             "stay above this fraction of baseline "
                             "(default 0.5)")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregate report as JSON")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.bench_dir is not None:
        bench_dir = args.bench_dir
        root = bench_dir.parent
    else:
        root = default_repo_root()
        bench_dir = root / "benchmarks"
    if not bench_dir.is_dir():
        print(f"bench: no such bench directory: {bench_dir}",
              file=sys.stderr)
        return 2

    benches = discover_benches(bench_dir)
    if args.smoke:
        smoke = set(SMOKE_BENCHES)
        benches = [b for b in benches if b.name in smoke]
    if args.filter:
        benches = [b for b in benches if args.filter in b.name]
    if not benches:
        print("bench: no benches matched", file=sys.stderr)
        return 2

    timeout = args.timeout if args.timeout is not None \
        else (120.0 if args.smoke else 300.0)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    baselines = snapshot_baselines(root)
    started = time.perf_counter()
    if not args.json:
        print(f"bench: {len(benches)} benches, {jobs} workers, "
              f"{timeout:.0f}s timeout"
              + (", smoke subset" if args.smoke else ""))

    def progress(entry: Dict[str, Any]) -> None:
        if not args.json:
            print(f"  {entry['status']:7s} {entry['bench']:34s} "
                  f"{entry['duration_s']:7.1f}s"
                  + (f"  (attempt {entry['attempts']})"
                     if entry["attempts"] > 1 else ""))

    store_tmp: Optional[tempfile.TemporaryDirectory] = None
    if args.no_store:
        store_dir: Optional[Path] = None
    elif args.store is not None:
        store_dir = args.store
        store_dir.mkdir(parents=True, exist_ok=True)
    else:
        store_tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        store_dir = Path(store_tmp.name)

    try:
        results = run_sweep(benches, jobs=jobs, timeout=timeout,
                            trace=not args.no_trace, progress=progress,
                            store_dir=store_dir,
                            cone_cache_bytes=args.cone_cache_bytes)
    finally:
        if store_tmp is not None:
            store_tmp.cleanup()
    regressions = gate_regressions(baselines, root,
                                   tolerance=args.tolerance)
    config = {
        "smoke": args.smoke,
        "filter": args.filter,
        "jobs": jobs,
        "timeout_s": timeout,
        "trace": not args.no_trace,
        "store": str(store_dir) if store_dir else None,
        "cone_cache_bytes": args.cone_cache_bytes,
        "tolerance": args.tolerance,
        "bench_dir": str(bench_dir),
        "wall_s": round(time.perf_counter() - started, 3),
    }
    out_path = write_bench_all(root, results, config, regressions,
                               out=args.out)

    summary_ok = sum(1 for e in results.values() if e["status"] == "ok")
    if args.json:
        print(json.dumps(json.loads(out_path.read_text()), indent=2,
                         sort_keys=True))
    else:
        print(f"bench: {summary_ok}/{len(results)} ok -> {out_path}")
        for reg in regressions:
            print(f"  REGRESSION {reg['file']}:{reg['key']} "
                  f"speedup {reg['measured_speedup']} < "
                  f"{reg['tolerance']} x baseline "
                  f"{reg['baseline_speedup']}")
    if summary_ok < len(results):
        return 1
    if regressions and not args.no_gate:
        return 1
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
