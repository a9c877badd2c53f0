"""Benchmark of the Fig. 1 loop: estimate, transform, re-estimate.

Usage, from the repository root::

    python3 perfbench/run.py --workload opt_passes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One process runs one workload (``all`` runs each in a child process,
one after another) as a closed loop over a fixed, seeded op sequence
sized to take about ``--seconds`` on the reference host, and never
fewer than 100 ops.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report: environment, failed ops with their
causes, and in traced runs the per-layer table.  A full record of each
run (op digests, raw seconds, probe samples) goes to
``perfbench/_run/``, and traced runs also write their spans there.

``--trace 0`` gives the end-to-end metrics:

- ``setup_s``: importing the program (in fresh interpreters), building
  the fixed designs and services, and one untimed warm-up op per op
  kind; repeated, the medians summed.
- ``op_p50_s``, ``op_p90_s``: op latency percentiles.
- ``ops_per_s``: timed ops over the summed op time (probes and untimed
  input preparation excluded).
- ``cpu_per_op_s``: CPU of this process during ops plus that of the
  server's pool workers, per op.
- ``peak_rss_mb``: peak RSS of this process plus the pool workers.
- ``ok_ratio``: ops that returned and passed the output check, over
  ops attempted.

``--trace 1`` is a separate run of the same op sequence that wraps each
layer's entry points (``layers.py``) on alternate rounds of op kinds,
reports per-layer self time and counts over the traced rounds, and
compares traced with untraced rounds for ``trace.overhead``.

Timings are in reference-host seconds (``probe.py``): sums and means
are scaled by the run's speed factor, latency percentiles op by op by
the factor of the probes around each op; ``ops_per_s`` is divided
instead.  ``host.probe_s`` and ``host.speed_factor`` are recorded with
every run, so raw seconds can be recovered.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"

#: Every timed run holds at least this many ops (>= 10 beyond p90).
MIN_OPS = 100
#: Set-up is repeated this many times; ``setup_s`` uses the medians.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("opt_passes", "edit_loop", "cold_estimate",
                  "serve_batch")


def pin_environment() -> list:
    """Drop inherited ``REPRO_*`` knobs so library defaults apply, and
    keep temporary files inside the checkout."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    return dropped


def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of sorted data (monotone in q)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def time_imports(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the workloads, and
    with them the program."""
    code = ("import time; t0 = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def op_count(workload, seconds: float) -> int:
    """``seconds`` at the workload's nominal rate, in an even number of
    whole rounds of op kinds, and at least MIN_OPS."""
    per_round = len(workload.kinds)
    wanted = max(MIN_OPS, math.ceil(seconds * workload.nominal_ops_per_s))
    rounds = math.ceil(wanted / per_round)
    return (rounds + rounds % 2) * per_round


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(args) -> dict:
    dropped = pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))

    from repro import store as artifact_store
    from repro.backend.core import numpy_available
    from repro.logic import incremental
    from repro.logic.simulate import DEFAULT_ENGINE
    from repro.optimization.search import resolve_workers

    from layers import Tracer
    from probe import HostSpeed
    from workloads import WORKLOADS, OpRecord, digest, op_seed

    workload = WORKLOADS[args.workload]()
    kinds = workload.kinds

    # -- set-up, repeated from scratch -----------------------------------
    imports, setups = [], []
    for r in range(SETUP_REPEATS):
        imports.append(time_imports(src))
        if r:
            workload.teardown()
        t0 = time.perf_counter()
        workload.build(args.seed)
        for k, kind in enumerate(kinds):
            workload.run(kind, workload.prepare(
                kind, -1 - k, op_seed(args.seed, -1 - k)))
        setups.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # -- timed window: op, probe, op, probe, ... -------------------------
    n_ops = args.ops or op_count(workload, args.seconds)
    host = HostSpeed()
    ops = []
    cone = incremental.get_cone_cache()
    hits = {"cone": [0, 0], "store": [0, 0]}
    pids = getattr(workload, "worker_pids", set())
    workers_cpu0 = {pid: _cpu_s(pid) for pid in pids}
    host.sample()
    for i in range(n_ops):
        kind = kinds[i % len(kinds)]
        op = OpRecord(index=i, kind=kind, seed=op_seed(args.seed, i),
                      traced=tracer is not None
                      and (i // len(kinds)) % 2 == 0)
        inputs = workload.prepare(kind, i, op.seed)
        if op.traced:
            c0 = cone.stats()
            s0 = artifact_store.get_store().stats()
            tracer.request = i
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            op.output = workload.run(kind, inputs)
        except Exception as exc:                # counted, listed, shown
            op.error = f"{type(exc).__name__}: {exc}"
        op.wall_s = time.perf_counter() - t0
        op.cpu_s = time.process_time() - cpu0
        if op.traced:
            tracer.request = None
            c1 = cone.stats()
            s1 = artifact_store.get_store().stats()
            hits["cone"][0] += c1["hits"] - c0["hits"]
            hits["cone"][1] += (c1["hits"] + c1["misses"]
                                - c0["hits"] - c0["misses"])
            got = s1["mem_hits"] + s1["disk_hits"] \
                - s0["mem_hits"] - s0["disk_hits"]
            hits["store"][0] += got
            hits["store"][1] += got + s1["misses"] - s0["misses"]
        ops.append(op)
        del inputs
        host.sample()
    # Workers first seen inside the window count with all their CPU.
    workers_cpu = sum(_cpu_s(pid) - workers_cpu0.get(pid, 0.0)
                      for pid in pids)
    peak_kb = _status_kb("self", "VmHWM") + sum(
        _status_kb(pid, "VmHWM") for pid in pids)
    if tracer is not None:
        tracer.uninstall()

    # -- output checks, untimed --------------------------------------------
    failures = [(op.index, f"{op.kind}: {op.error}") for op in ops
                if op.error is not None]
    t0 = time.perf_counter()
    try:
        failures += workload.check(ops)
    except Exception as exc:
        failures.append((-1, f"check raised {type(exc).__name__}: {exc}"))
    t_check = time.perf_counter() - t0
    settings = workload.settings()
    workload.teardown()

    setup_raw = statistics.median(imports) + statistics.median(setups)
    failed = len({i for i, _ in failures})
    if args.trace:
        metrics = layer_metrics(workload, ops, tracer, hits, host)
    else:
        cpu = sum(op.cpu_s for op in ops) + workers_cpu
        metrics = end_to_end_metrics(ops, host, setup_raw, cpu, peak_kb,
                                     failed)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": n_ops,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_available(),
            "engine": DEFAULT_ENGINE,
            "search_workers": resolve_workers(None),
            "store": os.environ.get(artifact_store.ENV_DIR, "memory only"),
            "dropped_env": dropped, **settings,
        },
        "host": {"probe_s": host.probe_s, "speed_factor": host.factor,
                 "samples": host.samples},
        "raw": {"setup_s": setup_raw, "import_s": imports,
                "build_and_warmup_s": setups, "check_s": t_check,
                "op_wall_s": [op.wall_s for op in ops],
                "op_cpu_s": [op.cpu_s for op in ops]},
        "digest": digest([(op.kind, workload.outcome(op.output))
                          for op in ops]),
        "failures": [{"op": i, "cause": c} for i, c in failures],
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
    }
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    stem = RUN_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(f"{stem}.spans.jsonl")
    report(record, metrics, tracer, ops, host.factor)
    return {"correct": failed == 0, "attempted": n_ops, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def end_to_end_metrics(ops, host, setup_raw, cpu, peak_kb,
                       failed) -> dict:
    f = host.factor
    # Percentiles: each op scaled by the probes on either side of it.
    latencies = sorted(op.wall_s * host.local_factor(op.index)
                       for op in ops)
    n = len(ops)
    return {
        "setup_s": (setup_raw * f, "s"),
        "op_p50_s": (_quantile(latencies, 0.5), "s"),
        "op_p90_s": (_quantile(latencies, 0.9), "s"),
        "ops_per_s": (n / sum(op.wall_s for op in ops) / f, "1/s"),
        "cpu_per_op_s": (cpu / n * f, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }


def layer_metrics(workload, ops, tracer, hits, host) -> dict:
    """Per-layer metrics over the traced rounds."""
    from layers import LAYERS
    from workloads import OptPasses

    f = host.factor
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    wall = sum(op.wall_s for op in traced)
    covered = sum(tracer.self_time[layer] for layer in LAYERS)
    counts = tracer.counts
    metrics = {f"{layer}_s": (tracer.self_time[layer] * f, "s")
               for layer in LAYERS}
    metrics.update({
        "incremental.hit_ratio": (_ratio(*hits["cone"]), "ratio"),
        "incremental.dirty_nets": (
            _ratio(counts["dirty_nets"], counts["delta_calls"]), "count"),
        "incremental.full_fallbacks": (counts["full_fallbacks"], "count"),
        "fastsim.gate_cycles": (counts["gate_cycles"], "count"),
    })
    for kind in OptPasses.kinds:
        walls = sorted(op.wall_s * host.local_factor(op.index)
                       for op in traced if op.kind == kind)
        metrics[f"opt.{kind}_p50_s"] = (
            _quantile(walls, 0.5) if walls else 0.0, "s")

    store_ratio = _ratio(*hits["store"])
    job_s = overhead = busy = 0.0
    if workload.name == "serve_batch":
        jobs, hit, looked = [], 0, 0
        for op in traced:
            per_pid = {}
            for result in op.output or ():
                t = result["elapsed_ms"] / 1e3
                jobs.append(t)
                per_pid[result["pid"]] = per_pid.get(result["pid"], 0.0) + t
                hit += result["store_hits"]
                looked += result["store_hits"] + result["store_misses"]
            # The busiest worker's job time is the request's critical
            # path; HTTP, JSON, dispatch, merge and idle are the rest.
            overhead += op.wall_s - max(per_pid.values(), default=0.0)
            busy += sum(per_pid.values())
        job_s = _quantile(sorted(jobs), 0.5) if jobs else 0.0
        store_ratio = _ratio(hit, looked)
        covered = wall - overhead
        busy = _ratio(busy, workload.server.workers * wall)
    untraced_rate = _ratio(len(untraced), sum(op.wall_s for op in untraced))
    metrics.update({
        "store.hit_ratio": (store_ratio, "ratio"),
        "serve.job_s": (job_s * f, "s"),
        "serve.overhead_s": (overhead * f, "s"),
        "serve.worker_busy_ratio": (busy, "ratio"),
        "host.probe_s": (host.probe_s, "s"),
        "host.speed_factor": (f, "ratio"),
        "trace.coverage": (_ratio(covered, wall), "ratio"),
        "trace.overhead": (
            _ratio(_ratio(len(traced), wall), untraced_rate) - 1, "ratio"),
    })
    return metrics


def report(record, metrics, tracer, ops, f) -> None:
    """Readable summary on stdout, ahead of the JSON line."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"ops={record['ops']} trace={record['trace']} "
          f"digest={record['digest']}")
    print("# env " + " ".join(f"{k}={v}"
                               for k, v in record["environment"].items()))
    print(f"# host probe_s={record['host']['probe_s']:.6f} "
          f"speed_factor={record['host']['speed_factor']:.4f}")
    for failure in record["failures"]:
        print(f"# FAILED op {failure['op']}: {failure['cause']}")
    if tracer is not None:
        from layers import LAYERS

        wall = sum(op.wall_s for op in ops if op.traced)
        print(f"# {'layer':24} {'self_s':>10} {'share':>7} {'calls':>8}")
        for layer in LAYERS:
            self_s = tracer.self_time[layer]
            print(f"# {layer:24} {self_s * f:10.4f} "
                  f"{_ratio(self_s, wall):7.1%} {tracer.calls[layer]:8d}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:28} {value:14.6g} {unit}")


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with "
                             f"{proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="override the op count (smoke tests only)")
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" \
        else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
