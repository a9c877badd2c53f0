"""Perf — plan store warm starts and the estimation service.

Not a paper figure: this bench guards the serving-layer claim behind
``python -m repro serve`` — that content-addressed plan caching turns
repeated estimation of the same structure from a recompile into a
rehydrate.  Two measurements land in ``BENCH_serve.json``:

- ``warm_vs_cold``: end-to-end ``timed_activity`` forced to recompile
  its plans (cold) vs. the same run rehydrating them from a
  pre-seeded disk store (warm).  The warm path must win by >= 1.5x;
  the measured ratio is recorded under ``speedup`` so the
  orchestrator's regression gate tracks it against the committed
  baseline.
- ``loadgen``: a mixed batch of >= 1000 estimation jobs pushed
  through a live :class:`repro.serve.EstimationServer`, recording
  p50/p99 job latency, throughput, and the plan-store hit rate.
"""

import tempfile

from _perf_common import REPO_ROOT, measure, record

from conftest import shape

from repro import serve
from repro import store as artifact_store
from repro.logic import fastsim, fasttimer
from repro.logic.generators import random_logic
from repro.store import ArtifactStore

RESULTS_PATH = REPO_ROOT / "BENCH_serve.json"

#: The warm/cold workload: one structure, rebuilt fresh per round so
#: the only cross-round channel is the plan store under test.
_SEED = 7
_CYCLES = 512


def _circuit():
    return random_logic(20, 700, 8, seed=_SEED)


def _timed_run(circuit, vectors):
    return fasttimer.timed_activity(circuit, vectors, engine="fast")


def test_perf_warm_vs_cold(once):
    """Warm-store fasttimer >= 1.5x over cold recompile.

    Cold rounds run with a zero-capacity store, so every round
    compiles its plans from scratch — the pre-store behavior.  Warm
    rounds install a fresh :class:`ArtifactStore` over a pre-seeded
    directory, so every round rehydrates instead (the mem layer starts
    empty: this is the disk-crossing path a new pool worker takes).
    """
    vectors = fastsim.random_packed_vectors(
        _circuit().inputs, _CYCLES, seed=3)

    def experiment():
        prev = artifact_store.get_store()
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-store-") as tmp:
            try:
                # -- cold: nothing caches, everything recompiles ----
                artifact_store.set_store(
                    ArtifactStore(root=None, mem_entries=0))
                cold_report = _timed_run(_circuit(), vectors)
                t_cold = measure(
                    lambda: _timed_run(_circuit(), vectors),
                    repeats=3)

                # -- seed the disk store once ----------------------
                artifact_store.set_store(ArtifactStore(root=tmp))
                _timed_run(_circuit(), vectors)

                # -- warm: fresh store instance, same directory ----
                def warm_run():
                    artifact_store.set_store(ArtifactStore(root=tmp))
                    return _timed_run(_circuit(), vectors)

                warm_report = warm_run()
                t_warm = measure(warm_run, repeats=3)
            finally:
                artifact_store.set_store(prev)
        return cold_report, warm_report, t_cold, t_warm

    cold_report, warm_report, t_cold, t_warm = once(experiment)

    shape("warm rehydrate is bit-identical to cold compile",
          warm_report.toggles == cold_report.toggles
          and warm_report.events == cold_report.events
          and warm_report.glitches == cold_report.glitches)

    speedup = t_cold / max(t_warm, 1e-9)
    record(RESULTS_PATH, "warm_vs_cold", {
        "circuit": f"random_logic(20, 700, 8, seed={_SEED})",
        "cycles": _CYCLES,
        "cold_s": round(t_cold, 6),
        "warm_s": round(t_warm, 6),
        "speedup": round(speedup, 2),
    })
    print()
    print(f"Perf: fasttimer, cold {t_cold * 1e3:.1f} ms vs "
          f"warm store {t_warm * 1e3:.1f} ms  ->  {speedup:.1f}x")
    shape(f"warm store >= 1.5x over cold recompile (got "
          f"{speedup:.2f}x)", speedup >= 1.5)


def _loadgen_jobs(n_jobs: int):
    """A deterministic mix of >= n_jobs estimation jobs.

    A handful of distinct structures times many seeds: realistic
    serving traffic, where structure cardinality is far below request
    cardinality — the regime the plan store targets.
    """
    mix = [
        ({"generator": "ripple_carry_adder", "params": {"width": 8}},
         "simulation", 128, 1),
        ({"generator": "ripple_carry_adder", "params": {"width": 12}},
         "simulation", 128, 1),
        ({"generator": "counter", "params": {"width": 8}},
         "event-driven", 128, 1),
        ({"generator": "parity_tree", "params": {"width": 16}},
         "simulation", 128, 1),
        ({"generator": "parity_tree", "params": {"width": 8}},
         "probabilistic", 64, 1),
        ({"generator": "random_logic",
          "params": {"n_inputs": 12, "n_gates": 120, "n_outputs": 4,
                     "seed": 9}},
         "simulation", 256, 2),
    ]
    jobs = []
    k = 0
    while len(jobs) < n_jobs:
        circuit, technique, cycles, shards = mix[k % len(mix)]
        job = {"circuit": circuit, "technique": technique,
               "cycles": cycles, "seed": k, "id": k}
        if shards > 1:
            job["shards"] = shards
        jobs.append(job)
        k += 1
    return jobs


def test_perf_serve_loadgen(once):
    """>= 1000 mixed jobs through a live server; record the tail."""
    n_jobs = 1000
    batch_size = 250

    def experiment():
        jobs = _loadgen_jobs(n_jobs)
        summaries = []
        with serve.EstimationServer(workers=4) as server:
            client = serve.Client(*server.address, timeout=600.0)
            for lo in range(0, len(jobs), batch_size):
                out = client.estimate(jobs[lo:lo + batch_size])
                summaries.append(out["summary"])
            stats = client.stats()
        return summaries, stats

    summaries, stats = once(experiment)

    ok = sum(s["ok"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    wall_s = sum(s["wall_ms"] for s in summaries) / 1e3
    hits = sum(s["store_hits"] for s in summaries)
    misses = sum(s["store_misses"] for s in summaries)
    hit_rate = hits / max(hits + misses, 1)
    throughput = ok / max(wall_s, 1e-9)

    record(RESULTS_PATH, "loadgen", {
        "jobs": n_jobs,
        "workers": 4,
        "batch_size": batch_size,
        "ok": ok,
        "failed": failed,
        "wall_s": round(wall_s, 3),
        "throughput_jobs_s": round(throughput, 1),
        "p50_ms": stats["latency"]["p50_ms"],
        "p99_ms": stats["latency"]["p99_ms"],
        "store_hit_rate": round(hit_rate, 4),
    })
    print()
    print(f"Perf: loadgen {n_jobs} jobs in {wall_s:.1f}s "
          f"({throughput:.0f} jobs/s), p50 "
          f"{stats['latency']['p50_ms']:.1f} ms, p99 "
          f"{stats['latency']['p99_ms']:.1f} ms, store hit rate "
          f"{hit_rate:.2%}")

    shape(f"all {n_jobs} jobs succeed ({failed} failed)", failed == 0)
    shape(f"plan store absorbs repeated structures (hit rate "
          f"{hit_rate:.2%} < 90%)", hit_rate >= 0.90)
    shape("latency percentiles recorded",
          stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"] > 0)
