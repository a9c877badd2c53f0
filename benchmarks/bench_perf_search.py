"""Perf — the candidate-search pool vs the serial walk, where it pays.

Guards the two fan-outs of :mod:`repro.optimization.search` that keep
a ``workers=`` knob: annealing restarts
(:func:`repro.fsm.encoding.low_power_encoding`) and population
characterization
(:func:`repro.estimation.learned.characterize_population`).  Both are
CPU-bound, and each job carries a context of a few hundred bytes to a
few KiB.  The circuit-activity loops walk serially and are not
measured here; ``bench_perf_incremental`` measures their serial
incremental walk against full resimulation.

Each entry compares the pool (``workers=2``) with the serial walk
(``workers=1``) of the same call:

- The two results are asserted identical before any timing.
- :data:`WARMUP` untimed pooled calls come first: a fresh pool's first
  calls run no faster than the serial walk.
- The legs then alternate round by round, the first leg swapping each
  round, so a slow spell on a shared host reaches both.  Each leg
  keeps its best of :data:`REPEATS`.

The pool must win by >= 1.25x, the bar a pool must clear to stay.  On
a host with fewer CPUs than :data:`WORKERS` the gate reads "n/a" and
the entry carries no ``speedup``.  Otherwise the ``speedup`` is
ratio-gated against the committed ``BENCH_search.json`` by the bench
orchestrator.
"""

import os

from _perf_common import REPO_ROOT, measure, record

from conftest import shape

from repro.estimation.learned import characterize_population
from repro.fsm import benchmark as fsm_benchmark
from repro.fsm.encoding import low_power_encoding
from repro.optimization import search

RESULTS_PATH = REPO_ROOT / "BENCH_search.json"

WORKERS = 2
WARMUP = 10
REPEATS = 7
MIN_SPEEDUP = 1.25


def _pool_vs_serial(key, serial, pooled, same, workload):
    """Check, warm, time and gate one pooled call against its serial
    walk; record the entry under ``key``."""
    try:
        shape(f"{key}: pooled result identical to the serial walk",
              same(serial(), pooled()))
        for _ in range(WARMUP):
            pooled()
        t_ser = t_pool = float("inf")
        for round_ in range(REPEATS):
            if round_ % 2:
                t_pool = min(t_pool, measure(pooled))
                t_ser = min(t_ser, measure(serial))
            else:
                t_ser = min(t_ser, measure(serial))
                t_pool = min(t_pool, measure(pooled))
    finally:
        search.shutdown_pool()
    cpus = os.cpu_count() or 1
    gated = cpus >= WORKERS
    ratio = t_ser / max(t_pool, 1e-9)
    record(RESULTS_PATH, key, {
        **workload,
        "workers": WORKERS,
        "cpus": cpus,
        "repeats": REPEATS,
        "warmup": WARMUP,
        "serial_s": round(t_ser, 6),
        "pooled_s": round(t_pool, 6),
        "speedup": round(ratio, 2) if gated else None,
        "gate": f">= {MIN_SPEEDUP}x" if gated else "n/a",
    })
    print()
    print(f"Perf: {key}, serial {t_ser * 1e3:.1f} ms vs pooled "
          f"({WORKERS} workers, {cpus} cpus) {t_pool * 1e3:.1f} ms  "
          f"->  {ratio:.2f}x" + ("" if gated else "  (gate n/a)"))
    if gated:
        shape(f"{key}: pool >= {MIN_SPEEDUP}x over the serial walk "
              f"(got {ratio:.2f}x)", ratio >= MIN_SPEEDUP)


def test_perf_annealing_restarts(once):
    """Six annealing restarts of 2000 steps: pool >= 1.25x serial."""
    stg = fsm_benchmark("bbsse_like")

    def run(workers):
        return low_power_encoding(stg, seed=5, anneal_steps=2000,
                                  restarts=6, workers=workers)

    once(_pool_vs_serial, "annealing_restarts",
         lambda: run(1), lambda: run(WORKERS),
         lambda a, b: a.codes == b.codes,
         {"fsm": "bbsse_like", "restarts": 6, "anneal_steps": 2000})


def test_perf_characterize_population(once):
    """The default population, one design per job: pool >= 1.25x
    serial."""
    def run(workers):
        return [d.to_dict() for d in
                characterize_population(seed=0, workers=workers)]

    once(_pool_vs_serial, "characterize_population",
         lambda: run(1), lambda: run(WORKERS),
         lambda a, b: a == b,
         {"population": "default", "cycles": 1024, "runs": 10})
