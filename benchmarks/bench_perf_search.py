"""Perf — parallel candidate search vs the serial estimation walk.

Guards :mod:`repro.optimization.search`, the shared process-pool
executor every candidate-driven optimization loop now fans out
through.  The gated comparison is *architecture vs the paper-era
walk*: the serial leg runs one full :func:`collect_activity` per
candidate (what the passes did before the incremental engine), the
parallel leg runs the pooled executor — persistent workers, stimulus
shipped once per worker, compiled plans shared through the sweep's
disk store, and each worker's own cone cache splicing the candidates
it evaluates instead of resimulating them.  On a box with real cores
the pool adds concurrency on top; on a single-core runner the win is
the splicing and warm-start architecture alone, so the gate holds
either way.

The candidate population is the combined multi-pass sweep of
``bench_perf_incremental``: a guarded-evaluation bank, a clock-gating
``simplify_fraction`` sweep and a precomputation ``subset_size``
sweep — 24 candidate evaluations across three different stimuli.
Before any timing, the parallel results are asserted bit-identical to
both the serial executor walk (``workers=1``) and the raw
full-resimulation walk.  The serial *incremental* walk (PR 9's
engine, no pool) is recorded as an ungated reference ratio so the
entry shows how much of the win is splicing vs pooling.

A second, ungated entry exercises the annealing-restart fan-out of
:func:`low_power_encoding` and asserts the chosen encoding is
identical for any worker count.

Results land in ``BENCH_search.json`` at the repo root; the
``optimization_sweep`` entry's ``speedup`` is ratio-gated against the
committed baseline by the bench orchestrator.
"""

import random

from _perf_common import REPO_ROOT, measure, record

from conftest import shape

from repro.fsm import benchmark as fsm_benchmark
from repro.fsm.encoding import low_power_encoding
from repro.fsm.synthesis import synthesize_fsm
from repro.logic import incremental as inc
from repro.logic.fastsim import random_packed_vectors
from repro.logic.generators import magnitude_comparator
from repro.logic.netlist import Circuit
from repro.logic.simulate import collect_activity
from repro.optimization import search
from repro.optimization.clock_gating import build_gated_fsm
from repro.optimization.guarded_eval import (
    GuardCandidate,
    apply_guarded_evaluation,
)
from repro.optimization.precompute import (
    best_subset,
    build_precomputed_circuit,
    registered_baseline,
)

RESULTS_PATH = REPO_ROOT / "BENCH_search.json"

WORKERS = 4


def _record(entry: dict) -> None:
    record(RESULTS_PATH, entry.pop("key"), entry)


# ----------------------------------------------------------------------
# Workload builders (all outside the timed regions)
# ----------------------------------------------------------------------

def guarded_bank(blocks: int = 16, gates_per_block: int = 150,
                 ins_per_block: int = 8, seed: int = 11) -> Circuit:
    """A bank of independent guardable cones (see
    ``bench_perf_incremental``): blocks share no nets, so each guarded
    variant dirties ~1/blocks of the circuit."""
    rng = random.Random(seed)
    c = Circuit(f"bank{blocks}x{gates_per_block}")
    for b in range(blocks):
        ins = c.add_inputs([f"b{b}_i{j}" for j in range(ins_per_block)])
        c.add_input(f"b{b}_g")
        nets = list(ins)
        last = ins[0]
        for _ in range(gates_per_block):
            a, d = rng.choice(nets), rng.choice(nets)
            last = c.add_gate(
                rng.choice(["AND2", "OR2", "XOR2", "NAND2", "NOR2"]),
                [a, d])
            nets.append(last)
        z = c.add_gate("BUF", [last], output=f"b{b}_z")
        c.add_gate("MUX2", [z, f"b{b}_g", f"b{b}_g"], output=f"b{b}_y")
        c.add_output(f"b{b}_y")
    return c


def sweep_population():
    """(candidates, stimuli) for the combined multi-pass sweep.

    Candidates are ``(circuit, stimulus_key)`` pairs in the executor's
    native form; three passes contribute, each with its own stimulus.
    """
    candidates = []
    stimuli = {}

    # Guarded evaluation: base + one variant per candidate block.
    blocks = 16
    bank = guarded_bank(blocks=blocks)
    stimuli["bank"] = random_packed_vectors(list(bank.inputs), 65536,
                                            seed=1)
    candidates.append((bank, "bank"))
    for b in range(blocks):
        cand = GuardCandidate(guard=f"b{b}_g", guarded=f"b{b}_z",
                              cone_gates=1, guard_probability=0.5)
        candidates.append((apply_guarded_evaluation(bank, cand), "bank"))

    # Clock gating: plain machine + a simplify_fraction sweep.
    stg = fsm_benchmark("waiter")
    plain = synthesize_fsm(stg)
    stimuli["fsm"] = random_packed_vectors(list(plain.inputs), 8192,
                                           seed=2)
    candidates.append((plain, "fsm"))
    for fraction in (1.0, 0.6, 0.3):
        gated, _fa = build_gated_fsm(stg, simplify_fraction=fraction)
        candidates.append((gated, "fsm"))

    # Precomputation: registered baseline + a subset_size sweep.
    comp = magnitude_comparator(5)
    stimuli["comp"] = random_packed_vectors(list(comp.inputs), 8192,
                                            seed=3)
    candidates.append((registered_baseline(comp, "gt"), "comp"))
    for size in (1, 2):
        predictors = best_subset(comp, "gt", size)
        candidates.append(
            (build_precomputed_circuit(comp, "gt", predictors), "comp"))
    return candidates, stimuli


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------

def test_perf_parallel_candidate_sweep(once):
    """Pooled executor >= 2x over the serial full-resim walk."""
    candidates, stimuli = sweep_population()
    shape(f"population holds >= 24 candidates "
          f"(got {len(candidates)})", len(candidates) >= 24)

    def serial_full():
        return [collect_activity(c, stimuli[key])
                for c, key in candidates]

    def serial_incremental():
        cache = inc.ConeCache()
        return [inc.collect_activity_incremental(c, stimuli[key],
                                                 cache=cache)
                for c, key in candidates]

    def parallel():
        return search.evaluate_candidates(
            search.activity_job, candidates, stimuli=stimuli,
            extras={"incremental": True}, workers=WORKERS,
            label="bench_sweep")

    def run():
        full = serial_full()
        par = parallel()
        ser1 = search.evaluate_candidates(
            search.activity_job, candidates, stimuli=stimuli,
            extras={"incremental": True}, workers=1,
            label="bench_sweep_serial")
        for (c, _key), a, b, d in zip(candidates, full, par, ser1):
            shape(f"parallel report for {c.name} bit-identical to "
                  f"full resim", inc.reports_equal(a, b))
            shape(f"workers=1 report for {c.name} bit-identical to "
                  f"parallel", inc.reports_equal(b, d))

        t_full = measure(serial_full, repeats=3)
        t_par = measure(parallel, repeats=3)
        t_incr = measure(serial_incremental, repeats=3)
        return t_full, t_par, t_incr

    try:
        t_full, t_par, t_incr = once(run)
    finally:
        search.shutdown_pool()
    speedup = t_full / max(t_par, 1e-9)
    vs_incremental = t_incr / max(t_par, 1e-9)
    _record({
        "key": "optimization_sweep",
        "candidates": len(candidates),
        "workers": WORKERS,
        "cpus": __import__("os").cpu_count(),
        "serial_full_s": round(t_full, 6),
        "parallel_s": round(t_par, 6),
        "incremental_serial_s": round(t_incr, 6),
        "parallel_vs_incremental": round(vs_incremental, 3),
        "speedup": round(speedup, 2),
    })
    print()
    print(f"Perf: candidate sweep, {len(candidates)} candidates x "
          f"{WORKERS} workers: serial full {t_full * 1e3:.1f} ms, "
          f"parallel {t_par * 1e3:.1f} ms, incremental serial "
          f"{t_incr * 1e3:.1f} ms  ->  {speedup:.2f}x")
    shape(f"parallel candidate sweep >= 2x over the serial walk "
          f"(got {speedup:.2f}x)", speedup >= 2.0)


def test_perf_annealing_restarts(once):
    """Restart fan-out: identical winner for any worker count."""
    stg = fsm_benchmark("bbsse_like")

    def serial():
        return low_power_encoding(stg, seed=5, anneal_steps=2000,
                                  restarts=6, workers=1)

    def parallel():
        return low_power_encoding(stg, seed=5, anneal_steps=2000,
                                  restarts=6, workers=WORKERS)

    def run():
        e_ser = serial()
        e_par = parallel()
        shape("restart fan-out picks the identical encoding",
              e_ser.codes == e_par.codes)
        t_ser = measure(serial, repeats=2)
        t_par = measure(parallel, repeats=2)
        return t_ser, t_par

    try:
        t_ser, t_par = once(run)
    finally:
        search.shutdown_pool()
    _record({
        "key": "annealing_restarts",
        "restarts": 6,
        "workers": WORKERS,
        "serial_s": round(t_ser, 6),
        "parallel_s": round(t_par, 6),
        "ratio": round(t_ser / max(t_par, 1e-9), 3),
    })
    print()
    print(f"Perf: annealing restarts, 6 chains: serial "
          f"{t_ser * 1e3:.1f} ms, parallel {t_par * 1e3:.1f} ms")
