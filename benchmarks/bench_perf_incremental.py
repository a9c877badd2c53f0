"""Perf — incremental cone-of-influence re-estimation vs full resim.

Not a paper figure: this bench guards :mod:`repro.logic.incremental`,
the delta re-estimation engine the optimization passes run on.  Two
workload shapes, both gated:

- **Single-gate edit.**  A large combinational block is simulated
  once (priming the cone cache), then one gate deep in the netlist is
  retyped.  Re-estimating the edit resimulates only the dirty cone —
  the edited gate plus transitive fanout — and splices every other
  net's cached counts.  The report must be bit-identical to a full
  resimulation and land an order of magnitude faster.  The gated
  ``delta_s`` times ``delta_activity`` on a variant whose cone
  structure is already built; the ungated ``edit_s`` is the edit as a
  user pays it — ``clone()``, retype, ``invalidate()`` and
  ``estimate_delta`` — as the median over distinct single-gate edits.

- **Steady-state edits.**  400 distinct single-gate edits against one
  primed base, on a cache that the variants' records overflow after
  about 50 edits.  A full cache must keep the base primed, so the
  last 50 edits' median stays within 1.5x of the first 50's (gated);
  both medians, the base prime count and the evictions are recorded.

- **Optimization sweep.**  The exact estimation workload the rewired
  passes issue: a clock-gating ``simplify_fraction`` sweep, a
  precomputation ``subset_size`` sweep, and a guarded-evaluation
  candidate sweep over a bank of independent guardable cones.  The
  circuit populations are built by the passes' own constructors
  (``build_gated_fsm``, ``build_precomputed_circuit``,
  ``apply_guarded_evaluation``); the BDD/synthesis discovery work is
  deliberately outside the timed region — this bench measures the
  *estimation core* those passes now share, full
  :func:`collect_activity` per candidate vs the cone cache.

Bit-identity is asserted with ``shape`` before any timing; measured
speedups are recorded in ``BENCH_incremental.json`` at the repo root
and ratio-gated against the committed baseline by the bench
orchestrator.  The incremental legs always run on a *fresh*
:class:`ConeCache` and (for the single-edit case) with
``populate=False`` on repeats, so no leg ever times a warm cache it
did not itself pay to fill.
"""

import os
import random
import statistics
import time

from _perf_common import REPO_ROOT, measure, record

from conftest import shape

from repro.fsm import benchmark as fsm_benchmark
from repro.logic import incremental as inc
from repro.logic.fastsim import PackedVectors, random_packed_vectors
from repro.logic.netlist import Circuit
from repro.logic.simulate import collect_activity
from repro.optimization.clock_gating import build_gated_fsm
from repro.optimization.guarded_eval import (
    GuardCandidate,
    apply_guarded_evaluation,
)
from repro.optimization.precompute import (
    best_subset,
    build_precomputed_circuit,
)
from repro.fsm.synthesis import synthesize_fsm
from repro.logic.generators import magnitude_comparator, random_logic

RESULTS_PATH = REPO_ROOT / "BENCH_incremental.json"


def _record(entry: dict) -> None:
    record(RESULTS_PATH, entry.pop("key"), entry)


# ----------------------------------------------------------------------
# Workload builders (all outside the timed regions)
# ----------------------------------------------------------------------

def guarded_bank(blocks: int = 14, gates_per_block: int = 150,
                 ins_per_block: int = 8, seed: int = 11) -> Circuit:
    """A bank of independent guardable cones.

    Each block is a random gate cone over its own inputs, steered to
    an output by a per-block guard input — the mux-dominated shape
    guarded evaluation targets.  Blocks share no nets, so guarding
    block *b* dirties ~1/blocks of the circuit.
    """
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


def bank_candidates(circuit: Circuit, blocks: int):
    """One guard candidate per bank block, constructed directly.

    ``find_guard_candidates`` would rediscover these with BDDs; the
    bench hands them over so the timed region holds estimation only.
    """
    return [GuardCandidate(guard=f"b{b}_g", guarded=f"b{b}_z",
                           cone_gates=1, guard_probability=0.5)
            for b in range(blocks)]


def sweep_population():
    """(circuit, packed stimulus) pairs for the combined sweep."""
    pairs = []

    # Guarded evaluation: base + one variant per candidate block.
    blocks = 20
    bank = guarded_bank(blocks=blocks)
    bank_vecs = random_packed_vectors(list(bank.inputs), 32768, seed=1)
    pairs.append((bank, bank_vecs))
    for cand in bank_candidates(bank, blocks):
        variant = apply_guarded_evaluation(bank, cand)
        pairs.append((variant, bank_vecs))

    # Clock gating: a simplify_fraction sweep re-measures the plain
    # machine alongside each gated variant (as evaluate_clock_gating
    # does per call).
    stg = fsm_benchmark("waiter")
    plain = synthesize_fsm(stg)
    fsm_vecs = random_packed_vectors(list(plain.inputs), 2048, seed=2)
    for fraction in (1.0, 0.6, 0.3):
        gated, _fa = build_gated_fsm(stg, simplify_fraction=fraction)
        pairs.append((plain, fsm_vecs))
        pairs.append((gated, fsm_vecs))

    # Precomputation: a subset_size sweep re-measures the registered
    # baseline alongside each precomputed variant.
    comp = magnitude_comparator(5)
    comp_vecs = random_packed_vectors(list(comp.inputs), 2048, seed=3)
    base = Circuit(f"{comp.name}_registered")
    base.add_inputs(comp.inputs)
    rename = {}
    for i, net in enumerate(comp.inputs):
        rename[net] = base.add_latch(net, output=f"r{i}_q")
    for gate in comp.topological_gates():
        rename[gate.output] = base.add_gate(
            gate.gate_type, [rename[n] for n in gate.inputs])
    base.add_gate("BUF", [rename["gt"]], output="f")
    base.add_output("f")
    for size in (1, 2):
        predictors = best_subset(comp, "gt", size)
        pre = build_precomputed_circuit(comp, "gt", predictors)
        pairs.append((base, comp_vecs))
        pairs.append((pre, comp_vecs))
    return pairs


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------

def _retype(circuit: Circuit, index: int) -> Circuit:
    """Clone ``circuit`` with gate ``index`` retyped to XNOR2 (to XOR2
    when it already is one)."""
    variant = circuit.clone("edited")
    gate = variant.gates[index]
    gate.gate_type = "XNOR2" if gate.gate_type != "XNOR2" else "XOR2"
    variant.invalidate()
    return variant


def edit_seconds(circuit: Circuit, vectors: PackedVectors,
                 edits: int = 9) -> float:
    """Median wall time of one whole edit as a user pays it.

    Each of ``edits`` distinct 2-input gates near the outputs is
    retyped on a fresh clone and re-estimated with ``estimate_delta``
    against a cache primed with ``circuit``: clone, retype,
    ``invalidate()`` and the cone-structure work are all inside the
    timed region.  One more edit, untimed, checks bit-identity first.
    """
    near = [i for i in range(len(circuit.gates) - 300,
                             len(circuit.gates) - 20)
            if len(circuit.gates[i].inputs) == 2]
    sites = near[::max(1, len(near) // (edits + 1))][:edits + 1]
    cache = inc.ConeCache()
    inc.prime(circuit, vectors, cache=cache)
    shape("edit_s sweeps distinct edits", len(sites) == edits + 1)
    variant = _retype(circuit, sites[0])
    report, _stats = inc.estimate_delta(circuit, variant, vectors,
                                        cache=cache)
    shape("estimate_delta bit-identical to full resim",
          inc.reports_equal(report, collect_activity(variant, vectors)))
    times = []
    for index in sites[1:]:
        start = time.perf_counter()
        inc.estimate_delta(circuit, _retype(circuit, index), vectors,
                           cache=cache)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_perf_single_gate_edit(once):
    """One retyped gate in a large block: dirty cone only, >= 5x."""
    circuit = random_logic(32, 3000, 16, seed=3)
    vectors = random_packed_vectors(list(circuit.inputs), 1 << 17,
                                    seed=4)

    # Retype a gate near the outputs so the edit's fanout (and hence
    # the honest dirty region) stays a small fraction of the netlist.
    variant = _retype(circuit, next(
        i for i in reversed(range(len(circuit.gates) - 20))
        if len(circuit.gates[i].inputs) == 2))

    def run():
        cache = inc.ConeCache()
        inc.prime(circuit, vectors, cache=cache)
        full = collect_activity(variant, vectors)
        delta, stats = inc.delta_activity(variant, vectors, cache=cache,
                                          populate=False)
        shape("single-edit delta bit-identical to full resim",
              inc.reports_equal(full, delta))
        shape("single-edit took the delta path",
              stats.source == "delta")

        t_full = measure(lambda: collect_activity(variant, vectors),
                         repeats=3)
        t_delta = measure(lambda: inc.delta_activity(
            variant, vectors, cache=cache, populate=False), repeats=3)
        return t_full, t_delta, stats, edit_seconds(circuit, vectors)

    t_full, t_delta, stats, t_edit = once(run)
    speedup = t_full / max(t_delta, 1e-9)
    _record({
        "key": "single_gate_edit",
        "gates": circuit.gate_count(),
        "cycles": vectors.n,
        "dirty_nets": stats.dirty_nets,
        "reused_nets": stats.reused_nets,
        "full_s": round(t_full, 6),
        "delta_s": round(t_delta, 6),
        "edit_s": round(t_edit, 6),
        "speedup": round(speedup, 2),
        "cpus": os.cpu_count(),
    })
    print()
    print(f"Perf: single-gate edit, {circuit.gate_count()} gates x "
          f"{vectors.n} cycles, dirty {stats.dirty_nets}/"
          f"{stats.total_nets} nets: full {t_full * 1e3:.1f} ms, "
          f"delta {t_delta * 1e3:.1f} ms  ->  {speedup:.2f}x; "
          f"whole edit (clone + estimate_delta) {t_edit * 1e3:.1f} ms")
    shape(f"single-gate delta re-estimation >= 5x over full resim "
          f"(got {speedup:.2f}x)", speedup >= 5.0)


def steady_state_sites(circuit: Circuit, count: int,
                       seed: int = 5) -> list:
    """``count`` distinct 2-input gates past the first fifth of the
    gate list (small fanout cones), in seeded random order."""
    first = len(circuit.gates) // 5
    sites = [i for i in range(first, len(circuit.gates))
             if len(circuit.gates[i].inputs) == 2]
    return random.Random(seed).sample(sites, count)


def test_perf_steady_state_edits(once):
    """400 edits past a full cache: the base stays primed, <= 1.5x."""
    edits, window, checks = 400, 50, 8
    circuit = random_logic(32, 3000, 16, seed=3)
    vectors = random_packed_vectors(list(circuit.inputs), 1 << 17,
                                    seed=4)
    sites = steady_state_sites(circuit, edits + checks)

    def run():
        # Untimed: bit-identity on a sample of edits, and the bytes an
        # edit adds, which sizes the cache to overflow after ~50 edits.
        cache = inc.ConeCache()
        inc.prime(circuit, vectors, cache=cache)
        base_bytes = cache.stats()["bytes"]
        for index in sites[edits:]:
            variant = _retype(circuit, index)
            report, _ = inc.estimate_delta(circuit, variant, vectors,
                                           cache=cache)
            shape("steady-state edit bit-identical to full resim",
                  inc.reports_equal(report,
                                    collect_activity(variant, vectors)))
        per_edit = (cache.stats()["bytes"] - base_bytes) / checks
        cache = inc.ConeCache(
            max_bytes=int(base_bytes + window * per_edit))
        inc.prime(circuit, vectors, cache=cache)
        times = []
        for index in sites[:edits]:
            start = time.perf_counter()
            inc.estimate_delta(circuit, _retype(circuit, index), vectors,
                               cache=cache)
            times.append(time.perf_counter() - start)
        return times, cache.stats()

    times, stats = once(run)
    first = statistics.median(times[:window])
    last = statistics.median(times[-window:])
    ratio = last / first
    _record({
        "key": "steady_state_edits",
        "gates": circuit.gate_count(),
        "cycles": vectors.n,
        "edits": edits,
        "max_bytes": stats["max_bytes"],
        "evictions": stats["evictions"],
        "primes": stats.get("primes"),
        "first_median_s": round(first, 6),
        "last_median_s": round(last, 6),
        "last_over_first": round(ratio, 3),
        "cpus": os.cpu_count(),
    })
    print()
    print(f"Perf: {edits} distinct edits, cache of {stats['max_bytes']} "
          f"bytes ({stats['evictions']} evictions, {stats.get('primes')} "
          f"base primes): median of the first {window} "
          f"{first * 1e3:.1f} ms, of the last {window} "
          f"{last * 1e3:.1f} ms  ->  {ratio:.2f}x")
    shape("the variants' records overflow the cache",
          stats["evictions"] > 0)
    shape(f"a full cache keeps edits within 1.5x of the first {window} "
          f"(got {ratio:.2f}x)", ratio <= 1.5)


def test_perf_optimization_sweep(once):
    """Gating + precompute + guarded-eval sweep estimation >= 5x."""
    pairs = sweep_population()

    def full_sweep():
        return [collect_activity(c, v) for c, v in pairs]

    def incremental_sweep():
        cache = inc.ConeCache()
        return [inc.collect_activity_incremental(c, v, cache=cache)
                for c, v in pairs]

    def run():
        full = full_sweep()
        incr = incremental_sweep()
        for (c, _v), a, b in zip(pairs, full, incr):
            shape(f"sweep report for {c.name} bit-identical",
                  inc.reports_equal(a, b))
        t_full = measure(full_sweep, repeats=3)
        t_incr = measure(incremental_sweep, repeats=3)
        return t_full, t_incr

    t_full, t_incr = once(run)
    speedup = t_full / max(t_incr, 1e-9)
    _record({
        "key": "optimization_sweep",
        "candidates": len(pairs),
        "full_s": round(t_full, 6),
        "incremental_s": round(t_incr, 6),
        "speedup": round(speedup, 2),
        "cpus": os.cpu_count(),
    })
    print()
    print(f"Perf: optimization sweep, {len(pairs)} candidate "
          f"evaluations: full {t_full * 1e3:.1f} ms, incremental "
          f"{t_incr * 1e3:.1f} ms  ->  {speedup:.2f}x")
    shape(f"incremental sweep estimation >= 5x over full resim "
          f"(got {speedup:.2f}x)", speedup >= 5.0)
