"""Perf — table-driven tick-wheel timed engine vs. event-driven reference.

Not a paper figure: this bench guards the engineering claim that makes
the glitch-aware ground truth cheap.  Every relative claim in the
survey is judged against timed simulation (Section II "real delay",
the retiming study of Section III-J), so the fig9 circuits — the deep
adder chain and its glitch-aware pipelined cut — are the workload: the
tick-wheel engine must (a) stay bit-identical to the event-driven
reference, ``events`` and ``glitches`` tallies included, and (b) be at
least 10x faster at 4096 packed cycles.  Measured speedups are
recorded in ``BENCH_eventsim.json`` at the repo root, next to an
ungated cold entry per circuit: ``compile_timed`` seconds for a fresh
circuit on an empty artifact store, and the size of the plan payload it
publishes (the cost a never-seen design pays before its first batch).
"""

import json
import time

from _perf_common import REPO_ROOT, measure, record

from conftest import shape

from repro import store as artifact_store
from repro.logic import fasttimer
from repro.logic.eventsim import EventSimulator
from repro.logic.fastsim import random_packed_vectors
from repro.logic.generators import chained_adder_tree
from repro.optimization.retiming import pipeline_at_level
from repro.store import ArtifactStore

RESULTS_PATH = REPO_ROOT / "BENCH_eventsim.json"

N_CYCLES = 4096


def _compare(circuit, key, repeats=3):
    packed = random_packed_vectors(circuit.inputs, N_CYCLES, seed=51)
    # Warm the compiled plans (tick schedule + functional plan) and
    # the reference engine's topo/fanout caches outside timing.
    fasttimer.compile_timed(circuit)
    fast_report = EventSimulator(circuit, engine="fast").run(packed)
    ref_report = EventSimulator(circuit, engine="reference").run(packed)

    shape("engines bit-identical before timing (toggles/ones/"
          "glitches/events/switched/clock)", fast_report == ref_report)

    t_ref = measure(
        lambda: EventSimulator(circuit, engine="reference").run(packed))
    t_fast = measure(
        lambda: EventSimulator(circuit, engine="fast").run(packed),
        repeats=repeats)
    speedup = t_ref / max(t_fast, 1e-9)
    record(RESULTS_PATH, key, {
        "circuit": circuit.name,
        "gates": circuit.gate_count(),
        "registers": len(circuit.latches),
        "cycles": N_CYCLES,
        "glitches": ref_report.glitches,
        "reference_s": round(t_ref, 6),
        "fast_s": round(t_fast, 6),
        "speedup": round(speedup, 2),
    })
    return t_ref, t_fast, speedup


def _cold_compile(build, key, repeats=3):
    """Best-of-N ``compile_timed`` on a fresh circuit and empty store.

    Ungated (no ``speedup`` field): it records what plan building
    costs, so a change in it shows up in the baseline diff.
    """
    best = float("inf")
    for _ in range(repeats):
        circuit = build()
        prev = artifact_store.set_store(ArtifactStore(root=None))
        try:
            start = time.perf_counter()
            fasttimer.compile_timed(circuit)
            best = min(best, time.perf_counter() - start)
            payload = artifact_store.get_store().get(
                circuit.fingerprint(), fasttimer.STORE_KIND)
        finally:
            artifact_store.set_store(prev)
    payload_bytes = len(json.dumps(payload, sort_keys=True))
    record(RESULTS_PATH, key, {
        "circuit": circuit.name,
        "gates": circuit.gate_count(),
        "compile_timed_s": round(best, 6),
        "payload_bytes": payload_bytes,
    })
    return best, payload_bytes


def _fig9_flat():
    return chained_adder_tree(4, 4)


def _fig9_piped():
    flat = _fig9_flat()
    piped, _regs = pipeline_at_level(flat, max(1, flat.depth() // 2),
                                     name="addchain4x4_piped")
    return piped


def test_perf_timed_fig9_cold_compile(once):
    """Ungated: cold plan build per fig9 circuit (seconds, bytes)."""
    def experiment():
        return {
            "combinational": _cold_compile(_fig9_flat,
                                           key="fig9_flat_cold"),
            "pipelined": _cold_compile(_fig9_piped,
                                       key="fig9_pipelined_cold"),
        }

    results = once(experiment)
    print()
    print("Perf: cold compile_timed on an empty store:")
    for label, (seconds, nbytes) in results.items():
        print(f"  {label:13s}: {seconds * 1e3:7.2f} ms, payload "
              f"{nbytes / 1024:6.1f} KiB")


def test_perf_timed_fig9_circuits(once):
    """>= 10x on the fig9 adder chain, flat and pipelined."""
    flat = _fig9_flat()
    piped = _fig9_piped()

    def experiment():
        return {
            "combinational": _compare(flat, key="fig9_flat_4096"),
            "pipelined": _compare(piped, key="fig9_pipelined_4096"),
        }

    results = once(experiment)
    print()
    print(f"Perf: tick-wheel timed engine vs event-driven reference "
          f"({N_CYCLES} packed cycles):")
    for label, (t_ref, t_fast, speedup) in results.items():
        print(f"  {label:13s}: reference {t_ref * 1e3:8.1f} ms, "
              f"fast {t_fast * 1e3:6.1f} ms  ->  {speedup:6.1f}x")

    for label, (_, _, speedup) in results.items():
        shape(f"timed fast engine >= 10x on {label} fig9 circuit "
              f"(got {speedup:.1f}x)", speedup >= 10.0)
