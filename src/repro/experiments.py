"""The experiment registry: every paper-reproduction bench, as data.

Previously a CLI-private list in ``repro.__main__``; now a shared
module so the bench orchestrator (:mod:`repro.obs.runner`), the CLI,
and external tooling all consume one machine-readable source of truth.
Adding a bench = add a file under ``benchmarks/`` and one
:class:`Experiment` row here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

__all__ = ["Experiment", "EXPERIMENTS", "SUBSYSTEMS",
           "experiments_by_id", "experiment_for_bench"]


@dataclass(frozen=True)
class Experiment:
    """One paper-reproduction bench."""

    id: str              # paper anchor: T1, F2..F9, C1..C13, P*
    title: str
    bench: str           # file under benchmarks/
    kind: str = "paper"  # "paper" (reproduces a figure/claim) | "perf"

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)


EXPERIMENTS: List[Experiment] = [
    Experiment("T1", "Table I FIR capacitance", "bench_table1_fir.py"),
    Experiment("F2", "memory-access minimization", "bench_fig2_memory.py"),
    Experiment("F3", "static shutdown timeout", "bench_fig3_shutdown.py"),
    Experiment("F45", "polynomial restructuring",
               "bench_fig45_polynomial.py"),
    Experiment("F6", "precomputation", "bench_fig6_precompute.py"),
    Experiment("F7", "gated clocks", "bench_fig7_gated_clock.py"),
    Experiment("F8", "guarded evaluation", "bench_fig8_guarded.py"),
    Experiment("F9", "retiming", "bench_fig9_retiming.py"),
    Experiment("C1", "profile-driven program synthesis",
               "bench_c1_profile_synthesis.py"),
    Experiment("C2", "entropic models", "bench_c2_entropy.py"),
    Experiment("C3", "Tyagi FSM bound", "bench_c3_tyagi.py"),
    Experiment("C4", "complexity models", "bench_c4_complexity.py"),
    Experiment("C5", "macro-model ladder", "bench_c5_macromodel.py"),
    Experiment("C6", "sampling cosimulation", "bench_c6_sampling.py"),
    Experiment("C7", "predictive shutdown", "bench_c7_predictive.py"),
    Experiment("C8", "activity-aware allocation",
               "bench_c8_allocation.py"),
    Experiment("C9", "multiple supply voltages",
               "bench_c9_multivoltage.py"),
    Experiment("C10", "bus encoding", "bench_c10_bus_encoding.py"),
    Experiment("C11", "low-power state encoding",
               "bench_c11_fsm_encoding.py"),
    Experiment("C12", "low-power scheduling", "bench_c12_scheduling.py"),
    Experiment("C13", "cold scheduling", "bench_c13_cold_scheduling.py"),
    Experiment("P1", "bit-parallel engine vs scalar reference",
               "bench_perf_fastsim.py", kind="perf"),
    Experiment("P2", "BDD engine: fused image, ordering, sifting",
               "bench_perf_bdd.py", kind="perf"),
    Experiment("P3", "tick-wheel timed engine vs event-driven reference",
               "bench_perf_eventsim.py", kind="perf"),
    Experiment("P4", "bit-plane word-stream engine vs scalar statistics",
               "bench_perf_streams.py", kind="perf"),
    Experiment("P6", "plan-store warm starts + estimation service loadgen",
               "bench_perf_serve.py", kind="perf"),
    Experiment("P7", "learned macromodels vs the fixed ladder (Pareto)",
               "bench_perf_learned.py", kind="perf"),
    Experiment("P8", "incremental cone re-estimation vs full resim",
               "bench_perf_incremental.py", kind="perf"),
    Experiment("P9", "candidate-search pool: annealing restarts and "
               "population characterization vs the serial walk",
               "bench_perf_search.py", kind="perf"),
]

SUBSYSTEMS: List[Dict[str, str]] = [
    {"module": "repro.bdd",
     "description": "ROBDD package (ite/quantify/compose/probability)"},
    {"module": "repro.twolevel",
     "description": "Quine-McCluskey + espresso-style minimization"},
    {"module": "repro.logic",
     "description": "gate netlists, simulators, synthesis, generators"},
    {"module": "repro.fsm",
     "description": "STGs, Markov analysis, encoding, symbolic traversal"},
    {"module": "repro.rtl",
     "description": "word streams, characterized components, RTL sim"},
    {"module": "repro.cdfg",
     "description": "dataflow graphs, scheduling, datapath synthesis"},
    {"module": "repro.software",
     "description": "energy-annotated ISA simulator"},
    {"module": "repro.estimation",
     "description": "Section II: all surveyed estimation models"},
    {"module": "repro.estimation.learned",
     "description": "learned macromodels: characterize / fit / serve"},
    {"module": "repro.optimization",
     "description": "Section III: all surveyed optimizations"},
    {"module": "repro.core",
     "description": "PowerEstimator facade + design-improvement loop"},
    {"module": "repro.obs",
     "description": "observability: tracing, metrics, bench orchestrator"},
]


def experiments_by_id() -> Dict[str, Experiment]:
    return {exp.id: exp for exp in EXPERIMENTS}


def experiment_for_bench(bench_name: str) -> Optional[Experiment]:
    for exp in EXPERIMENTS:
        if exp.bench == bench_name:
            return exp
    return None
