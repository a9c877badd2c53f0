"""Gate-level logic: netlists, simulation, synthesis, generators.

This package is the framework's ground-truth substrate.  The paper's
high-level models are all validated against gate-level switched
capacitance; here that reference is provided by

- :mod:`repro.logic.netlist`   -- gate-level circuit representation,
- :mod:`repro.logic.gates`     -- a generic characterized cell library,
- :mod:`repro.logic.simulate`  -- zero-delay functional simulation and
  activity collection (scalar reference engine + engine dispatch),
- :mod:`repro.logic.fastsim`   -- compiled bit-parallel zero-delay
  engine, exactly equivalent to the reference and 20-50x faster on
  vector batches,
- :mod:`repro.logic.eventsim`  -- event-driven timing simulation that
  captures glitching (needed by the retiming study, Section III-J),
- :mod:`repro.logic.fasttimer` -- table-driven tick-wheel timed engine,
  bit-parallel waveforms per (net, tick), exactly equivalent to the
  event-driven reference,
- :mod:`repro.logic.synthesis` -- SOP covers to gate netlists,
- :mod:`repro.logic.generators`-- parametric adders, multipliers,
  comparators, parity trees, and random logic used as benchmark
  populations,
- :mod:`repro.logic.bdd_bridge`-- circuit-to-BDD conversion for exact
  probabilistic analysis.
"""

from repro.logic.gates import GateSpec, LIBRARY, gate_spec
from repro.logic.netlist import Circuit, Gate, Latch
from repro.logic.simulate import (
    simulate,
    collect_activity,
    ActivityReport,
    random_vectors,
)
from repro.logic.fastsim import (
    CompiledCircuit,
    PackedVectors,
    compile_circuit,
    random_packed_vectors,
)
from repro.logic.eventsim import EventSimulator, TickGrid, tick_grid
from repro.logic.fasttimer import TimedPlan, compile_timed, timed_activity

__all__ = [
    "GateSpec",
    "LIBRARY",
    "gate_spec",
    "Circuit",
    "Gate",
    "Latch",
    "simulate",
    "collect_activity",
    "ActivityReport",
    "random_vectors",
    "CompiledCircuit",
    "PackedVectors",
    "compile_circuit",
    "random_packed_vectors",
    "EventSimulator",
    "TickGrid",
    "tick_grid",
    "TimedPlan",
    "compile_timed",
    "timed_activity",
]
