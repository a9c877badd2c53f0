"""Zero-delay functional simulation and activity collection.

The zero-delay simulator computes steady-state net values once per
clock cycle; toggles counted here exclude glitches (use
:mod:`repro.logic.eventsim` for glitch-aware power).  It is the "fast
functional simulation" repeatedly invoked by the paper's high-level
models (e.g. to obtain output entropies in Section II-B1 or output
activities for the 3D-table macro-model of [41]).

Two engines back the public entry points:

- the *reference* engine in this module: scalar, one vector at a
  time, per-gate dict lookups — simple and obviously correct,
- the *fast* engine in :mod:`repro.logic.fastsim`: a compiled,
  bit-parallel evaluator that packs the whole batch into one bignum
  word per net and is exactly equivalent (bit-identical
  :class:`ActivityReport`).

:func:`collect_activity` and :func:`output_trace` take
``engine="fast"|"reference"`` and default to :data:`DEFAULT_ENGINE`
(the fast engine).  The fast engine falls back to the scalar
reference for circuits the compiler cannot lower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backend.core import resolve_engine
from repro.logic import gates as gatelib
from repro.logic.netlist import Circuit


Vector = Dict[str, int]

#: Engine used when callers do not pass ``engine=...`` explicitly.
DEFAULT_ENGINE = "fast"


def random_vectors(inputs: Sequence[str], n: int,
                   seed: Optional[int] = None,
                   probs: Optional[Dict[str, float]] = None) -> List[Vector]:
    """Generate ``n`` random input vectors.

    ``probs`` optionally gives a per-input probability of 1 (default
    0.5, i.e. pseudorandom data as used for characterization in
    Section II-C1 step 1).
    """
    rng = random.Random(seed)
    probs = probs or {}
    return [
        {name: int(rng.random() < probs.get(name, 0.5)) for name in inputs}
        for _ in range(n)
    ]


def evaluate(circuit: Circuit, inputs: Vector,
             state: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Steady-state value of every net for one cycle.

    ``state`` supplies current latch output values; latch initial
    values are used when omitted.
    """
    values: Dict[str, int] = dict(inputs)
    if state is None:
        state = {l.output: l.init for l in circuit.latches}
    values.update(state)
    for gate in circuit.topological_gates():
        values[gate.output] = gate.spec.evaluate(
            [values[n] for n in gate.inputs])
    return values


def next_state(circuit: Circuit, values: Dict[str, int]) -> Dict[str, int]:
    """Latch outputs after the clock edge, given settled net values.

    Load-enable latches hold their value when the enable net is 0.
    """
    state: Dict[str, int] = {}
    for l in circuit.latches:
        if l.enable is not None and not values[l.enable]:
            state[l.output] = values[l.output]
        else:
            state[l.output] = values[l.data]
    return state


@dataclass
class ActivityReport:
    """Per-net switching statistics from a simulation run.

    ``toggles[n]``     -- number of 0->1 / 1->0 transitions of net n,
    ``ones[n]``        -- cycles in which net n was 1,
    ``cycles``         -- number of simulated cycles,
    ``switched_capacitance`` -- sum over transitions of the toggling
    net's load capacitance (units of C0); with clock tree included for
    sequential circuits.

    Normalization convention (deliberate, engine-independent): a run
    of ``cycles`` settled states has ``cycles - 1`` *boundaries*
    between consecutive states.  Transition statistics — ``toggles``,
    ``switched_capacitance``, ``clock_capacitance`` — accumulate over
    boundaries, so :meth:`activity` and :meth:`average_power` divide
    by ``cycles - 1`` (and are 0.0 when ``cycles <= 1``: a single
    vector cannot toggle anything).  Value statistics — ``ones`` —
    accumulate over all ``cycles`` states, so :meth:`probability`
    divides by ``cycles``.  Both engines implement exactly this
    convention and agree bit-for-bit, including the 1- and 2-cycle
    edge cases.
    """

    cycles: int
    toggles: Dict[str, int]
    ones: Dict[str, int]
    switched_capacitance: float
    clock_capacitance: float = 0.0
    #: Timed-engine extras (None for zero-delay runs): total applied
    #: value-change events including settling, and transitions beyond
    #: each net's settled change per cycle (the glitch tally).
    events: Optional[int] = None
    glitches: Optional[int] = None

    def activity(self, net: str) -> float:
        """Average toggles per cycle of a net (E in the paper's models)."""
        if self.cycles <= 1:
            return 0.0
        return self.toggles.get(net, 0) / (self.cycles - 1)

    def probability(self, net: str) -> float:
        if self.cycles == 0:
            return 0.0
        return self.ones.get(net, 0) / self.cycles

    def average_activity(self, nets: Optional[Iterable[str]] = None) -> float:
        names = list(nets) if nets is not None else list(self.toggles)
        if not names:
            return 0.0
        return sum(self.activity(n) for n in names) / len(names)

    def average_power(self, vdd: float = 1.0, freq: float = 1.0) -> float:
        """0.5 V^2 f C_sw/cycle, the switched-capacitance power metric."""
        if self.cycles <= 1:
            return 0.0
        per_cycle = (self.switched_capacitance + self.clock_capacitance) \
            / (self.cycles - 1)
        return 0.5 * vdd * vdd * freq * per_cycle

    def energy_per_cycle(self, vdd: float = 1.0) -> float:
        return self.average_power(vdd=vdd, freq=1.0)


def simulate(circuit: Circuit, vectors: Sequence[Vector],
             initial_state: Optional[Dict[str, int]] = None
             ) -> List[Dict[str, int]]:
    """Simulate a vector sequence; returns settled net values per cycle."""
    state = initial_state
    if state is None:
        state = {l.output: l.init for l in circuit.latches}
    trace: List[Dict[str, int]] = []
    for vec in vectors:
        values = evaluate(circuit, vec, state)
        trace.append(values)
        state = next_state(circuit, values)
    return trace


def collect_activity(circuit: Circuit, vectors: Sequence[Vector],
                     initial_state: Optional[Dict[str, int]] = None,
                     engine: Optional[str] = None) -> ActivityReport:
    """Run a zero-delay simulation and accumulate switching statistics.

    ``vectors`` is a sequence of per-cycle input dicts or a
    :class:`repro.logic.fastsim.PackedVectors` batch.  ``engine``
    selects the implementation: ``"fast"`` (bit-parallel compiled on
    bignum words, the default) or ``"reference"`` (scalar).  Both
    produce bit-identical reports; the fast engine falls back to the
    reference when the circuit cannot be compiled.
    """
    from repro.logic import fastsim

    if resolve_engine(engine, DEFAULT_ENGINE) == "fast":
        try:
            return fastsim.collect_activity(circuit, vectors, initial_state)
        except fastsim.CompileError:
            pass
    if isinstance(vectors, fastsim.PackedVectors):
        vectors = vectors.to_vectors()
    return _collect_activity_reference(circuit, vectors, initial_state)


def _collect_activity_reference(circuit: Circuit,
                                vectors: Sequence[Vector],
                                initial_state: Optional[Dict[str, int]]
                                = None) -> ActivityReport:
    """Scalar reference implementation (one vector at a time)."""
    caps = circuit.load_capacitances()
    toggles: Dict[str, int] = {net: 0 for net in caps}
    ones: Dict[str, int] = {net: 0 for net in caps}
    previous: Optional[Dict[str, int]] = None

    trace = simulate(circuit, vectors, initial_state)
    for values in trace:
        for net in caps:
            value = values[net]
            if value:
                ones[net] += 1
            if previous is not None and previous[net] != value:
                toggles[net] += 1
        previous = values

    switched = 0.0
    for net in caps:
        count = toggles[net]
        if count:
            switched += caps[net] * count

    cycles = len(vectors)
    clock_cap = 0.0
    if circuit.latches and cycles > 1:
        # The clock toggles twice per counted cycle; load-enable
        # latches sit behind a clock gate and only see the clock when
        # enabled.
        enabled_latch_cycles = 0
        for values in trace[:-1]:
            for latch in circuit.latches:
                if latch.clocked and (latch.enable is None
                                      or values[latch.enable]):
                    enabled_latch_cycles += 1
        clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * enabled_latch_cycles
    return ActivityReport(
        cycles=cycles,
        toggles=toggles,
        ones=ones,
        switched_capacitance=switched,
        clock_capacitance=clock_cap,
    )


def output_trace(circuit: Circuit, vectors: Sequence[Vector],
                 initial_state: Optional[Dict[str, int]] = None,
                 engine: Optional[str] = None) -> List[Vector]:
    """Primary-output values per cycle (convenience wrapper).

    Same engine dispatch and fallback as :func:`collect_activity`.
    """
    from repro.logic import fastsim

    if resolve_engine(engine, DEFAULT_ENGINE) == "fast":
        try:
            return fastsim.output_trace(circuit, vectors, initial_state)
        except fastsim.CompileError:
            pass
    if isinstance(vectors, fastsim.PackedVectors):
        vectors = vectors.to_vectors()
    trace = simulate(circuit, vectors, initial_state)
    return [{o: values[o] for o in circuit.outputs} for values in trace]
