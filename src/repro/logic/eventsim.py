"""Event-driven gate-level simulation with glitch accounting.

The zero-delay simulator of :mod:`repro.logic.simulate` counts at most
one transition per net per cycle.  Real CMOS logic glitches: unequal
path delays make gate outputs toggle several times before settling.
Glitching is central to the low-power retiming study (Section III-J,
[111]) and to the gap between functional and "real delay" power
estimates ([28]).

Timing model (pinned, engine-independent)
-----------------------------------------

Gate transport delays from the cell library are discretized onto an
integer *tick* grid: the tick quantum is the exact rational GCD of the
delays present in the circuit (the library's delays are all multiples
of 0.2, so discretization is lossless), and every gate delay becomes
an integer number of ticks.  Within a tick, semantics are two-phase:

1. all value changes arriving at the tick are applied simultaneously,
2. every gate with a changed fan-in is evaluated *once* against the
   updated values and schedules its new output ``delay_ticks`` later
   (zero-delay cells propagate within the tick, in topological order).

Pulses wider than one tick are propagated (transport-delay
semantics), which over-counts glitches relative to an inertial model;
the over-count is conservative and uniform across compared circuits,
so relative results are preserved.  Compared to event-at-a-time float
timestamps, the tick grid merges arrivals that are simultaneous *by
construction* (equal path-delay sums) instead of splitting them on
floating-point rounding, so no zero-width phantom pulses are counted.

Normalization (pinned, matches :class:`ActivityReport`'s convention):
the first cycle after :meth:`EventSimulator.reset` only establishes
initial values — ``ones`` and ``cycles`` count it (value statistics
cover all settled states, exactly like the zero-delay engine's
``ones``), while ``toggles``/``glitches``/switched capacitance do not
(transition statistics cover the ``cycles - 1`` boundaries).
``events`` counts every applied value change including settling.
Clock-tree accounting follows the zero-delay engine: the edge between
cycles ``k`` and ``k+1`` is gated by the enable settled in cycle ``k``
and edges are counted for ``k = 0 .. cycles-2``.

Two engines back :meth:`EventSimulator.run`:

- the *reference* engine in this module: one event at a time through
  per-gate dict traffic — simple and obviously correct,
- the *fast* engine in :mod:`repro.logic.fasttimer`: a compiled
  tick-wheel evaluator that packs N cycles bit-parallel per
  (net, tick) and counts with popcounts.

Reports are bit-identical across both; the fast engine falls back to
the reference when the circuit cannot be compiled.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic.netlist import Circuit, Gate, Latch
from repro.logic.simulate import ActivityReport, Vector

#: Engine used when ``EventSimulator`` is built without ``engine=``.
DEFAULT_TIMED_ENGINE = "fast"


# ----------------------------------------------------------------------
# Tick discretization (shared by both engines)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TickGrid:
    """Integer-tick discretization of a circuit's transport delays.

    ``quantum`` is the exact rational GCD of the gate delays present
    (1 when the circuit has no delayed gates); ``ticks`` maps every
    gate output net to its transport delay in ticks.
    """

    quantum: Fraction
    ticks: Dict[str, int]


def _rational(delay: float) -> Fraction:
    """Snap a float delay to the rational grid (library delays are
    short decimals; ``limit_denominator`` recovers them exactly)."""
    return Fraction(delay).limit_denominator(10 ** 6)


#: Artifact kind under which tick grids land in :mod:`repro.store`.
STORE_KIND = "tickgrid"


def _rehydrate_grid(circuit: Circuit,
                    payload: Dict[str, object]) -> Optional[TickGrid]:
    """Rebuild a tick grid from a store payload, or ``None``."""
    try:
        ticks = payload["ticks"]
        num, den = payload["quantum"]
        if set(ticks) != {g.output for g in circuit.gates}:
            return None
        return TickGrid(Fraction(int(num), int(den)),
                        {net: int(t) for net, t in ticks.items()})
    except Exception:
        return None


def tick_grid(circuit: Circuit) -> TickGrid:
    """Discretize ``circuit``'s gate delays onto the tick grid.

    Cached on the circuit object and in the content-addressed
    artifact store (the grid rides along with the compiled timed plan
    across process boundaries).
    """
    cached = getattr(circuit, "_tick_grid", None)
    version = getattr(circuit, "_version", 0)
    if cached is not None and cached[0] == version:
        return cached[1]
    st = artifact_store.get_store()
    fp = circuit.fingerprint()
    payload = st.get(fp, STORE_KIND)
    if payload is not None:
        grid = _rehydrate_grid(circuit, payload)
        if grid is not None:
            circuit._tick_grid = (version, grid)
            return grid
    fracs = [_rational(g.spec.delay) for g in circuit.gates]
    quantum = Fraction(1)
    nonzero = [f for f in fracs if f]
    if nonzero:
        quantum = nonzero[0]
        for f in nonzero[1:]:
            quantum = Fraction(
                math.gcd(quantum.numerator * f.denominator,
                         f.numerator * quantum.denominator),
                quantum.denominator * f.denominator)
    ticks = {g.output: int(f / quantum)
             for g, f in zip(circuit.gates, fracs)}
    grid = TickGrid(quantum, ticks)
    st.put(fp, STORE_KIND, {
        "quantum": [quantum.numerator, quantum.denominator],
        "ticks": ticks,
    })
    circuit._tick_grid = (version, grid)
    return grid


Stimulus = Union[Sequence[Vector], "object"]   # list of dicts | PackedVectors


class EventSimulator:
    """Cycle-based event-driven simulator for a circuit.

    ``engine`` selects the implementation backing :meth:`run`:
    ``"fast"`` (compiled tick-wheel on bignum words; the default) or
    ``"reference"`` (scalar, event at a time).  Both produce
    bit-identical counters; the fast engine falls back to the
    reference when the circuit cannot be compiled.  :meth:`step`
    always runs the scalar reference (it is the single-cycle
    debugging API).
    """

    def __init__(self, circuit: Circuit,
                 engine: Optional[str] = None) -> None:
        self.engine = resolve_engine(engine, DEFAULT_TIMED_ENGINE)
        self.circuit = circuit
        self._fanout = circuit.fanout_map()
        self._caps = circuit.load_capacitances()
        self._grid = tick_grid(circuit)
        self._topo_index = {g.output: i for i, g in
                            enumerate(circuit.topological_gates())}
        self._gate_of = {g.output: g for g in circuit.gates}
        self._values: Dict[str, int] = {}
        self._state = {l.output: l.init for l in circuit.latches}
        self.reset()

    def reset(self) -> None:
        from repro.logic.simulate import evaluate

        self._state = {l.output: l.init for l in self.circuit.latches}
        # Settle the circuit with all primary inputs at 0 so that gate
        # outputs start from consistent values (a NAND of zeros is 1).
        self._values = evaluate(
            self.circuit, {n: 0 for n in self.circuit.inputs}, self._state)
        self.toggles: Dict[str, int] = {n: 0 for n in self.circuit.nets}
        self.ones: Dict[str, int] = {n: 0 for n in self.circuit.nets}
        self.cycles = 0
        #: Applied (value-changing) events since reset, including the
        #: settling of the initial cycle.
        self.events = 0
        #: Transitions beyond each net's settled change per cycle —
        #: the simulator's own glitch tally (transport-delay model).
        self.glitches = 0
        self._settled_once = False
        self._clocked_latch_cycles = 0
        # Enabled clocked-latch count of the most recent settled cycle;
        # folded into _clocked_latch_cycles once the *next* cycle
        # proves the clock edge exists (zero-delay convention: edges
        # are gated by the enable of the cycle they terminate).
        self._last_enabled = 0

    @property
    def switched_capacitance(self) -> float:
        """Capacitance switched by counted transitions since reset.

        Derived from the integer toggle counters with one
        multiply-accumulate per net (in ``circuit.nets`` order) so
        both engines produce the identical float.
        """
        caps = self._caps
        return sum(caps[net] * t for net, t in self.toggles.items() if t)

    # ------------------------------------------------------------------
    def run(self, vectors: Stimulus) -> ActivityReport:
        from repro.logic import gates as gatelib

        with obs.span("eventsim.run", circuit=self.circuit.name,
                      engine=self.engine) as sp:
            events_before = self.events
            glitches_before = self.glitches
            if self.engine == "fast":
                from repro.logic import fasttimer
                try:
                    self._run_fast(vectors)
                except fasttimer.CompileError:
                    self._run_reference(vectors)
            else:
                self._run_reference(vectors)
            clock_cap = 0.0
            if self.circuit.latches and self.cycles > 1:
                clock_cap = (2.0 * gatelib.DFF_CLOCK_CAP
                             * self._clocked_latch_cycles)
            sp.add("cycles", len(vectors))
            sp.add("events", self.events - events_before)
            sp.add("glitches", self.glitches - glitches_before)
        if obs.enabled():
            obs.inc("eventsim.events", self.events - events_before)
            obs.inc("eventsim.glitches", self.glitches - glitches_before)
        return ActivityReport(
            cycles=self.cycles,
            toggles=dict(self.toggles),
            ones=dict(self.ones),
            switched_capacitance=self.switched_capacitance,
            clock_capacitance=clock_cap,
            events=self.events,
            glitches=self.glitches,
        )

    def _run_reference(self, vectors: Stimulus) -> None:
        from repro.logic import fastsim

        if isinstance(vectors, fastsim.PackedVectors):
            vectors = vectors.to_vectors()
        for vec in vectors:
            self.step(vec)

    def _run_fast(self, vectors: Stimulus) -> None:
        """Run a whole batch through the compiled tick-wheel engine."""
        from repro.logic import fasttimer

        counts = fasttimer.timed_batch(
            self.circuit, vectors,
            prev_values=self._values, state=self._state,
            settling_first=not self._settled_once)
        if counts.n == 0:
            return
        for net, t in counts.toggles.items():
            if t:
                self.toggles[net] += t
        for net, o in counts.ones.items():
            if o:
                self.ones[net] += o
        self.events += counts.events
        self.glitches += counts.glitches
        if self.cycles >= 1:
            self._clocked_latch_cycles += self._last_enabled
        self._clocked_latch_cycles += counts.latch_edges_lo
        self._last_enabled = counts.latch_edges_last
        self.cycles += counts.n
        self._values = counts.final_values
        self._state = counts.final_state
        self._settled_once = True

    # ------------------------------------------------------------------
    def step(self, inputs: Vector) -> Dict[str, int]:
        """Apply one input vector + clock edge; settle all events.

        Returns the settled net values.  Transitions (including
        glitches) are accumulated into the activity counters, except
        during the very first cycle which only establishes initial
        values (``ones``/``cycles``/``events`` still count it — the
        pinned normalization in the module docstring).
        """
        count_transitions = self._settled_once
        if self.cycles >= 1:
            self._clocked_latch_cycles += self._last_enabled
        values = self._values
        fanout = self._fanout
        dticks = self._grid.ticks
        topo_index = self._topo_index
        gate_of = self._gate_of

        # tick -> {net: scheduled value}; one writer per (net, tick)
        # since each net has a single driver evaluated once per tick.
        pending: Dict[int, Dict[str, int]] = {}

        step_first: Dict[str, int] = {}    # value at cycle start
        step_counts: Dict[str, int] = {}   # transitions this cycle

        def apply(net: str, value: int) -> bool:
            if values[net] == value:
                return False
            if count_transitions:
                self.toggles[net] += 1
                if net in step_counts:
                    step_counts[net] += 1
                else:
                    step_first[net] = values[net]
                    step_counts[net] = 1
            values[net] = value
            self.events += 1
            return True

        # Clock edge: latch outputs take the previously sampled values;
        # primary inputs change simultaneously at tick 0.
        roots: Dict[str, int] = {}
        for name, value in inputs.items():
            if values.get(name) != value:
                roots[name] = value
        for latch in self.circuit.latches:
            if values[latch.output] != self._state[latch.output]:
                roots[latch.output] = self._state[latch.output]
        if roots:
            pending[0] = roots

        while pending:
            tick = min(pending)
            changed = [net for net, value in pending.pop(tick).items()
                       if apply(net, value)]
            # Phase 2: evaluate each affected gate once against the
            # fully-updated values; zero-delay cells propagate within
            # the tick in topological order (a heap keyed by the
            # cached topological index).
            heap: List[Tuple[int, str]] = []
            queued = set()
            for net in changed:
                for consumer, _pin in fanout.get(net, []):
                    if isinstance(consumer, Gate) \
                            and consumer.output not in queued:
                        queued.add(consumer.output)
                        heapq.heappush(
                            heap, (topo_index[consumer.output],
                                   consumer.output))
            evaluated = set()
            while heap:
                _i, out = heapq.heappop(heap)
                if out in evaluated:
                    continue
                evaluated.add(out)
                gate = gate_of[out]
                new = gate.spec.evaluate([values[n] for n in gate.inputs])
                d = dticks[out]
                if d == 0:
                    if apply(out, new):
                        for consumer, _pin in fanout.get(out, []):
                            if isinstance(consumer, Gate) \
                                    and consumer.output not in evaluated:
                                heapq.heappush(
                                    heap, (topo_index[consumer.output],
                                           consumer.output))
                else:
                    pending.setdefault(tick + d, {})[out] = new

        # Sample next state at the end of the settled cycle;
        # load-enable latches hold (and their clock stays gated).
        new_state: Dict[str, int] = {}
        enabled = 0
        for l in self.circuit.latches:
            if l.enable is not None and not values[l.enable]:
                new_state[l.output] = values[l.output]
            else:
                new_state[l.output] = values[l.data]
            if l.clocked and (l.enable is None or values[l.enable]):
                enabled += 1
        self._state = new_state
        self._last_enabled = enabled
        self.cycles += 1
        for net in self.ones:
            if values[net]:
                self.ones[net] += 1
        for net, count in step_counts.items():
            settled = 1 if values[net] != step_first[net] else 0
            self.glitches += count - settled
        self._settled_once = True
        return dict(values)

    # ------------------------------------------------------------------
    def glitch_report(self, vectors: Stimulus) -> Dict[str, float]:
        """Per-net glitch activity: event-driven minus zero-delay toggles.

        Runs both simulators — each on its engine-matched fast path —
        and returns toggles/cycle attributable to glitching for every
        net (always >= 0).
        """
        from repro.logic.simulate import collect_activity

        self.reset()
        timed = self.run(vectors)
        functional = collect_activity(self.circuit, vectors,
                                      engine=self.engine)
        report: Dict[str, float] = {}
        for net in self.circuit.nets:
            report[net] = max(
                0.0, timed.activity(net) - functional.activity(net))
        return report
