"""Table-driven tick-wheel timed simulation (the fast timed engine).

:class:`~repro.logic.eventsim.EventSimulator`'s reference engine pops
one event at a time through per-gate dict traffic.  This module
schedules the *whole timed evolution* ahead of time and then evaluates
N cycles bit-parallel, one bignum word per (net, tick):

- :func:`compile_timed` discretizes the cell library's transport
  delays onto the integer tick grid of
  :func:`repro.logic.eventsim.tick_grid` and levelizes the circuit
  into a *static* per-tick schedule: a gate is (re)evaluated at every
  tick at which any of its fan-in nets can change, and its output is
  applied ``delay_ticks`` later.
- The schedule is lowered to a *plan table*, plain data: per tick, the
  slots applied and the pending word each one reads, the zero-delay
  gates (topological order, applied inline) and the delayed gates
  grouped by cell type, each group one flat list of ``input slots...,
  pending index`` rows.  One fixed interpreter walks the table; each
  cell type gets one group evaluator, shared with the zero-delay plan
  (:func:`repro.logic.fastsim.group_evaluator`) and cached by its
  source text.  No per-design code is generated, so a never-seen
  design costs a table build, not a ``compile()`` of a kernel.
- The table is also the artifact-store payload (JSON, no code), so
  pool workers (search sweeps, the estimation service) rehydrate
  data: every index and cell type is validated before binding, and a
  payload that fails (including one holding a compiled kernel from an
  older version) is a counted miss followed by a rebuild.
- The key observation that makes lanes independent: the *settled*
  value of every net in a cycle is delay-free (equal to the
  zero-delay evaluation), so fastsim's packed functional simulation
  supplies each lane's start and end values and the timed evolution
  of cycle ``t`` never couples to cycle ``t+1``.  Bit ``i`` of every
  kernel word therefore replays cycle ``i``'s waveform, and
  ``int.bit_count()`` tallies toggles, glitches and events with
  popcounts instead of per-event Python.
- The static schedule evaluates a superset of the dynamic engine's
  gate evaluations; the extra evaluations see unchanged inputs and
  apply unchanged outputs, so every counter stays bit-identical to
  the reference (the equivalence suite in ``tests/test_fasttimer.py``
  checks this per net).

:func:`timed_batch` runs one batch and returns raw
:class:`BatchCounts` for ``EventSimulator`` to merge;
:func:`timed_activity` is the standalone batch API and
:func:`timed_activity_cached` its run-level memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic import fastsim
from repro.logic.fastsim import CompileError, PackedVectors, Stimulus
from repro.logic.netlist import Circuit, _specs_current

#: Schedule size cap: total scheduled applies+evaluations.  It bounds
#: the plan table (one entry per operation) and the pending words one
#: kernel call holds (at most one per delayed evaluation, each as wide
#: as the batch); past it the dispatcher falls back to the reference
#: engine.
_MAX_OPS = 60_000


@dataclass
class TimedPlan:
    """Tick-wheel schedule for one circuit, bound to the interpreter.

    ``kernel(C, N, T, M)`` advances one packed window: ``C`` holds the
    per-slot start-value words (cycle-start state of every lane), ``N``
    the per-slot settled words (the functional values the lanes settle
    to; only root slots are read), ``T`` the per-slot toggle
    accumulators and ``M`` the lane mask.  It mutates ``C`` to the
    settled values, adds every applied value change into ``T`` and
    returns the total number of applied changes (events).
    """

    circuit: Circuit
    version: int
    func: fastsim.CompiledCircuit     # zero-delay plan (slots, caps...)
    quantum: object                   # Fraction; tick length in delay units
    n_ticks: int                      # schedule horizon (last apply tick)
    n_ops: int                        # applies + evaluations in the table
    kernel: Callable[[List[int], List[int], List[int], int], int]


#: Artifact kind under which timed plans land in :mod:`repro.store`.
STORE_KIND = "fasttimer"


# ----------------------------------------------------------------------
# Plan table: build, bind, interpret
# ----------------------------------------------------------------------
def _plan_table(schedule: Dict[int, Tuple[List[int], List]],
                slot: Dict[str, int], delays: Dict[str, int]
                ) -> Tuple[list, int]:
    """Lower the tick schedule to ``(table, n_pending)``.

    One table entry per scheduled tick, ``[tick, applies, zero,
    groups]``:

    - ``applies``: ``[slot, k]`` pairs applied simultaneously; ``k``
      indexes the settled words ``N`` at tick 0 and the pending words
      ``P`` at every later tick;
    - ``zero``: zero-delay gates in topological order, each
      ``[type, [in..., k], slot]``: evaluated into ``P[k]`` and applied
      at once, so later gates in the tick see the new value;
    - ``groups``: the delayed gates, ``[type, rows]`` with ``rows`` the
      flat ``in..., k`` list of the group's gates.  They read ``C`` and
      write ``P`` only, so the order inside a group does not matter and
      running them after the zero-delay gates changes nothing.

    Pending indices are recycled once their word has been applied, so
    ``n_pending`` is the peak number of words in flight.
    """
    table = []
    pending: Dict[Tuple[int, int], int] = {}   # (slot, apply tick) -> k
    free: List[int] = []
    n_pending = 0

    def take() -> int:
        nonlocal n_pending
        if free:
            return free.pop()
        n_pending += 1
        return n_pending - 1

    for tick in sorted(schedule):
        slots, evals = schedule[tick]
        if tick == 0:
            applies = [[s, s] for s in slots]
        else:
            applies = [[s, pending.pop((s, tick))] for s in slots]
            free.extend(k for _, k in applies)
        zero: list = []
        groups: Dict[str, list] = {}
        for gate in evals:
            s = slot[gate.output]
            d = delays[gate.output]
            k = take()
            row = [slot[n] for n in gate.inputs] + [k]
            if d == 0:
                zero.append([gate.gate_type, row, s])
                free.append(k)
                continue
            if (s, tick + d) in pending:
                raise CompileError(
                    f"duplicate writer for net slot {s} at tick "
                    f"{tick + d}")
            pending[(s, tick + d)] = k
            groups.setdefault(gate.gate_type, []).extend(row)
        table.append([tick, applies, zero,
                      [[t, rows] for t, rows in groups.items()]])
    return table, n_pending


def _bind_table(table: list, n_slots: int, n_pending: int) -> Callable:
    """Validate ``table`` and bind it to the interpreter as a kernel.

    Every slot index must be below ``n_slots``, every pending index
    below ``n_pending``, every cell type must resolve, and every row
    list must hold whole rows (one for a zero-delay gate); anything
    else raises (a store rehydrate turns that into a miss), so a bound
    kernel never indexes out of range.  Zero-delay gates split their
    tick into steps: a step applies, then evaluates, and each
    zero-delay gate's apply opens the next step.
    """
    if type(n_pending) is not int or not 0 <= n_pending <= _MAX_OPS:
        raise ValueError(f"bad pending count {n_pending!r}")
    evaluators: Dict[str, Tuple[int, Callable]] = {}
    slots: List[int] = []          # indices into C and T (N at tick 0)
    pends: List[int] = []          # indices into P

    def group(gate_type: str, rows: list, single: bool = False
              ) -> Tuple[Callable, list]:
        if gate_type not in evaluators:
            evaluators[gate_type] = fastsim.group_evaluator(gate_type)
        arity, fn = evaluators[gate_type]
        width = arity + 1
        if type(rows) is not list or len(rows) % width \
                or (single and len(rows) != width):
            raise ValueError(f"{gate_type} rows: bad length")
        for j in range(arity):
            slots.extend(rows[j::width])
        pends.extend(rows[arity::width])
        return fn, rows

    steps = []
    for tick, applies, zero, groups in table:
        reads_n = tick == 0
        for s, k in applies:
            slots.append(s)
            (slots if reads_n else pends).append(k)
        for gate_type, row, s in zero:
            steps.append((reads_n, applies,
                          [group(gate_type, row, single=True)]))
            slots.append(s)
            reads_n, applies = False, [[s, row[-1]]]
        steps.append((reads_n, applies,
                      [group(gate_type, rows) for gate_type, rows in groups]))
    fastsim.check_indices(slots, n_slots)
    fastsim.check_indices(pends, n_pending)
    return partial(_interpret, steps, n_pending)


def _interpret(steps: list, n_pending: int, C: List[int], N: List[int],
               T: List[int], M: int) -> int:
    """The tick-wheel kernel: walk the bound plan table once."""
    P = [0] * n_pending
    EV = 0
    for reads_n, applies, groups in steps:
        # Phase 1: apply every value arriving at this step at once;
        # count the lanes in which it changes.
        src = N if reads_n else P
        for s, k in applies:
            v = src[k]
            d = C[s] ^ v
            if d:
                t = d.bit_count()
                T[s] += t
                EV += t
                C[s] = v
        # Phase 2: evaluate the affected gates against the updated
        # values.
        for fn, rows in groups:
            fn(C, P, rows, M)
    return EV


def _rehydrate_timed(circuit: Circuit, version: int,
                     payload: Dict[str, object]) -> Optional[TimedPlan]:
    """Rebuild a tick-wheel plan from a store payload, or ``None``.

    The table indexes slots positionally, so the payload's slot layout
    must match the functional plan bound to this circuit (it always
    does when both artifacts came from the same compile).  A mismatch,
    a table that fails validation, or a payload without a table (older
    versions stored a compiled kernel instead) is a miss.
    """
    try:
        func = fastsim.compile_circuit(circuit)
    except CompileError:
        return None
    if payload.get("nets") != func.nets:
        return None
    try:
        kernel = _bind_table(payload["table"], func.n_slots,
                             payload["n_pending"])
        num, den = payload["quantum"]
        return TimedPlan(
            circuit=circuit,
            version=version,
            func=func,
            quantum=Fraction(int(num), int(den)),
            n_ticks=int(payload["n_ticks"]),
            n_ops=int(payload["n_ops"]),
            kernel=kernel,
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            CompileError):
        return None


def compile_timed(circuit: Circuit) -> TimedPlan:
    """Lower ``circuit`` to its tick-wheel plan.

    Cached like the zero-delay plan: on the circuit object (until a
    structural mutation or a new registration of a cell it bound),
    then in the content-addressed plan store (fingerprint-keyed,
    process-crossing with ``REPRO_STORE``), then built fresh and
    published back.
    """
    from repro.logic import eventsim

    plan = getattr(circuit, "_fasttimer_plan", None)
    version = getattr(circuit, "_version", 0)
    if isinstance(plan, TimedPlan) and plan.version == version \
            and _specs_current(plan.func.specs):
        return plan

    st = artifact_store.get_store()
    fp = circuit.fingerprint()
    payload = st.get(fp, STORE_KIND)
    if payload is not None:
        with obs.span("fasttimer.rehydrate", circuit=circuit.name):
            plan = _rehydrate_timed(circuit, version, payload)
        if plan is not None:
            obs.inc("fasttimer.rehydrates")
            circuit._fasttimer_plan = plan
            return plan
        obs.inc("fasttimer.rehydrate_misses")

    with obs.span("fasttimer.compile", circuit=circuit.name) as sp:
        func = fastsim.compile_circuit(circuit)    # raises CompileError
        grid = eventsim.tick_grid(circuit)
        slot = func.slot
        order = circuit.topological_gates()

        # Arrival ticks: the set of ticks at which a net can change.
        # Roots (primary inputs and latch outputs) change only at the
        # cycle boundary, tick 0; a gate output changes delay_ticks
        # after any tick at which the gate is evaluated, and the gate
        # is evaluated whenever any fan-in can change.
        arrivals: Dict[str, frozenset] = {n: frozenset((0,))
                                          for n in circuit.inputs}
        for latch in circuit.latches:
            arrivals[latch.output] = frozenset((0,))
        # schedule[tick] = (applies, evals): slots applied at the tick
        # and gates evaluated at it (both in topological order).
        schedule: Dict[int, Tuple[List[int], List]] = {}

        def at(tick: int) -> Tuple[List[int], List]:
            entry = schedule.get(tick)
            if entry is None:
                entry = schedule[tick] = ([], [])
            return entry

        for s in (slot[n] for n in circuit.inputs):
            at(0)[0].append(s)
        for latch in circuit.latches:
            at(0)[0].append(slot[latch.output])

        n_ops = len(circuit.inputs) + len(circuit.latches)
        for gate in order:
            eval_ticks: set = set()
            for name in gate.inputs:
                eval_ticks |= arrivals.get(name, frozenset())
            d = grid.ticks[gate.output]
            arrivals[gate.output] = frozenset(t + d for t in eval_ticks)
            n_ops += 2 * len(eval_ticks) if d else len(eval_ticks)
            if n_ops > _MAX_OPS:
                raise CompileError(
                    f"timed schedule for {circuit.name!r} exceeds "
                    f"{_MAX_OPS} operations")
            for t in sorted(eval_ticks):
                at(t)[1].append(gate)
                if d:
                    at(t + d)[0].append(slot[gate.output])

        table, n_pending = _plan_table(schedule, slot, grid.ticks)
        kernel = _bind_table(table, func.n_slots, n_pending)
        n_ticks = max(schedule) if schedule else 0
        sp.set("gates", circuit.gate_count())
        sp.set("ticks", n_ticks)
        sp.set("ops", n_ops)
        sp.set("pending", n_pending)
        obs.inc("fasttimer.compiles")

    plan = TimedPlan(
        circuit=circuit,
        version=version,
        func=func,
        quantum=grid.quantum,
        n_ticks=n_ticks,
        n_ops=n_ops,
        kernel=kernel,
    )
    quantum = Fraction(grid.quantum)
    st.put(fp, STORE_KIND, {
        "nets": func.nets,
        "quantum": [quantum.numerator, quantum.denominator],
        "n_ticks": n_ticks,
        "n_ops": n_ops,
        "n_pending": n_pending,
        "table": table,
    })
    circuit._fasttimer_plan = plan
    return plan

# ----------------------------------------------------------------------
# Batch evaluation
# ----------------------------------------------------------------------
@dataclass
class BatchCounts:
    """Raw timed counters for one batch, ready to merge.

    Counted (non-settling) lanes feed ``toggles``/``glitches``; every
    lane feeds ``ones``/``events``.  ``latch_edges_lo`` is the enabled
    clocked-latch count summed over all batch cycles but the last;
    ``latch_edges_last`` the count in the final cycle (committed by
    the merger once a later cycle exists — the zero-delay clock-edge
    convention).
    """

    n: int
    toggles: Dict[str, int]
    ones: Dict[str, int]
    events: int
    glitches: int
    latch_edges_lo: int
    latch_edges_last: int
    final_values: Dict[str, int]
    final_state: Dict[str, int]


def _settled_words(plan: fastsim.CompiledCircuit, in_words: List[int],
                   n: int, state: Optional[Dict[str, int]]) -> List[int]:
    """Per-slot packed functional values over the whole batch."""
    settled = [0] * plan.n_slots
    for V, base, c, mask in fastsim._iter_chunks(plan, in_words, n, state):
        for i in range(plan.n_slots):
            w = V[i] & mask
            if w:
                settled[i] |= w << base
    return settled


def timed_batch(circuit: Circuit, vectors: Stimulus,
                prev_values: Dict[str, int],
                state: Optional[Dict[str, int]],
                settling_first: bool) -> BatchCounts:
    """Run one packed timed batch.

    ``prev_values`` gives every net's value before the first cycle
    (each lane's waveform starts from the previous cycle's settled
    values); ``state`` the latch state entering the first cycle.
    With ``settling_first`` the first lane only establishes initial
    values: it contributes ``events``/``ones`` but not
    ``toggles``/``glitches``, exactly like the reference engine's
    settling step.
    """
    plan = compile_timed(circuit)
    func = plan.func
    try:
        in_words, n = fastsim._pack_inputs(circuit, vectors)
    except KeyError as exc:
        # The reference engine lets unspecified inputs hold their
        # previous value; the packed path cannot, so defer to it.
        raise CompileError(f"stimulus missing input {exc}") from exc

    nets = func.nets
    empty = {net: 0 for net in nets}
    if n == 0:
        return BatchCounts(0, dict(empty), dict(empty), 0, 0, 0, 0,
                           dict(prev_values), dict(state or {}))

    with obs.span("fasttimer.batch", circuit=circuit.name) as sp:
        settled = _settled_words(func, in_words, n, state)
        mask_n = (1 << n) - 1
        start = [((settled[i] << 1)
                  | (1 if prev_values[net] else 0)) & mask_n
                 for i, net in enumerate(nets)]

        n_slots = func.n_slots
        toggles = [0] * n_slots
        events = 0
        glitches = 0
        lo = 1 if settling_first else 0

        if settling_first:
            # Settling lane: events only, scratch toggle accumulators.
            C0 = [w & 1 for w in start]
            N0 = [w & 1 for w in settled]
            events += plan.kernel(C0, N0, [0] * n_slots, 1)
        if lo < n:
            wmask = (1 << (n - lo)) - 1
            C = [(w >> lo) & wmask for w in start]
            N = [(w >> lo) & wmask for w in settled]
            events += plan.kernel(C, N, toggles, wmask)
            for i in range(n_slots):
                boundary = ((settled[i] ^ start[i]) >> lo) & wmask
                glitches += toggles[i] - boundary.bit_count()

        ones = [(settled[i] & mask_n).bit_count() for i in range(n_slots)]

        plain = 0
        edges_lo = 0
        edges_last = 0
        for lp, latch in zip(func.latches, circuit.latches):
            if not lp.clocked:
                continue
            if lp.enable_slot < 0:
                plain += 1
            else:
                e = settled[lp.enable_slot]
                edges_lo += (e & (mask_n >> 1)).bit_count()
                edges_last += (e >> (n - 1)) & 1
        edges_lo += plain * (n - 1)
        edges_last += plain

        last = n - 1
        final_values = {net: (settled[i] >> last) & 1
                        for i, net in enumerate(nets)}
        final_state: Dict[str, int] = {}
        for lp, latch in zip(func.latches, circuit.latches):
            if lp.enable_slot >= 0 \
                    and not (settled[lp.enable_slot] >> last) & 1:
                final_state[latch.output] = (settled[lp.out_slot]
                                             >> last) & 1
            else:
                final_state[latch.output] = (settled[lp.data_slot]
                                             >> last) & 1

        sp.add("lanes", n)
        sp.set("ops", plan.n_ops)
    if obs.enabled():
        obs.inc("fasttimer.lanes", n)
        if sp.duration > 0:
            # Packed-word throughput: kernel ops times lanes per wall
            # second — the engine's native work unit.
            obs.gauge("fasttimer.words_per_s",
                      round(plan.n_ops * n / sp.duration, 1))

    return BatchCounts(
        n=n,
        toggles=dict(zip(nets, toggles)),
        ones=dict(zip(nets, ones)),
        events=events,
        glitches=glitches,
        latch_edges_lo=edges_lo,
        latch_edges_last=edges_last,
        final_values=final_values,
        final_state=final_state,
    )


# ----------------------------------------------------------------------
# Standalone batch API
# ----------------------------------------------------------------------
def timed_activity(circuit: Circuit, vectors: Stimulus,
                   engine: Optional[str] = None):
    """Timed :class:`ActivityReport` for ``vectors`` from reset.

    The report of ``EventSimulator(circuit, engine=engine).run(vectors)``
    on a fresh simulator; ``engine`` is "fast" (the default) or
    "reference".
    """
    from repro.logic.eventsim import EventSimulator

    return EventSimulator(circuit, engine=engine).run(vectors)


def timed_activity_cached(circuit: Circuit, vectors: Stimulus,
                          engine: Optional[str] = None):
    """Memoized :func:`timed_activity` (whole-run granularity).

    Timed reports cannot be spliced per cone the way zero-delay
    activity can — glitch waveforms on a dirty region's boundary nets
    are not recoverable from settled lanes — so the incremental story
    for the timed engine is run-level memoization: results are stored
    in the shared :class:`~repro.store.ArtifactStore` (kind
    ``"activity"``, schema ``repro.activity/1``) keyed by circuit
    fingerprint, stimulus fingerprint, resolved engine, and batch
    length.  Optimization sweeps that re-evaluate structurally
    identical candidates (retiming's plain-vs-smart cuts, repeated
    probes of one pipeline level) hit instead of resimulating; a
    corrupt or wrong-schema entry degrades to a plain rerun.  Every
    hit returns a *fresh* report (callers mutate reports in place).
    """
    from repro.logic.simulate import ActivityReport

    if not isinstance(vectors, PackedVectors):
        try:
            vectors = PackedVectors.from_vectors(circuit.inputs,
                                                 list(vectors))
        except KeyError:
            return timed_activity(circuit, vectors, engine=engine)
    n = vectors.n
    resolved = resolve_engine(engine)
    key = artifact_store.activity_key(
        circuit.fingerprint(), fastsim.stimulus_fingerprint(vectors),
        f"timed/{resolved}", n)
    st = artifact_store.get_store()
    decoded = artifact_store.unpack_activity(
        st.get(key, artifact_store.ACTIVITY_KIND))
    if decoded is not None and decoded["cycles"] == n \
            and set(decoded["nets"]) == set(circuit.nets):
        if obs.enabled():
            obs.inc("fasttimer.run_memo_hits")
        return ActivityReport(
            cycles=n,
            toggles=dict(decoded["toggles"]),
            ones=dict(decoded["ones"]),
            switched_capacitance=decoded["switched"],
            clock_capacitance=decoded["clock"],
            events=decoded["events"],
            glitches=decoded["glitches"],
        )
    report = timed_activity(circuit, vectors, engine=resolved)
    st.put(key, artifact_store.ACTIVITY_KIND, artifact_store.pack_activity(
        report.cycles, circuit.nets, report.toggles, report.ones,
        report.switched_capacitance, report.clock_capacitance,
        events=report.events, glitches=report.glitches))
    return report
