"""Compiled tick-wheel timed simulation (the fast timed engine).

:class:`~repro.logic.eventsim.EventSimulator`'s reference engine pops
one event at a time through per-gate dict traffic — the last
unaccelerated layer after fastsim's zero-delay engine.  This module
compiles the *whole timed schedule* ahead of time and then evaluates
N cycles bit-parallel, one bignum word per (net, tick):

- :func:`compile_timed` discretizes the cell library's transport
  delays onto the integer tick grid of
  :func:`repro.logic.eventsim.tick_grid` and levelizes the circuit
  into a *static* per-tick schedule: a gate is (re)evaluated at every
  tick at which any of its fan-in nets can change, and its output is
  applied ``delay_ticks`` later.  The schedule is lowered to one
  ``exec``-compiled straight-line function — a timing wheel whose
  slots are inlined apply/evaluate kernels on packed words.
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
:func:`timed_activity` is the standalone batch API with optional
multiprocessing sharding of long vector streams (lanes are
independent given the functional settle, so shards simply re-derive
their boundary state from the packed functional words and partial
reports merge by summation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic import fastsim
from repro.logic.fastsim import CompileError, PackedVectors, Stimulus
from repro.logic.netlist import Circuit

#: Straight-line kernel size cap: total scheduled applies+evaluations.
#: Past this the generated function stops being worth exec-compiling;
#: the dispatcher falls back to the reference engine.
_MAX_OPS = 60_000


@dataclass
class TimedPlan:
    """Compiled tick-wheel schedule for one circuit.

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
    n_ops: int                        # applies + evaluations in the kernel
    kernel: Callable[[List[int], List[int], List[int], int], int]


#: Artifact kind under which timed plans land in :mod:`repro.store`.
STORE_KIND = "fasttimer"


def _rehydrate_timed(circuit: Circuit, version: int,
                     payload: Dict[str, object]) -> Optional[TimedPlan]:
    """Rebuild a tick-wheel plan from a store payload, or ``None``.

    The kernels index slots positionally, so the payload's slot
    layout must match the functional plan bound to this circuit (it
    always does when both artifacts came from the same compile; a
    mismatch is treated as a miss and triggers a clean recompile).
    Payloads may carry entries this version no longer reads (older
    ones hold a second, lane-generic kernel); they are ignored.
    """
    try:
        func = fastsim.compile_circuit(circuit)
    except CompileError:
        return None
    if payload.get("nets") != func.nets:
        return None
    try:
        kernel = artifact_store.load_function(
            payload["kernel"], "__fasttimer_eval")
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
    except Exception:
        return None


def compile_timed(circuit: Circuit) -> TimedPlan:
    """Lower ``circuit`` to its tick-wheel plan.

    Cached like the zero-delay plan: on the circuit object, then in
    the content-addressed plan store (fingerprint-keyed, process-
    crossing with ``REPRO_STORE``), then compiled fresh and published
    back.
    """
    from repro.logic import eventsim

    plan = getattr(circuit, "_fasttimer_plan", None)
    version = getattr(circuit, "_version", 0)
    if isinstance(plan, TimedPlan) and plan.version == version:
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

        lines = ["def __fasttimer_eval(C, N, T, M):", "    EV = 0"]

        def emit_apply(s: int, src: str) -> None:
            lines.extend([f"    _v = {src}",
                          f"    _d = C[{s}] ^ _v",
                          "    if _d:",
                          "        _t = _d.bit_count()",
                          f"        T[{s}] += _t",
                          "        EV += _t",
                          f"        C[{s}] = _v"])

        emitted_pending = set()
        for tick in sorted(schedule):
            applies, evals = schedule[tick]
            # Phase 1: apply every value arriving at this tick
            # simultaneously; count the lanes in which it changes.
            for s in applies:
                emit_apply(s, f"N[{s}]" if tick == 0 else f"p{s}_{tick}")
            # Phase 2: evaluate affected gates once against the
            # updated values, topological order; zero-delay cells
            # apply inline so later gates in the tick see them.
            for gate in evals:
                s = slot[gate.output]
                expr = fastsim._expression(
                    gate.spec, [f"C[{slot[n]}]" for n in gate.inputs])
                d = grid.ticks[gate.output]
                if d == 0:
                    emit_apply(s, expr)
                else:
                    name = f"p{s}_{tick + d}"
                    if name in emitted_pending:
                        raise CompileError(
                            f"duplicate writer for net slot {s} at tick "
                            f"{tick + d}")
                    emitted_pending.add(name)
                    lines.append(f"    {name} = {expr}")
        lines.append("    return EV")
        namespace: Dict[str, object] = {}
        source = "\n".join(lines)
        code = compile(source, f"<fasttimer:{circuit.name}>", "exec")
        exec(code, namespace)

        n_ticks = max(schedule) if schedule else 0
        sp.set("gates", circuit.gate_count())
        sp.set("ticks", n_ticks)
        sp.set("ops", n_ops)
        obs.inc("fasttimer.compiles")

    plan = TimedPlan(
        circuit=circuit,
        version=version,
        func=func,
        quantum=grid.quantum,
        n_ticks=n_ticks,
        n_ops=n_ops,
        kernel=namespace["__fasttimer_eval"],  # type: ignore[arg-type]
    )
    quantum = Fraction(grid.quantum)
    st.put(fp, STORE_KIND, {
        "nets": func.nets,
        "quantum": [quantum.numerator, quantum.denominator],
        "n_ticks": n_ticks,
        "n_ops": n_ops,
        "kernel": artifact_store.code_blob(
            source, f"<fasttimer:{fp[:12]}>", code),
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
# Standalone batch API + multiprocessing sharding
# ----------------------------------------------------------------------
#: Lanes below which a shard is not worth a worker process.
_MIN_SHARD = 256


def _shard_slice(packed: PackedVectors, lo: int, hi: int) -> PackedVectors:
    m = (1 << (hi - lo)) - 1
    return PackedVectors(
        packed.names, hi - lo,
        {name: (w >> lo) & m for name, w in packed.words.items()})


def _timed_batch_star(args) -> BatchCounts:
    """Module-level worker target (must be picklable)."""
    return timed_batch(*args)


def timed_activity(circuit: Circuit, vectors: Stimulus,
                   workers: Optional[int] = None,
                   engine: Optional[str] = None):
    """Timed :class:`ActivityReport` for ``vectors`` from reset.

    Equivalent to ``EventSimulator(circuit, engine=engine).run(vectors)``
    on a fresh simulator.  ``engine`` is "fast" (the default) or
    "reference".  With ``workers > 1`` (fast engine only) the lanes
    are split into contiguous shards evaluated in parallel processes:
    each shard re-derives its boundary state from the packed
    functional settle, partial counts merge by summation, and the
    result is bit-identical to the serial run.
    """
    from repro.logic import gates as gatelib
    from repro.logic.eventsim import EventSimulator
    from repro.logic.simulate import ActivityReport, evaluate

    if not isinstance(vectors, PackedVectors):
        vecs = list(vectors)
        try:
            vectors = PackedVectors.from_vectors(circuit.inputs, vecs)
        except KeyError:
            # Unspecified inputs hold their value only in the
            # reference engine; let the simulator handle it.
            return EventSimulator(circuit, engine=engine).run(vecs)
    n = vectors.n
    resolved = resolve_engine(engine)
    if resolved == "reference" or not workers or workers <= 1 \
            or n < 2 * _MIN_SHARD:
        return EventSimulator(circuit, engine=resolved).run(vectors)

    try:
        plan = compile_timed(circuit)
        in_words, _ = fastsim._pack_inputs(circuit, vectors)
    except (CompileError, KeyError):
        return EventSimulator(circuit, engine=resolved).run(vectors)

    with obs.span("fasttimer.sharded", circuit=circuit.name,
                  workers=workers) as sp:
        func = plan.func
        nets = func.nets
        reset_state = {l.output: l.init for l in circuit.latches}
        reset_values = evaluate(
            circuit, {name: 0 for name in circuit.inputs}, reset_state)

        # One cheap functional pass gives every shard its boundary
        # conditions: the settled values just before its first lane
        # and the latch state entering it.
        settled = _settled_words(func, in_words, n, reset_state)

        n_shards = min(workers, max(1, n // _MIN_SHARD))
        bounds = [round(k * n / n_shards) for k in range(n_shards + 1)]
        jobs = []
        for k in range(n_shards):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == 0:
                prev, st = reset_values, reset_state
            else:
                prev = {net: (settled[i] >> (lo - 1)) & 1
                        for i, net in enumerate(nets)}
                st = {}
                for lp, latch in zip(func.latches, circuit.latches):
                    if lp.enable_slot >= 0 \
                            and not (settled[lp.enable_slot]
                                     >> (lo - 1)) & 1:
                        st[latch.output] = (settled[lp.out_slot]
                                            >> (lo - 1)) & 1
                    else:
                        st[latch.output] = (settled[lp.data_slot]
                                            >> (lo - 1)) & 1
            jobs.append((circuit, _shard_slice(vectors, lo, hi),
                         prev, st, lo == 0))

        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_shards) as pool:
            parts = list(pool.map(_timed_batch_star, jobs))

        toggles = {net: 0 for net in nets}
        ones = {net: 0 for net in nets}
        events = 0
        glitches = 0
        edges = 0
        for k, part in enumerate(parts):
            for net, t in part.toggles.items():
                if t:
                    toggles[net] += t
            for net, o in part.ones.items():
                if o:
                    ones[net] += o
            events += part.events
            glitches += part.glitches
            edges += part.latch_edges_lo
            if k + 1 < len(parts):
                # The shard's last cycle is interior to the full run,
                # so its pending clock edge is committed.
                edges += part.latch_edges_last

        caps = circuit.load_capacitances()
        switched = sum(caps[net] * t for net, t in toggles.items() if t)
        clock_cap = 0.0
        if circuit.latches and n > 1:
            clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * edges
        sp.add("lanes", n)
        sp.set("shards", n_shards)
    return ActivityReport(
        cycles=n,
        toggles=toggles,
        ones=ones,
        switched_capacitance=switched,
        clock_capacitance=clock_cap,
        events=events,
        glitches=glitches,
    )


def timed_activity_cached(circuit: Circuit, vectors: Stimulus,
                          workers: Optional[int] = None,
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
    ``workers`` affects only how a miss is computed — the report is
    bit-identical either way, so it is not part of the key.
    """
    from repro.logic.simulate import ActivityReport

    if not isinstance(vectors, PackedVectors):
        try:
            vectors = PackedVectors.from_vectors(circuit.inputs,
                                                 list(vectors))
        except KeyError:
            return timed_activity(circuit, vectors, workers=workers,
                                  engine=engine)
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
    report = timed_activity(circuit, vectors, workers=workers,
                            engine=resolved)
    st.put(key, artifact_store.ACTIVITY_KIND, artifact_store.pack_activity(
        report.cycles, circuit.nets, report.toggles, report.ones,
        report.switched_capacitance, report.clock_capacitance,
        events=report.events, glitches=report.glitches))
    return report
