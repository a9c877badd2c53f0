"""Bit-parallel compiled zero-delay simulation (the fast engine).

Every estimator in the framework bottoms out in zero-delay gate
evaluation; the scalar reference in :mod:`repro.logic.simulate` walks
the netlist one vector at a time through per-gate dict lookups.  This
module evaluates whole batches at once, in the spirit of the
hardware-accelerated estimators surveyed alongside the paper
(concurrent-cycle evaluation a la Coburn et al.):

- :func:`compile_circuit` lowers the cached topological gate order
  into a flat plan: integer-indexed net slots plus a generated,
  ``exec``-compiled straight-line Python function in which each gate
  is one bitwise operation on arbitrary-precision integers
  (AND/OR/NAND/NOR/XOR/XNOR/NOT/MUX...; anything else falls back to a
  synthesized truth-table expression),
- net values are *words*: bit ``i`` holds the net's value in vector
  (or cycle) ``i``, so a single pass over the plan evaluates the whole
  batch and ``int.bit_count()`` on ``cur ^ prev`` counts toggles,
- combinational circuits evaluate all N vectors in one pass (lanes);
  sequential circuits pack lanes along *time* and run in adaptive
  chunks, iterating the latch-update masks to a fixed point (a
  feed-forward pipeline converges in its register depth; feedback
  loops degrade gracefully to about one pass per cycle),
- :func:`collect_activity` reproduces the scalar engine's
  :class:`~repro.logic.simulate.ActivityReport` *bit-identically* —
  toggles, ones, switched and clock capacitance — which is what lets
  the high-level models keep the paper's relative-accuracy claims
  while running 20-50x faster.

The engine is selected through ``engine="fast"|"reference"`` on the
public entry points in :mod:`repro.logic.simulate`; circuits the
compiler cannot lower (a gate with more than 8 inputs, say) raise
:class:`CompileError` and the dispatcher silently falls back to the
scalar reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, Union

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic import gates as gatelib
from repro.logic.gates import GateSpec
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, Vector


class CompileError(Exception):
    """The circuit cannot be lowered to the bit-parallel plan."""


# ----------------------------------------------------------------------
# Packed stimulus
# ----------------------------------------------------------------------
@dataclass
class PackedVectors:
    """A batch of input vectors packed one-bit-per-vector.

    ``words[name]`` holds input ``name`` across the whole batch: bit
    ``i`` is the value in vector ``i``.  For sequential circuits the
    batch is interpreted as a time sequence (bit ``i`` = cycle ``i``),
    exactly like a list of per-cycle vector dicts.
    """

    names: List[str]
    n: int
    words: Dict[str, int]

    def __len__(self) -> int:
        return self.n

    def to_vectors(self) -> List[Vector]:
        """Unpack into the scalar engine's list-of-dicts form."""
        return [{name: (self.words[name] >> i) & 1 for name in self.names}
                for i in range(self.n)]

    def slice(self, lo: int, hi: int) -> "PackedVectors":
        """Cycles ``lo .. hi-1`` (clamped to the batch) as a new batch."""
        hi = max(0, min(hi, self.n))
        lo = max(0, min(lo, hi))
        m = (1 << (hi - lo)) - 1
        return PackedVectors(
            list(self.names), hi - lo,
            {name: (w >> lo) & m for name, w in self.words.items()})

    @classmethod
    def from_vectors(cls, names: Sequence[str],
                     vectors: Sequence[Vector]) -> "PackedVectors":
        words: Dict[str, int] = {}
        for name in names:
            w = 0
            bit = 1
            for vec in vectors:
                if vec[name]:
                    w |= bit
                bit <<= 1
            words[name] = w
        return cls(list(names), len(vectors), words)


def _bernoulli_word(rng: random.Random, n: int, p: float,
                    precision: int = 24) -> int:
    """n-bit word with independent Bernoulli(p) bits.

    p = 0.5 is a single ``getrandbits``; biased probabilities use
    threshold packing: combining ``precision`` uniform words digit by
    digit realizes any dyadic approximation of p without ever looping
    over individual bits.
    """
    if n <= 0:
        return 0
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return (1 << n) - 1
    if p == 0.5:
        return rng.getrandbits(n)
    q = round(p * (1 << precision))
    q = min(max(q, 1), (1 << precision) - 1)
    word = 0
    for j in range(precision):    # digits of q, least significant first
        r = rng.getrandbits(n)
        word = (word | r) if (q >> j) & 1 else (word & r)
    return word


def random_packed_vectors(inputs: Sequence[str], n: int,
                          seed: Optional[int] = None,
                          probs: Optional[Dict[str, float]] = None,
                          precision: int = 24) -> PackedVectors:
    """Packed counterpart of :func:`repro.logic.simulate.random_vectors`.

    Generates the batch directly as one bignum lane per input instead
    of building ``n`` per-vector dicts; ``probs`` gives per-input
    probabilities of 1 (default 0.5), realized to ``precision`` binary
    digits.  The random stream differs from ``random_vectors`` with
    the same seed (the two draw in different orders) but has the same
    statistics.
    """
    rng = random.Random(seed)
    probs = probs or {}
    words = {name: _bernoulli_word(rng, n, probs.get(name, 0.5), precision)
             for name in inputs}
    return PackedVectors(list(inputs), n, words)


def pack_streams(input_ports: Sequence[Tuple[str, int]],
                 streams: Sequence["object"],
                 length: Optional[int] = None) -> PackedVectors:
    """Pack word-level operand streams into per-bit input lanes.

    ``input_ports`` is the RTL component port list ((bus prefix,
    width) pairs); ``streams`` the matching word streams.  Column
    ``i`` of a stream becomes the lane of net ``f"{prefix}{i}"``.

    Streams carrying cached bit planes (:class:`~repro.rtl.streams.
    WordStream`) hand their lanes over directly — the per-cycle
    column scatter below only runs for plain word-list objects.
    """
    if length is None:
        length = min(len(s) for s in streams)
    lane_mask = (1 << length) - 1
    names: List[str] = []
    words: Dict[str, int] = {}
    for (prefix, width), stream in zip(input_ports, streams):
        planes = getattr(stream, "bit_planes", None)
        if planes is not None:
            lanes = planes().lanes
            columns = [(lanes[i] & lane_mask) if i < len(lanes) else 0
                       for i in range(width)]
        else:
            columns = [0] * width
            bit = 1
            for t in range(length):
                word = stream.words[t]
                if word:
                    for i in range(width):
                        if (word >> i) & 1:
                            columns[i] |= bit
                bit <<= 1
        for i in range(width):
            name = f"{prefix}{i}"
            names.append(name)
            words[name] = columns[i]
    return PackedVectors(names, length, words)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _truth_table_expression(spec: GateSpec, ins: List[str]) -> str:
    """Sum-of-minterms lowering for gate types without a kernel."""
    k = spec.n_inputs
    if k == 0:
        return "M" if spec.fn(()) else "0"
    if k > 8:
        raise CompileError(
            f"gate {spec.name!r} has {k} inputs; truth-table lowering "
            "is capped at 8")
    minterms = [m for m in range(1 << k)
                if spec.fn(tuple((m >> i) & 1 for i in range(k)))]
    if not minterms:
        return "0"
    if len(minterms) == 1 << k:
        return "M"
    invert = len(minterms) > (1 << (k - 1))
    if invert:
        minterms = [m for m in range(1 << k) if m not in set(minterms)]
    terms = []
    for m in minterms:
        lits = [ins[i] if (m >> i) & 1 else f"(M ^ {ins[i]})"
                for i in range(k)]
        terms.append("(" + " & ".join(lits) + ")")
    expr = "(" + " | ".join(terms) + ")"
    return f"(M ^ {expr})" if invert else expr


def _expression(spec: GateSpec, ins: List[str]) -> str:
    """Bitwise bignum expression computing the gate on packed words."""
    name = spec.name
    if name in ("AND2", "AND3", "AND4"):
        return "(" + " & ".join(ins) + ")"
    if name in ("OR2", "OR3", "OR4"):
        return "(" + " | ".join(ins) + ")"
    if name in ("NAND2", "NAND3", "NAND4"):
        return "(M ^ (" + " & ".join(ins) + "))"
    if name in ("NOR2", "NOR3", "NOR4"):
        return "(M ^ (" + " | ".join(ins) + "))"
    if name in ("XOR2", "XOR3"):
        return "(" + " ^ ".join(ins) + ")"
    if name == "XNOR2":
        return f"(M ^ ({ins[0]} ^ {ins[1]}))"
    if name == "INV":
        return f"(M ^ {ins[0]})"
    if name == "BUF":
        return ins[0]
    if name in ("MUX2", "TLATCH"):
        d0, d1, sel = ins
        return f"(({d0} & (M ^ {sel})) | ({d1} & {sel}))"
    if name == "AOI21":
        a, b, c = ins
        return f"(M ^ (({a} & {b}) | {c}))"
    if name == "CONST0":
        return "0"
    if name == "CONST1":
        return "M"
    return _truth_table_expression(spec, ins)


@dataclass
class _LatchPlan:
    data_slot: int
    out_slot: int
    enable_slot: int          # -1 when always enabled
    init: int
    clocked: bool


@dataclass
class CompiledCircuit:
    """Flat bit-parallel evaluation plan for one circuit.

    ``evaluate(V, M)`` fills the gate-output slots of slot-value list
    ``V`` (packed words) in topological order, where ``M`` is the
    all-lanes-set mask.  Plans are cached on the circuit and
    invalidated by structural mutation.
    """

    circuit: Circuit
    version: int
    nets: List[str]                     # circuit.nets order == slot order
    slot: Dict[str, int]
    input_slots: List[int]              # aligned with circuit.inputs
    output_slots: List[int]             # aligned with circuit.outputs
    latches: List[_LatchPlan]
    caps: List[float]                   # load capacitance per slot
    evaluate: Callable[[List[int], int], None]

    @property
    def n_slots(self) -> int:
        return len(self.nets)


#: Artifact kind under which plans land in :mod:`repro.store`.
STORE_KIND = "fastsim"


def _bind_plan(circuit: Circuit, version: int, nets: List[str],
               caps: List[float],
               evaluate: Callable[[List[int], int], None]
               ) -> CompiledCircuit:
    """Bind a generated kernel + slot layout to ``circuit``.

    The slot layout (``nets`` order) may come from a *different*
    circuit object with the same structure — input/output/latch slot
    indices are always rederived from the bound circuit by net name,
    which is what makes store-rehydrated plans construction-order
    independent.
    """
    slot = {net: i for i, net in enumerate(nets)}
    return CompiledCircuit(
        circuit=circuit,
        version=version,
        nets=nets,
        slot=slot,
        input_slots=[slot[n] for n in circuit.inputs],
        output_slots=[slot[n] for n in circuit.outputs],
        latches=[_LatchPlan(slot[l.data], slot[l.output],
                            slot[l.enable] if l.enable is not None else -1,
                            1 if l.init else 0, l.clocked)
                 for l in circuit.latches],
        caps=caps,
        evaluate=evaluate,
    )


def _rehydrate_plan(circuit: Circuit, version: int,
                    payload: Dict[str, object]
                    ) -> Optional[CompiledCircuit]:
    """Rebuild a compiled plan from a store payload, or ``None``.

    Any structural disagreement between the payload and the live
    circuit (possible only on a fingerprint collision or a corrupted
    entry) is treated as a plain miss.
    """
    nets = payload.get("nets")
    caps = payload.get("caps")
    if not isinstance(nets, list) or not isinstance(caps, list) \
            or len(nets) != len(caps):
        return None
    if len(nets) != len(circuit.nets) or set(nets) != set(circuit.nets):
        return None
    try:
        evaluate = artifact_store.load_function(
            payload["code"], "__fastsim_eval")
        return _bind_plan(circuit, version, list(nets),
                          [float(c) for c in caps], evaluate)
    except Exception:
        return None


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` to its bit-parallel plan.

    Three cache layers, cheapest first: the plan cached on the
    circuit object (invalidated by structural mutation), the
    content-addressed plan store keyed by
    :meth:`~repro.logic.netlist.Circuit.fingerprint` (shared across
    objects and — with ``REPRO_STORE`` — across processes), and a
    fresh compile, whose result is published back to the store.
    """
    plan = getattr(circuit, "_fastsim_plan", None)
    version = getattr(circuit, "_version", 0)
    if isinstance(plan, CompiledCircuit) and plan.version == version:
        return plan

    st = artifact_store.get_store()
    fp = circuit.fingerprint()
    payload = st.get(fp, STORE_KIND)
    if payload is not None:
        with obs.span("fastsim.rehydrate", circuit=circuit.name):
            plan = _rehydrate_plan(circuit, version, payload)
        if plan is not None:
            obs.inc("fastsim.rehydrates")
            circuit._fastsim_plan = plan
            return plan

    with obs.span("fastsim.compile", circuit=circuit.name) as sp:
        try:
            order = circuit.topological_gates()
        except ValueError as exc:
            raise CompileError(str(exc)) from exc
        nets = circuit.nets
        slot = {net: i for i, net in enumerate(nets)}

        lines = ["def __fastsim_eval(V, M):"]
        for gate in order:
            ins = [f"V[{slot[n]}]" for n in gate.inputs]
            lines.append(f"    V[{slot[gate.output]}] = "
                         f"{_expression(gate.spec, ins)}")
        if len(lines) == 1:
            lines.append("    pass")
        source = "\n".join(lines)
        code = compile(source, f"<fastsim:{circuit.name}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        sp.set("gates", len(order))
        sp.set("nets", len(nets))
        obs.inc("fastsim.compiles")

    caps_map = circuit.load_capacitances()
    plan = _bind_plan(circuit, version, nets,
                      [caps_map[n] for n in nets],
                      namespace["__fastsim_eval"])  # type: ignore[arg-type]
    st.put(fp, STORE_KIND, {
        "nets": plan.nets,
        "caps": plan.caps,
        "code": artifact_store.code_blob(
            source, f"<fastsim:{fp[:12]}>", code),
    })
    circuit._fastsim_plan = plan
    return plan


# ----------------------------------------------------------------------
# Packed evaluation
# ----------------------------------------------------------------------
Stimulus = Union[Sequence[Vector], PackedVectors]


def _pack_inputs(circuit: Circuit,
                 vectors: Stimulus) -> Tuple[List[int], int]:
    """Input words aligned with ``circuit.inputs``, plus batch size."""
    if isinstance(vectors, PackedVectors):
        return [vectors.words[name] for name in circuit.inputs], vectors.n
    words = []
    for name in circuit.inputs:
        w = 0
        bit = 1
        for vec in vectors:
            if vec[name]:
                w |= bit
            bit <<= 1
        words.append(w)
    return words, len(vectors)


#: Initial time-chunk length for sequential circuits; adapted upward
#: when the latch fixed point converges quickly (feed-forward designs)
#: and back down when it does not (tight feedback loops).
_CHUNK = 64
_CHUNK_MAX = 4096


def _iter_chunks(plan: CompiledCircuit, in_words: List[int], n_cycles: int,
                 initial_state: Optional[Dict[str, int]]
                 ) -> Iterator[Tuple[List[int], int, int, int]]:
    """Yield settled slot words chunk by chunk.

    Each item is ``(V, base, c, mask)``: ``V[slot]`` holds the net's
    packed values for cycles ``base .. base+c-1`` (bit ``t-base`` =
    cycle ``t``).  Combinational circuits produce a single chunk
    covering the whole batch; sequential circuits iterate the latch
    update masks to a fixed point per chunk (bits 0..k of every latch
    word are exact after k passes, so at most ``c+1`` passes settle a
    chunk of ``c`` cycles).
    """
    circuit = plan.circuit
    latches = plan.latches
    if initial_state is None:
        state = [lp.init for lp in latches]
    else:
        state = [1 if initial_state[l.output] else 0
                 for l in circuit.latches]

    evaluate = plan.evaluate
    chunk = n_cycles if not latches else _CHUNK
    base = 0
    while base < n_cycles:
        c = min(chunk, n_cycles - base)
        mask = (1 << c) - 1
        V = [0] * plan.n_slots
        for s, w in zip(plan.input_slots, in_words):
            V[s] = (w >> base) & mask

        if not latches:
            evaluate(V, mask)
            yield V, base, c, mask
            base += c
            continue

        q = list(state)           # bit 0 carries the incoming state
        nxt: List[int] = q
        iters = 0
        while True:
            for lp, qw in zip(latches, q):
                V[lp.out_slot] = qw
            evaluate(V, mask)
            nxt = []
            q2 = []
            for lp, sb in zip(latches, state):
                d = V[lp.data_slot] & mask
                if lp.enable_slot >= 0:
                    e = V[lp.enable_slot]
                    d = (d & e) | (V[lp.out_slot] & (mask ^ e))
                nxt.append(d)
                q2.append(((d << 1) & mask) | sb)
            iters += 1
            if q2 == q:
                break
            if iters > c + 2:     # cannot happen; guards the invariant
                raise RuntimeError(
                    "fastsim: latch fixed point failed to converge")
            q = q2
        yield V, base, c, mask
        state = [(d >> (c - 1)) & 1 for d in nxt]
        base += c
        if iters <= max(2, chunk // 8):
            chunk = min(chunk * 2, _CHUNK_MAX)
        elif iters > chunk // 2:
            chunk = max(_CHUNK, chunk // 2)


def collect_activity(circuit: Circuit, vectors: Stimulus,
                     initial_state: Optional[Dict[str, int]] = None
                     ) -> ActivityReport:
    """Bit-parallel activity collection.

    Produces an :class:`ActivityReport` bit-identical to the scalar
    reference (:func:`repro.logic.simulate.collect_activity` with
    ``engine="reference"``): same toggles, ones, switched and clock
    capacitance, including the cycles-vs-boundaries convention pinned
    in the report's docstring.
    """
    sp = obs.span("fastsim.collect_activity", circuit=circuit.name)
    with sp:
        plan = compile_circuit(circuit)
        in_words, n = _pack_inputs(circuit, vectors)

        n_slots = plan.n_slots
        toggles = [0] * n_slots
        ones = [0] * n_slots
        prev = [0] * n_slots
        enabled_latch_cycles = 0
        clocked_plain = sum(1 for lp in plan.latches
                            if lp.clocked and lp.enable_slot < 0)
        clocked_enable_slots = [lp.enable_slot for lp in plan.latches
                                if lp.clocked and lp.enable_slot >= 0]
        first = True
        n_chunks = 0
        for V, base, c, mask in _iter_chunks(plan, in_words, n,
                                             initial_state):
            n_chunks += 1
            first_mask = mask ^ 1 if first else mask
            for i in range(n_slots):
                w = V[i] & mask
                ones[i] += w.bit_count()
                d = (w ^ ((w << 1) | prev[i])) & first_mask
                toggles[i] += d.bit_count()
                prev[i] = (w >> (c - 1)) & 1
            if clocked_plain or clocked_enable_slots:
                # The clock toggles twice per counted cycle (all but
                # the last); load-enable latches sit behind a clock
                # gate and only see the clock when enabled.
                cmask = mask if base + c < n else mask >> 1
                enabled_latch_cycles += clocked_plain * cmask.bit_count()
                for es in clocked_enable_slots:
                    enabled_latch_cycles += (V[es] & cmask).bit_count()
            first = False

        switched = 0.0
        for i in range(n_slots):
            t = toggles[i]
            if t:
                switched += plan.caps[i] * t
        clock_cap = 0.0
        if circuit.latches and n > 1:
            clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * enabled_latch_cycles
        report = ActivityReport(
            cycles=n,
            toggles=dict(zip(plan.nets, toggles)),
            ones=dict(zip(plan.nets, ones)),
            switched_capacitance=switched,
            clock_capacitance=clock_cap,
        )
        sp.add("vectors", n)
        sp.add("chunks", n_chunks)
        sp.set("gates", circuit.gate_count())
    if obs.enabled():
        obs.inc("fastsim.vectors", n)
        if sp.duration > 0:
            obs.gauge("fastsim.vectors_per_s", round(n / sp.duration, 1))
    return report


def net_words(circuit: Circuit, vectors: Stimulus,
              nets: Optional[Sequence[str]] = None,
              initial_state: Optional[Dict[str, int]] = None
              ) -> Tuple[Dict[str, int], int]:
    """Packed per-net value words over the whole batch.

    Returns ``(words, n)`` where bit ``t`` of ``words[net]`` is the
    net's settled value in vector/cycle ``t``.  ``nets`` defaults to
    every net.
    """
    plan = compile_circuit(circuit)
    in_words, n = _pack_inputs(circuit, vectors)
    wanted = list(nets) if nets is not None else plan.nets
    slots = [plan.slot[net] for net in wanted]
    acc = [0] * len(slots)
    for V, base, c, mask in _iter_chunks(plan, in_words, n, initial_state):
        for j, s in enumerate(slots):
            acc[j] |= (V[s] & mask) << base
    return dict(zip(wanted, acc)), n


def net_words_engine(circuit: Circuit, vectors: Stimulus,
                     nets: Optional[Sequence[str]] = None,
                     initial_state: Optional[Dict[str, int]] = None,
                     engine: Optional[str] = None
                     ) -> Tuple[Dict[str, int], int]:
    """:func:`net_words` behind the standard engine dispatch.

    ``engine`` follows the framework convention: ``"fast"`` or
    ``"reference"`` (``None`` takes the default), with fast falling
    back to the reference for circuits it cannot compile.  Both
    produce bit-identical lanes; the reference path packs a
    scalar-simulation trace and exists so incremental re-estimation
    can cross-check against the slowest, most-trusted engine too.
    """
    if resolve_engine(engine) == "fast":
        try:
            return net_words(circuit, vectors, nets=nets,
                             initial_state=initial_state)
        except CompileError:
            pass
    vecs = vectors.to_vectors() if isinstance(vectors, PackedVectors) \
        else list(vectors)
    from repro.logic.simulate import simulate as scalar_simulate
    trace = scalar_simulate(circuit, vecs, initial_state)
    wanted = list(nets) if nets is not None else circuit.nets
    words = {net: 0 for net in wanted}
    for t, values in enumerate(trace):
        bit = 1 << t
        for net in wanted:
            if values[net]:
                words[net] |= bit
    return words, len(vecs)


def lane_counts(word: int, n: int) -> Tuple[int, int, int]:
    """Activity counts of one packed net lane over ``n`` cycles.

    Returns ``(ones, toggles, last)`` under the framework's pinned
    normalization: ``ones`` over all ``n`` cycles, ``toggles`` over
    the ``n - 1`` cycle boundaries (bit 0 has no predecessor), plus
    the final-cycle bit (used to count enable assertions over cycles
    ``0..n-2`` for clock-capacitance accounting).  Matches
    :func:`collect_activity`'s chunked accumulation exactly.
    """
    if n <= 0:
        return 0, 0, 0
    mask = (1 << n) - 1
    w = word & mask
    ones = w.bit_count()
    toggles = ((w ^ (w << 1)) & mask & ~1).bit_count()
    last = (w >> (n - 1)) & 1
    return ones, toggles, last


def stimulus_fingerprint(vectors: "PackedVectors") -> str:
    """Content hash of a packed stimulus (hex, stable, memoized).

    Covers the batch length and every input lane (order-insensitive:
    names are hashed sorted).  Together with a cone fingerprint and an
    engine name it keys the per-cone activity cache; it is also the
    stimulus half of :func:`repro.store.activity_key`.  Memoized on
    the object — ``PackedVectors`` is immutable by convention.
    """
    cached = getattr(vectors, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256(b"stimulus/1\x00")
    h.update(str(vectors.n).encode("ascii"))
    for name in sorted(vectors.words):
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
        h.update(b"=")
        h.update(_lane_bytes(vectors.words[name], vectors.n))
    digest = h.hexdigest()
    vectors._fingerprint = digest
    return digest


def input_lane_hashes(vectors: "PackedVectors") -> Dict[str, bytes]:
    """Per-input digest of each stimulus lane, memoized on the object.

    The incremental engine mixes into each cone's cache key only the
    lane hashes of the inputs in that cone's support, so editing (or
    re-deriving) one input stream invalidates exactly the cones that
    can observe it.
    """
    cached = getattr(vectors, "_lane_hashes", None)
    if cached is not None:
        return cached
    hashes = {
        name: hashlib.sha256(_lane_bytes(vectors.words[name], vectors.n)
                             ).digest()
        for name in vectors.words
    }
    vectors._lane_hashes = hashes
    return hashes


def _lane_bytes(word: int, n: int) -> bytes:
    return (word & ((1 << n) - 1)).to_bytes((n + 7) // 8 or 1, "little")


def output_trace(circuit: Circuit, vectors: Stimulus,
                 initial_state: Optional[Dict[str, int]] = None
                 ) -> List[Vector]:
    """Primary-output values per cycle (fast engine)."""
    words, n = net_words(circuit, vectors, nets=circuit.outputs,
                         initial_state=initial_state)
    return [{o: (words[o] >> t) & 1 for o in circuit.outputs}
            for t in range(n)]


def evaluate_packed(circuit: Circuit, vectors: Stimulus,
                    state: Optional[Dict[str, int]] = None
                    ) -> Dict[str, int]:
    """Packed analogue of :func:`repro.logic.simulate.evaluate`.

    One combinational settle of the whole batch: every lane sees the
    same latch state (``state`` or the latch initial values) — no
    clock edges are simulated.  Returns per-net packed words.
    """
    plan = compile_circuit(circuit)
    in_words, n = _pack_inputs(circuit, vectors)
    mask = (1 << n) - 1
    V = [0] * plan.n_slots
    for s, w in zip(plan.input_slots, in_words):
        V[s] = w & mask
    for lp, latch in zip(plan.latches, circuit.latches):
        bit = state[latch.output] if state is not None else latch.init
        V[lp.out_slot] = mask if bit else 0
    plan.evaluate(V, mask)
    return {net: V[i] & mask for i, net in enumerate(plan.nets)}
