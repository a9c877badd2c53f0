"""Bit-parallel zero-delay simulation (the fast engine).

Every estimator in the framework bottoms out in zero-delay gate
evaluation; the scalar reference in :mod:`repro.logic.simulate` walks
the netlist one vector at a time through per-gate dict lookups.  This
module evaluates whole batches at once, in the spirit of the
hardware-accelerated estimators surveyed alongside the paper
(concurrent-cycle evaluation a la Coburn et al.):

- net values are *words*: bit ``i`` holds the net's value in vector
  (or cycle) ``i``, so one pass over the plan evaluates the whole
  batch and ``int.bit_count()`` on ``cur ^ prev`` counts toggles,
- :func:`compile_circuit` lowers the netlist to a *plan table*, plain
  data: integer net slots, and the gates grouped by logic level and
  cell type, each group one flat ``in_0, ..., in_{k-1}, out`` row
  list.  One fixed interpreter walks the table, calling one group
  evaluator per cell type (:func:`group_evaluator`; each gate is one
  bitwise operation on arbitrary-precision integers, anything without
  a hand-written kernel a synthesized truth-table expression).  The
  evaluators are generated once per process and shared with
  :mod:`repro.logic.fasttimer`, so a never-seen design costs a table
  build, and the table is also the store payload,
- combinational circuits evaluate all N vectors in one pass (lanes);
  sequential circuits pack lanes along *time*, and their latches are
  settled over the whole batch by the latch graph's strongly connected
  components (:func:`_settled`): a latch in no loop is a delay, a
  single-latch loop an affine recurrence over GF(2) solved by a
  doubling scan, and a small multi-latch loop (an FSM state register)
  a walk of its next-state table.  Loops too wide to walk fall back to
  adaptive time chunks that iterate the latch-update masks to a fixed
  point (about one pass per cycle on tight feedback),
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
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, Union

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic import gates as gatelib
from repro.logic.gates import GateSpec
from repro.logic.netlist import Circuit, _specs_current, _tarjan_sccs
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
# Cell expressions and group evaluators
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
    """Bitwise bignum expression computing the gate on packed words.

    The hand-written kernels are the shipped cells' functions; a cell
    registered again under a shipped name lowers through its own
    truth table.
    """
    name = spec.name
    if spec is not gatelib.BUILTIN.get(name):
        return _truth_table_expression(spec, ins)
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


#: Group evaluators, keyed by their generated source text rather than
#: by cell name, so a cell name registered again with another function
#: never runs the stale expression.
_EVALUATORS: Dict[str, Callable] = {}

#: cell type -> (the library entry it was looked up for, arity, fn):
#: a bind skips regenerating the source while the entry is current.
_BOUND: Dict[str, Tuple[GateSpec, int, Callable]] = {}


def group_evaluator(gate_type: str) -> Tuple[int, Callable]:
    """``(arity, fn)`` for ``gate_type``'s group evaluator.

    ``fn(R, W, rows, M)`` evaluates the cell on packed words for every
    gate of the flat row list ``rows`` (``in_0, ..., in_{k-1}, out``
    repeated per gate): it reads ``R[in_j]`` and writes ``W[out]``.
    The zero-delay plan passes one slot list as both; the timed
    engine reads current values and writes pending ones.  Raises
    ``KeyError`` for an unknown cell and :class:`CompileError` when
    the cell cannot be lowered.
    """
    spec = gatelib.gate_spec(gate_type)
    hit = _BOUND.get(gate_type)
    if hit is not None and hit[0] is spec:
        return hit[1], hit[2]
    names = [f"i{j}" for j in range(spec.n_inputs)] + ["o"]
    expr = _expression(spec, [f"R[{n}]" for n in names[:-1]])
    if spec.n_inputs:
        loop = (f"    it = iter(rows)\n"
                f"    for {', '.join(names)} in "
                f"zip({', '.join(['it'] * len(names))}):\n")
    else:
        loop = "    for o in rows:\n"
    source = f"def _group(R, W, rows, M):\n{loop}        W[o] = {expr}\n"
    fn = _EVALUATORS.get(source)
    if fn is None:
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<group:{gate_type}>", "exec"), namespace)
        fn = _EVALUATORS[source] = namespace["_group"]  # type: ignore
    _BOUND[gate_type] = (spec, spec.n_inputs, fn)
    return spec.n_inputs, fn


def check_indices(values: List[int], limit: int) -> None:
    """Raise ``ValueError`` unless every value is an ``int`` in
    ``[0, limit)`` (plan-table validation, shared with the timed
    engine)."""
    if values and (set(map(type, values)) != {int}
                   or not 0 <= min(values) <= max(values) < limit):
        raise ValueError(f"plan index outside [0, {limit})")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass
class _LatchPlan:
    data_slot: int
    out_slot: int
    enable_slot: int          # -1 when always enabled
    init: int
    clocked: bool


@dataclass
class CompiledCircuit:
    """Bit-parallel evaluation plan for one circuit.

    ``evaluate(V, M)`` fills the gate-output slots of slot-value list
    ``V`` (packed words) in level order, where ``M`` is the
    all-lanes-set mask.  Plans are cached on the circuit and
    invalidated by structural mutation, or when a cell they bound is
    registered again (``specs``).
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
    table: list                         # [[cell type, rows], ...]
    fns: List[Callable]                 # each group's evaluator
    specs: Dict[str, Optional[GateSpec]]   # library entries bound
    settle: Optional["_Settle"] = None  # latch graph, built on demand

    @property
    def n_slots(self) -> int:
        return len(self.nets)


#: Artifact kind under which plans land in :mod:`repro.store`.
STORE_KIND = "fastsim"


def _evaluate(fns: List[Callable], table: list, V: List[int],
              M: int) -> None:
    """The zero-delay interpreter: walk the bound table once.  The
    table is the store payload's, unwrapped: binding adds only the
    evaluator list, so a plan holds no per-group objects of its own."""
    for fn, group in zip(fns, table):
        fn(V, V, group[1], M)


def _plan_table(circuit: Circuit, slot: Dict[str, int]) -> list:
    """Lower the topological order to ``[[cell type, rows], ...]``.

    Gates are grouped by logic level (roots are level 0, a gate one
    above its deepest input) and, within a level, by cell type in
    first-seen order; ``rows`` is the flat ``in..., out`` list of the
    group's gates.  Gates of one level never read each other, so any
    order inside a group evaluates the same words.
    """
    level = [0] * len(slot)
    groups: Dict[Tuple[int, str], List[int]] = {}
    for gate in circuit.topological_gates():
        ins = [slot[n] for n in gate.inputs]
        out = slot[gate.output]
        lv = level[out] = 1 + max(map(level.__getitem__, ins), default=0)
        key = (lv, gate.gate_type)
        rows = groups.get(key)
        if rows is None:
            rows = groups[key] = []
        rows += ins
        rows.append(out)
    ordered = sorted(groups.items(), key=lambda item: item[0][0])
    return [[gate_type, rows] for (_, gate_type), rows in ordered]


def _bind_plan(circuit: Circuit, version: int, nets: List[str],
               caps: List[float], table: list) -> CompiledCircuit:
    """Validate a plan table and bind it, with a slot layout, to
    ``circuit``.

    Every index must be an ``int`` slot, every cell type must resolve,
    and every group's length must be a multiple of its row width;
    anything else raises (a store rehydrate turns that into a miss).
    The slot layout (``nets`` order) may come from a *different*
    circuit object with the same structure — input/output/latch slot
    indices are always rederived from the bound circuit by net name,
    which is what makes store-rehydrated plans construction-order
    independent.
    """
    n_slots = len(nets)
    evaluators: Dict[str, Tuple[int, Callable]] = {}
    fns: List[Callable] = []
    for gate_type, rows in table:
        if gate_type not in evaluators:
            evaluators[gate_type] = group_evaluator(gate_type)
        arity, fn = evaluators[gate_type]
        if type(rows) is not list or len(rows) % (arity + 1):
            raise ValueError(f"{gate_type} group: bad row length")
        check_indices(rows, n_slots)
        fns.append(fn)
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
        evaluate=partial(_evaluate, fns, table),
        table=table,
        fns=fns,
        specs={t: gatelib.LIBRARY.get(t) for t in evaluators},
    )


def _rehydrate_plan(circuit: Circuit, version: int,
                    payload: Dict[str, object]
                    ) -> Optional[CompiledCircuit]:
    """Rebind a plan table from a store payload, or ``None``.

    A payload without a valid table (including the compiled kernels
    older versions stored) or any structural disagreement with the
    live circuit (possible only on a fingerprint collision or a
    corrupted entry) is a miss.
    """
    nets = payload.get("nets")
    caps = payload.get("caps")
    if not isinstance(nets, list) or not isinstance(caps, list) \
            or len(nets) != len(caps) or len(nets) != len(circuit.nets):
        return None
    try:
        if set(nets) != set(circuit.nets):
            return None
        return _bind_plan(circuit, version, list(nets),
                          [float(c) for c in caps], payload["table"])
    except (KeyError, TypeError, ValueError, CompileError):
        return None


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` to its bit-parallel plan.

    Three cache layers, cheapest first: the plan cached on the
    circuit object (invalidated by structural mutation and by a new
    registration of a cell it bound), the content-addressed plan
    store keyed by :meth:`~repro.logic.netlist.Circuit.fingerprint`
    (shared across objects and — with ``REPRO_STORE`` — across
    processes), and a fresh table build, whose result is published
    back to the store.
    """
    plan = getattr(circuit, "_fastsim_plan", None)
    version = getattr(circuit, "_version", 0)
    if isinstance(plan, CompiledCircuit) and plan.version == version \
            and _specs_current(plan.specs):
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
        obs.inc("fastsim.rehydrate_misses")

    with obs.span("fastsim.compile", circuit=circuit.name) as sp:
        nets = circuit.nets
        slot = {net: i for i, net in enumerate(nets)}
        try:
            table = _plan_table(circuit, slot)
        except ValueError as exc:
            raise CompileError(str(exc)) from exc
        caps_map = circuit.load_capacitances()
        caps = [caps_map[n] for n in nets]
        plan = _bind_plan(circuit, version, nets, caps, table)
        sp.set("gates", circuit.gate_count())
        sp.set("nets", len(nets))
        obs.inc("fastsim.compiles")
    circuit._fastsim_plan = plan
    st.put(fp, STORE_KIND, {"nets": nets, "caps": caps, "table": table})
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


# ----------------------------------------------------------------------
# Settling latches by the latch graph
# ----------------------------------------------------------------------
#: A multi-latch loop walks its next-state table when the table has at
#: most ``2**_WALK_BITS`` entries and no more than
#: ``_WALK_LANES_PER_CYCLE`` per batch cycle; a wider loop sends the
#: batch to the chunked fixed point.
_WALK_BITS = 16
_WALK_LANES_PER_CYCLE = 64


@dataclass
class _Level:
    """One level of the latch graph's component DAG.

    Its components read only latches of earlier levels (and
    themselves), so they settle together, over the whole batch, once
    every earlier level has.  ``evaluate`` runs just the gates their
    data and enable nets read.
    """

    evaluate: Callable[[List[int], int], None]
    delay: List[int]        # latches in no loop, without enable
    affine: List[int]       # single-latch loops
    walks: List[Tuple[List[int], List[int]]]   # (latches, support slots)


@dataclass
class _Settle:
    levels: List[_Level]
    evaluates: int          # whole-batch evaluates the levels cost
    walk_bits: int          # widest next-state table (0 without walks)
    paths: Dict[str, int]   # latches per settle path (obs counters)


def _latch_graph(plan: CompiledCircuit) -> _Settle:
    """Levelize the strongly connected components of the latch graph.

    Latch ``i`` depends on latch ``j`` when ``j``'s output is in the
    fanin of ``i``'s data or enable net; a latch with an enable also
    depends on itself (it holds its value).  Supports are root
    bitmasks (latch ``i`` is bit ``i``, input ``k`` bit
    ``len(latches) + k``) computed over the next-state cones only.
    """
    latches = plan.latches
    n_latches = len(latches)
    reads: Dict[int, List[int]] = {}
    where: Dict[int, Tuple[int, int]] = {}
    for g, (gate_type, rows) in enumerate(plan.table):
        width = group_evaluator(gate_type)[0] + 1
        for j in range(0, len(rows), width):
            out = rows[j + width - 1]
            reads[out] = rows[j:j + width - 1]
            where[out] = (g, j)
    roots = [lp.out_slot for lp in latches] + plan.input_slots

    def cone(starts: List[int], seen: Dict[int, int]) -> List[int]:
        """Gate slots in the fanin of ``starts`` not yet in ``seen``,
        each entered into ``seen`` with its root support."""
        found = []
        stack = list(starts)
        while stack:
            s = stack[-1]
            if s in seen:
                stack.pop()
                continue
            ins = reads.get(s)
            if ins is None:       # a net nothing drives
                seen[s] = 0
                continue
            todo = [i for i in ins if i not in seen]
            if todo:
                stack.extend(todo)
                continue
            m = 0
            for i in ins:
                m |= seen[i]
            seen[s] = m
            found.append(s)
            stack.pop()
        return found

    def next_state(i: int) -> List[int]:
        lp = latches[i]
        return [lp.data_slot] if lp.enable_slot < 0 \
            else [lp.data_slot, lp.enable_slot]

    support = {s: 1 << b for b, s in enumerate(roots)}
    masks = []
    for i in range(n_latches):
        starts = next_state(i)
        cone(starts, support)
        m = 1 << i if latches[i].enable_slot >= 0 else 0
        for s in starts:
            m |= support[s]
        masks.append(m)
    latch_bits = (1 << n_latches) - 1
    deps = {i: tuple(_bits(m & latch_bits)) for i, m in enumerate(masks)}

    by_level: Dict[int, _Level] = {}
    level_of: Dict[int, int] = {}
    walk_bits = 0
    for scc in _tarjan_sccs(deps):
        members = set(scc)
        lv = 1 + max((level_of[j] for i in scc for j in deps[i]
                      if j not in members), default=-1)
        level = by_level.get(lv)
        if level is None:
            level = by_level[lv] = _Level(_evaluate, [], [], [])
        for i in scc:
            level_of[i] = lv
        if len(scc) > 1:
            m = 0
            for i in scc:
                m |= masks[i]
            for i in scc:
                m &= ~(1 << i)
            level.walks.append((sorted(scc),
                                [roots[b] for b in _bits(m)]))
            walk_bits = max(walk_bits, m.bit_count() + len(scc))
        elif masks[scc[0]] >> scc[0] & 1:
            level.affine.append(scc[0])
        else:
            level.delay.append(scc[0])

    levels = [by_level[lv] for lv in sorted(by_level)]
    evaluates = 1
    for level in levels:
        starts = [s for i in level.delay + level.affine
                  + [i for scc, _ in level.walks for i in scc]
                  for s in next_state(i)]
        gates = cone(starts, dict.fromkeys(roots, 0))
        level.evaluate = partial(_evaluate,
                                 *_sub_table(plan, where, gates))
        evaluates += 2 if level.affine else 1
    paths = {"delay": sum(len(lv.delay) for lv in levels),
             "affine": sum(len(lv.affine) for lv in levels),
             "walk": sum(len(scc) for lv in levels for scc, _ in lv.walks)}
    return _Settle(levels, evaluates, walk_bits, paths)


def _bits(m: int) -> List[int]:
    """Indices of the set bits of ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _sub_table(plan: CompiledCircuit, where: Dict[int, Tuple[int, int]],
               outs: List[int]) -> Tuple[List[Callable], list]:
    """``(fns, table)`` of the plan's rows that write ``outs``, in
    table order."""
    fns: List[Callable] = []
    table: list = []
    last = -1
    for g, j in sorted(where[o] for o in outs):
        gate_type, rows = plan.table[g]
        if g != last:
            last = g
            fns.append(plan.fns[g])
            table.append([gate_type, []])
        table[-1][1].extend(rows[j:j + group_evaluator(gate_type)[0] + 1])
    return fns, table


def _next_words(plan: CompiledCircuit, V: List[int], mask: int,
                latches: List[int]) -> List[int]:
    """Each latch's next-state word from evaluated slot words."""
    out = []
    for i in latches:
        lp = plan.latches[i]
        d = V[lp.data_slot] & mask
        if lp.enable_slot >= 0:
            e = V[lp.enable_slot]
            d = (d & e) | (V[lp.out_slot] & (mask ^ e))
        out.append(d)
    return out


def _affine_word(a: int, b: int, q0: int, n: int) -> int:
    """Latch word of ``q[t+1] = b[t] ^ (a[t] & q[t])`` from ``q[0] = q0``.

    A doubling prefix composition of the per-cycle affine maps: after
    the pass with shift ``s``, bit ``t`` of ``(a, b)`` maps ``q`` at
    cycle ``t - 2s + 1`` (or 0) to ``q`` at cycle ``t + 1``.
    """
    s = 1
    while s < n - 1:
        b ^= a & (b << s)
        a &= (a << s) | ((1 << s) - 1)
        s <<= 1
    return ((((a if q0 else 0) ^ b) << 1) | q0) & ((1 << n) - 1)


def _variable(j: int, k: int) -> int:
    """Truth-table lane word of variable ``j`` of ``k``: bit ``r`` is
    bit ``j`` of ``r``."""
    period = 2 << j
    unit = ((1 << (1 << j)) - 1) << (1 << j)
    return unit * (((1 << (1 << k)) - 1) // ((1 << period) - 1))


def _walk(plan: CompiledCircuit, level: _Level, V: List[int], n: int,
          scc: List[int], roots: List[int], state: List[int]) -> None:
    """Settle a multi-latch loop by walking its next-state table.

    One evaluate on ``2**k`` truth-table lanes (the roots, then the
    loop's latches) gives the table; numpy packs each cycle's root
    values into a code, a Python loop walks the states, and each
    latch's word is packed back.
    """
    import numpy as np

    ns = len(roots)
    k = ns + len(scc)
    lanes = 1 << k
    tmask = (1 << lanes) - 1
    W = [0] * plan.n_slots
    for j, s in enumerate(roots + [plan.latches[i].out_slot for i in scc]):
        W[s] = _variable(j, k)
    level.evaluate(W, tmask)
    nbytes = (lanes + 7) // 8
    table = np.zeros(lanes, dtype=np.int64)
    for i, word in enumerate(_next_words(plan, W, tmask, scc)):
        bits = np.unpackbits(np.frombuffer(word.to_bytes(nbytes, "little"),
                                           dtype=np.uint8),
                             count=lanes, bitorder="little")
        table |= bits.astype(np.int64) << (ns + i)
    codes = np.zeros(n, dtype=np.int64)
    nbytes = (n + 7) // 8
    for j, s in enumerate(roots):
        bits = np.unpackbits(np.frombuffer(V[s].to_bytes(nbytes, "little"),
                                           dtype=np.uint8),
                             count=n, bitorder="little")
        codes |= bits.astype(np.int64) << j
    step = table.tolist()
    q = 0
    for j, i in enumerate(scc):
        q |= state[i] << (ns + j)
    states = []
    append = states.append
    for c in codes.tolist():
        append(q)
        q = step[c | q]
    walked = np.array(states, dtype=np.int64)
    for j, i in enumerate(scc):
        bits = ((walked >> (ns + j)) & 1).astype(np.uint8)
        V[plan.latches[i].out_slot] = int.from_bytes(
            np.packbits(bits, bitorder="little").tobytes(), "little")


def _settled(plan: CompiledCircuit, in_words: List[int], n: int,
             state: List[int]) -> Optional[List[int]]:
    """Slot words of a sequential batch settled level by level, or
    ``None`` when the chunked fixed point is the cheaper (or the only)
    way: the batch is shorter than the evaluates the levels cost, or
    a loop's next-state table is too wide for it."""
    settle = plan.settle
    if settle is None:
        settle = plan.settle = _latch_graph(plan)
    if n < settle.evaluates or (settle.walk_bits and (
            settle.walk_bits > _WALK_BITS
            or 1 << settle.walk_bits > _WALK_LANES_PER_CYCLE * n)):
        return None
    mask = (1 << n) - 1
    V = [0] * plan.n_slots
    for s, w in zip(plan.input_slots, in_words):
        V[s] = w & mask
    latches = plan.latches
    for level in settle.levels:
        if level.affine or level.delay:
            for i in level.affine:
                V[latches[i].out_slot] = 0
            level.evaluate(V, mask)
            data = [V[latches[i].data_slot] for i in level.delay]
            if level.affine:
                b = _next_words(plan, V, mask, level.affine)
                for i in level.affine:
                    V[latches[i].out_slot] = mask
                level.evaluate(V, mask)
                f1 = _next_words(plan, V, mask, level.affine)
                for i, b0, b1 in zip(level.affine, b, f1):
                    V[latches[i].out_slot] = _affine_word(
                        b0 ^ b1, b0, state[i], n)
            for i, d in zip(level.delay, data):
                V[latches[i].out_slot] = ((d << 1) | state[i]) & mask
        for scc, roots in level.walks:
            _walk(plan, level, V, n, scc, roots, state)
    plan.evaluate(V, mask)
    if obs.enabled():
        for path, count in settle.paths.items():
            if count:
                obs.inc(f"fastsim.settle.{path}", count)
    return V


#: Initial time-chunk length of the fixed point for sequential
#: circuits; adapted upward when the latch fixed point converges
#: quickly (feed-forward designs) and back down when it does not
#: (tight feedback loops).
_CHUNK = 64
_CHUNK_MAX = 4096


def _iter_chunks(plan: CompiledCircuit, in_words: List[int], n_cycles: int,
                 initial_state: Optional[Dict[str, int]]
                 ) -> Iterator[Tuple[List[int], int, int, int]]:
    """Yield settled slot words chunk by chunk.

    Each item is ``(V, base, c, mask)``: ``V[slot]`` holds the net's
    packed values for cycles ``base .. base+c-1`` (bit ``t-base`` =
    cycle ``t``).  Combinational circuits, and sequential ones the
    latch graph settles (:func:`_settled`), produce a single chunk
    covering the whole batch; otherwise the latch update masks
    iterate to a fixed point per chunk (bits 0..k of every latch word
    are exact after k passes, so at most ``c+1`` passes settle a chunk
    of ``c`` cycles).
    """
    circuit = plan.circuit
    latches = plan.latches
    if initial_state is None:
        state = [lp.init for lp in latches]
    else:
        state = [1 if initial_state[l.output] else 0
                 for l in circuit.latches]
    if latches and n_cycles:
        V = _settled(plan, in_words, n_cycles, state)
        if V is not None:
            yield V, 0, n_cycles, (1 << n_cycles) - 1
            return
        if obs.enabled():
            obs.inc("fastsim.settle.fixed_point", len(latches))

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
        if c == n:
            # One chunk: skip the OR into zeros, which copies every
            # word (3,220 nets at 32,768 cycles, 2 vCPUs: 14.7 -> 11.3 ms).
            acc = [V[s] & mask for s in slots]
            break
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
    w = word if 0 <= word and word.bit_length() <= n \
        else word & ((1 << n) - 1)
    ones = w.bit_count()
    last = (w >> (n - 1)) & 1
    # Bit i of w ^ (w >> 1) is w[i] ^ w[i+1] for i < n - 1, and the
    # last bit itself at i = n - 1.
    toggles = (w ^ (w >> 1)).bit_count() - last
    return ones, toggles, last


def stimulus_fingerprint(vectors: "PackedVectors") -> str:
    """Content hash of a packed stimulus (hex, stable, memoized).

    Covers the batch length and every input lane (order-insensitive:
    names are hashed sorted).  It is the stimulus half of
    :func:`repro.store.activity_key`.  Memoized on the object —
    ``PackedVectors`` is immutable by convention.
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
