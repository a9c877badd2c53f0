"""Gate-level circuit representation.

A :class:`Circuit` is a named collection of nets driven by primary
inputs, gates, or latches (edge-triggered D flip-flops).  The class
maintains fanout maps and provides topological ordering, capacitance
accounting, and structural statistics used by every estimator in the
framework.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic import gates as gatelib
from repro.logic.gates import GateSpec, gate_spec


@dataclass(slots=True)
class Gate:
    """Instance of a library cell driving net ``output``."""

    name: str
    gate_type: str
    inputs: List[str]
    output: str

    @property
    def spec(self) -> GateSpec:
        return gate_spec(self.gate_type)


@dataclass(slots=True)
class Latch:
    """Edge-triggered D flip-flop: samples ``data`` into ``output``.

    An optional ``enable`` net turns the flop into a load-enable
    register: when the enable net settles to 0, the flop holds its
    value *and its local clock is gated off* (an integrated
    clock-gating cell is assumed; the enable pin presents
    ``gates.DFF_ENABLE_CAP`` of load).
    """

    name: str
    data: str
    output: str
    init: int = 0
    enable: Optional[str] = None
    #: False models a level-sensitive transparent latch controlled by
    #: ``enable`` alone: it presents no clock-tree load at all (used by
    #: guarded evaluation's guard latches).
    clocked: bool = True


class Circuit:
    """A combinational or sequential gate-level netlist."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: List[Gate] = []
        self.latches: List[Latch] = []
        self._driver: Dict[str, object] = {}
        self._reserved: Set[str] = set()
        self._topo_cache: Optional[List[Gate]] = None
        self._fanout_cache: Optional[
            Dict[str, List[Tuple[object, int]]]] = None
        self._caps_cache: Optional[Dict[str, float]] = None
        self._fastsim_plan: Optional[object] = None
        self._fasttimer_plan: Optional[object] = None
        self._tick_grid: Optional[object] = None
        self._fingerprint_cache: Optional[Tuple[int, str]] = None
        self._nets_cache: Optional[Tuple[int, List[str]]] = None
        #: Last cone structure computed (or inherited from the parent
        #: of a clone) and the version it is current for; after an
        #: edit it is the base the next cone query diffs against.
        self._cone_snap: Optional[_ConeStructure] = None
        self._cone_snap_version: int = -1
        self._version: int = 0

    def invalidate(self) -> None:
        """Drop all derived caches after a structural mutation.

        The construction methods call this automatically; code that
        mutates gates or latches in place (rewiring ``gate.inputs``,
        setting ``latch.enable``, ...) must call it explicitly so the
        cached topological order, fanout map, load capacitances, and
        compiled simulation plan are rebuilt.  The last cone structure
        is kept as the base the next cone query diffs against (see
        :meth:`cone_fingerprints`).
        """
        self._topo_cache = None
        self._fanout_cache = None
        self._caps_cache = None
        self._fastsim_plan = None
        self._fasttimer_plan = None
        self._tick_grid = None
        self._version += 1

    def __getstate__(self) -> Dict[str, object]:
        """Drop derived caches for pickling.

        The compiled simulation plans hold ``exec``-generated
        functions that cannot cross process boundaries; pool workers
        (search sweeps, the estimation service) rehydrate them from
        the content-addressed plan store (:mod:`repro.store`) or
        rebuild them from the structural state.  The structural
        fingerprint *does* survive pickling — it is a plain string,
        and carrying it saves every worker one canonicalization pass.
        The cone structure does not: it is the largest derived state,
        and one pass rebuilds it where it is needed.
        """
        state = self.__dict__.copy()
        state["_topo_cache"] = None
        state["_fanout_cache"] = None
        state["_caps_cache"] = None
        state["_fastsim_plan"] = None
        state["_fasttimer_plan"] = None
        state["_tick_grid"] = None
        state["_nets_cache"] = None
        state["_cone_snap"] = None
        return state

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the circuit's structure (hex, stable).

        Covers exactly what the compiled artifacts depend on: the net
        names and their drivers (gates with their cell types and input
        order, latches with data/enable/init/clocking), the primary
        input/output sets, and the library parameters (delays,
        capacitances) of every cell type used, with a digest of its
        truth table where that differs from the function shipped
        under its name (so a built-in-only circuit hashes as it
        always has, and a cell registered again with another
        function gets a new key).  Deliberately
        *excluded*: the circuit and instance names, the order in which
        gates/latches/inputs were added (the description is
        canonicalized by sorting on driven nets), and every derived
        cache — so the fingerprint is identical across construction
        orders, pickle round-trips, and process boundaries.  It keys
        the content-addressed plan store (:mod:`repro.store`).
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        h = hashlib.sha256()
        for part in self._structural_parts():
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        digest = h.hexdigest()
        self._fingerprint_cache = (self._version, digest)
        return digest

    def _structural_parts(self) -> Iterable[str]:
        """Canonical structural description, one string per element."""
        yield "circuit/1"
        yield "in:" + ",".join(sorted(self.inputs))
        yield "out:" + ",".join(sorted(self.outputs))
        for g in sorted(self.gates, key=lambda g: g.output):
            yield f"g:{g.gate_type}:{','.join(g.inputs)}>{g.output}"
        for l in sorted(self.latches, key=lambda l: l.output):
            yield (f"l:{l.data}>{l.output}:{l.init}:"
                   f"{l.enable or ''}:{int(l.clocked)}")
        # Library parameters the compiled plans bake in: per-cell
        # delay/caps/area for every cell type used, the flop pin
        # loads, and the statistical wire-load model.
        for gate_type in sorted({g.gate_type for g in self.gates}):
            spec = gate_spec(gate_type)
            yield (f"spec:{gate_type}:{spec.n_inputs}:{spec.delay!r}:"
                   f"{spec.input_cap!r}:{spec.output_cap!r}:"
                   f"{spec.area!r}{_function_token(gate_type)}")
        if self.latches:
            yield ("dff:"
                   f"{gatelib.DFF_INPUT_CAP!r}:{gatelib.DFF_OUTPUT_CAP!r}:"
                   f"{gatelib.DFF_CLOCK_CAP!r}:{gatelib.DFF_ENABLE_CAP!r}:"
                   f"{gatelib.DFF_AREA!r}")
        yield ("wire:"
               + ":".join(repr(gatelib.wire_capacitance(k))
                          for k in (0, 1, 2, 4, 8)))

    # ------------------------------------------------------------------
    # Cone identity (incremental re-estimation)
    # ------------------------------------------------------------------
    def _cone_graph(self) -> Tuple[Dict[str, Tuple[str, ...]],
                                   Dict[str, str], Dict[str, str]]:
        """Net dependency graph, the cell type of every gate-driven
        net, and the canonical line of every latch-driven one.

        Edges point from a net to the nets its driver reads (a latch
        reads its data and, when present, its enable).  Nets that are
        referenced but never driven are registered as free inputs so
        malformed circuits still hash instead of raising here.
        """
        deps: Dict[str, Tuple[str, ...]] = {}
        types: Dict[str, str] = {}
        latch_lines: Dict[str, str] = {}
        for net in self.inputs:
            deps[net] = ()
        for g in self.gates:
            deps[g.output] = tuple(g.inputs)
            types[g.output] = g.gate_type
        for l in self.latches:
            deps[l.output] = ((l.data,) if l.enable is None
                              else (l.data, l.enable))
            latch_lines[l.output] = _latch_line(l)
        for net, read in list(deps.items()):
            for d in read:
                if d not in deps:
                    deps[d] = ()
        return deps, types, latch_lines

    def cone_fingerprints(self) -> Dict[str, str]:
        """Per-net structural hash of the net's transitive fanin cone.

        Two nets (in the same or different circuits) get equal cone
        fingerprints exactly when the logic driving them is identical:
        same driver cell/latch, same *net names* on every pin, and
        recursively the same cones on every fanin — closed over latch
        feedback (a feedback strongly-connected component is hashed as
        a unit, so editing anywhere inside a loop dirties the whole
        loop).  A cell's function counts as in :meth:`fingerprint`,
        and a structure hashed before a cell was registered again is
        rebuilt, never reused or derived from.  Unlike
        :meth:`fingerprint`, net names *matter* here:
        the incremental engine matches cones between a base circuit
        and an edited clone by name, so a renamed net is a different
        cone.  Library capacitances are deliberately excluded — cached
        lane values depend only on the logic function; switched
        capacitance is recomputed against the variant's own loads.

        Computed in one pass together with :meth:`cone_supports` and
        cached until the next structural mutation.  A clone starts
        from its parent's structure, and the first query after an
        edit diffs every driver against the last structure: when no
        read set, input or net changed, only the changed nets and
        their transitive fanout are rehashed.
        """
        return self._cone_structure().fps

    def cone_supports(self) -> Dict[str, int]:
        """Per-net primary-input support, as a bitmask over ``inputs``.

        Bit ``i`` of the mask for a net is set when ``self.inputs[i]``
        is in the net's transitive fanin (closed over latch feedback).
        The incremental engine combines this with per-input stimulus
        lane hashes so a cone's cache key only depends on the inputs
        it can actually observe.  Shares its pass (and its reuse after
        an edit) with :meth:`cone_fingerprints`.
        """
        return self._cone_structure().supports

    def _cone_structure(self) -> "_ConeStructure":
        """The cone structure of the circuit as it is now.

        Reuses the last structure when nothing it covers changed,
        derives from it when only cell types or latch lines changed,
        and otherwise runs the full one-pass build.
        """
        snap = getattr(self, "_cone_snap", None)
        if snap is not None and not _specs_current(snap.specs):
            snap = None             # a cell was registered again since
        if snap is not None and self._cone_snap_version == self._version:
            return snap
        changed = self._changed_drivers(snap) if snap is not None else None
        if changed is None:
            snap = _ConeStructure.build(tuple(self.inputs), self._net_list(),
                                        len(self.latches),
                                        *self._cone_graph())
        elif changed[0] or changed[1]:
            snap = snap.derive(*changed)
        self._cone_snap = snap
        self._cone_snap_version = self._version
        return snap

    def _changed_drivers(self, snap: "_ConeStructure"
                         ) -> Optional[Tuple[Dict[str, str],
                                             Dict[str, str]]]:
        """``(new cell types, new latch lines)`` of the drivers that
        changed since ``snap``.

        ``None`` when more than that changed: the inputs, the nets
        (or their order, which fixes the order caps sum consumers
        in), or any read set.  The cheap checks come first, so a
        circuit that gained or lost nets pays almost nothing here.
        """
        nets = self._net_list()
        if (tuple(self.inputs) != snap.inputs
                or len(self.latches) != snap.n_latches
                or nets != snap.nets):
            return None
        reads, types, latch_lines = snap.reads, snap.types, snap.latch_lines
        new_types: Dict[str, str] = {}
        for g in self.gates:
            out = g.output
            if tuple(g.inputs) != reads[out]:
                return None
            if g.gate_type != types[out]:
                new_types[out] = g.gate_type
        new_lines: Dict[str, str] = {}
        for l in self.latches:
            read = (l.data,) if l.enable is None else (l.data, l.enable)
            if read != reads[l.output]:
                return None
            line = _latch_line(l)
            if line != latch_lines[l.output]:
                new_lines[l.output] = line
        return new_types, new_lines

    def diff_nets(self, other: "Circuit") -> Set[str]:
        """Nets whose driving cones differ between ``self`` and ``other``.

        Matches nets by name across the union of both net sets (a net
        present on only one side always differs).  Because cone
        fingerprints close over transitive fanin and latch feedback,
        the result already contains the full fanin-side closure of
        every edit; apply :meth:`transitive_fanout` to get the dirty
        region for resimulation.
        """
        a = self.cone_fingerprints()
        b = other.cone_fingerprints()
        return {net for net in set(a) | set(b)
                if a.get(net) != b.get(net)}

    def transitive_fanout(self, nets: Iterable[str]) -> Set[str]:
        """Seed nets plus everything reachable through consuming cells.

        Follows gate inputs and latch data/enable pins, so the closure
        crosses register boundaries (an edit feeding a flop dirties
        the flop output and everything it feeds, around feedback
        loops until a fixed point).  Primary-output membership adds
        nothing — pads consume, they don't drive.
        """
        fanout = self.fanout_map()
        seen: Set[str] = set()
        stack = [n for n in nets]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            for consumer, _pin in fanout.get(net, ()):
                if isinstance(consumer, (Gate, Latch)):
                    out = consumer.output
                    if out not in seen:
                        stack.append(out)
        return seen

    def extract_cone(self, nets: Iterable[str],
                     name: Optional[str] = None
                     ) -> Tuple["Circuit", List[str]]:
        """Sub-circuit re-driving ``nets``; returns ``(sub, boundary)``.

        Every gate/latch whose output is in ``nets`` is replicated
        verbatim (same instance and net names, same relative order, so
        compiled-plan iteration order and latch init values are
        preserved).  Nets the region reads but does not drive become
        primary inputs of the sub-circuit — the returned ``boundary``
        list (deterministic first-use order) — to be replayed from
        cached traces.  Primary inputs of ``self`` that are in
        ``nets`` stay primary inputs.  The caller is responsible for
        passing a fanout-closed region (see :meth:`transitive_fanout`);
        otherwise the replicated drivers would read stale boundary
        values that full simulation would have recomputed.
        """
        region = set(nets)
        sub = Circuit(name or f"{self.name}_cone")
        gates = [g for g in self.gates if g.output in region]
        latches = [l for l in self.latches if l.output in region]
        ext: List[str] = []
        ext_seen = set(region)
        for g in gates:
            for n in g.inputs:
                if n not in ext_seen:
                    ext_seen.add(n)
                    ext.append(n)
        for l in latches:
            for n in ((l.data,) if l.enable is None
                      else (l.data, l.enable)):
                if n not in ext_seen:
                    ext_seen.add(n)
                    ext.append(n)
        for n in self.inputs:
            if n in region:
                sub.add_input(n)
        for n in ext:
            sub.add_input(n)
        for g in gates:
            sub.add_gate(g.gate_type, list(g.inputs), output=g.output,
                         name=g.name)
        for l in latches:
            sub.add_latch(l.data, output=l.output, init=l.init,
                          name=l.name, enable=l.enable, clocked=l.clocked)
        return sub, ext

    # ------------------------------------------------------------------
    # Portable serialization (job transport, store tooling)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-able structural description (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [[g.name, g.gate_type, list(g.inputs), g.output]
                      for g in self.gates],
            "latches": [[l.name, l.data, l.output, l.init, l.enable,
                         int(l.clocked)]
                        for l in self.latches],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Circuit":
        """Rebuild a circuit from :meth:`to_dict` output.

        Round-trips the structure exactly (same fingerprint): net
        names, instance names, and declaration order all survive.
        """
        circuit = cls(str(data.get("name", "circuit")))
        for net in data["inputs"]:                # type: ignore[index]
            circuit.add_input(net)
        for name, gate_type, ins, output in data["gates"]:  # type: ignore[index]
            circuit.add_gate(gate_type, list(ins), output=output,
                             name=name)
        for name, d, q, init, enable, clocked in data["latches"]:  # type: ignore[index]
            circuit.add_latch(d, output=q, init=init, name=name,
                              enable=enable, clocked=bool(clocked))
        for net in data["outputs"]:               # type: ignore[index]
            circuit.add_output(net)
        return circuit

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        if net in self._driver:
            raise ValueError(f"net {net!r} already driven")
        self.inputs.append(net)
        self._driver[net] = "input"
        self.invalidate()
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in nets]

    def reserve_nets(self, nets: Iterable[str]) -> None:
        """Keep auto-generated net names away from the given names.

        Used by netlist readers: declared signal names must not clash
        with the fresh names synthesis helpers invent.
        """
        self._reserved.update(nets)

    def add_output(self, net: str) -> str:
        self.outputs.append(net)
        self.invalidate()     # the output pad adds fanout load
        return net

    def add_gate(self, gate_type: str, inputs: Sequence[str],
                 output: Optional[str] = None,
                 name: Optional[str] = None) -> str:
        """Instantiate a gate; returns the output net name.

        If ``output`` is omitted a fresh net name is generated.
        """
        spec = gate_spec(gate_type)
        if len(inputs) != spec.n_inputs:
            raise ValueError(
                f"{gate_type} takes {spec.n_inputs} inputs, got {len(inputs)}")
        if output is None:
            output = f"n{len(self.gates) + len(self.latches)}_{gate_type.lower()}"
            while output in self._driver or output in self._reserved:
                output = "_" + output
        if output in self._driver:
            raise ValueError(f"net {output!r} already driven")
        if name is None:
            name = f"g{len(self.gates)}"
        gate = Gate(name, gate_type, list(inputs), output)
        self.gates.append(gate)
        self._driver[output] = gate
        self.invalidate()
        return output

    def add_latch(self, data: str, output: Optional[str] = None,
                  init: int = 0, name: Optional[str] = None,
                  enable: Optional[str] = None,
                  clocked: bool = True) -> str:
        if output is None:
            output = f"q{len(self.latches)}"
            while output in self._driver or output in self._reserved:
                output = "_" + output
        if output in self._driver:
            raise ValueError(f"net {output!r} already driven")
        if name is None:
            name = f"l{len(self.latches)}"
        latch = Latch(name, data, output, init, enable, clocked)
        self.latches.append(latch)
        self._driver[output] = latch
        self.invalidate()
        return output

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def nets(self) -> List[str]:
        """Every driven net: inputs, then latch outputs, then gate
        outputs, in declaration order (a fresh list)."""
        return list(self._net_list())

    def _net_list(self) -> List[str]:
        """:attr:`nets`, cached until the next structural mutation;
        shared, so callers must not mutate it."""
        cached = getattr(self, "_nets_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        nets = [*self.inputs, *map(attrgetter("output"), self.latches),
                *map(attrgetter("output"), self.gates)]
        self._nets_cache = (self._version, nets)
        return nets

    def driver_of(self, net: str):
        """'input', a Gate, or a Latch; KeyError for undriven nets."""
        return self._driver[net]

    def is_sequential(self) -> bool:
        return bool(self.latches)

    def fanout_map(self) -> Dict[str, List[Tuple[object, int]]]:
        """net -> list of (consumer, pin index) pairs.

        Consumers are Gate instances, Latch instances (pin 0 = D), or
        the string 'output' for primary outputs.  The map is cached
        until the next structural mutation (see :meth:`invalidate`);
        treat the returned dict as read-only.
        """
        if self._fanout_cache is not None:
            return self._fanout_cache
        fanout: Dict[str, List[Tuple[object, int]]] = {
            n: [] for n in self._net_list()}
        for gate in self.gates:
            for pin, net in enumerate(gate.inputs):
                fanout.setdefault(net, []).append((gate, pin))
        for latch in self.latches:
            fanout.setdefault(latch.data, []).append((latch, 0))
            if latch.enable is not None:
                fanout.setdefault(latch.enable, []).append((latch, 1))
        for net in self.outputs:
            fanout.setdefault(net, []).append(("output", 0))
        self._fanout_cache = fanout
        return fanout

    def topological_gates(self) -> List[Gate]:
        """Gates in topological order (inputs and latch outputs are roots)."""
        if self._topo_cache is not None:
            return self._topo_cache
        order: List[Gate] = []
        ready: Set[str] = set(self.inputs)
        ready.update(l.output for l in self.latches)
        remaining = list(self.gates)
        # Kahn's algorithm on nets.
        waiting: Dict[str, List[Gate]] = {}
        missing: Dict[str, int] = {}
        for gate in remaining:
            count = 0
            for net in gate.inputs:
                if net not in ready:
                    count += 1
                    waiting.setdefault(net, []).append(gate)
            missing[gate.name] = count
        queue = [g for g in remaining if missing[g.name] == 0]
        scheduled = set()
        while queue:
            gate = queue.pop()
            if gate.name in scheduled:
                continue
            scheduled.add(gate.name)
            order.append(gate)
            ready.add(gate.output)
            for dependent in waiting.get(gate.output, []):
                missing[dependent.name] -= 1
                if missing[dependent.name] == 0:
                    queue.append(dependent)
        if len(order) != len(self.gates):
            raise ValueError(
                "combinational cycle or undriven net in circuit "
                f"{self.name!r} ({len(order)}/{len(self.gates)} ordered)")
        self._topo_cache = order
        return order

    # ------------------------------------------------------------------
    # Electrical accounting
    # ------------------------------------------------------------------
    def load_capacitance(self, net: str,
                         fanout: Optional[Dict[str, List[Tuple[object, int]]]]
                         = None) -> float:
        """Capacitance switched when ``net`` toggles.

        Sum of the fanin pins' input capacitances, the driver's
        intrinsic output capacitance, and a statistical wire load.
        """
        if fanout is None:
            fanout = self.fanout_map()
        consumers = fanout.get(net, [])
        cap = gatelib.wire_capacitance(len(consumers))
        for consumer, pin in consumers:
            if isinstance(consumer, Gate):
                cap += consumer.spec.input_cap
            elif isinstance(consumer, Latch):
                cap += gatelib.DFF_ENABLE_CAP if pin == 1 \
                    else gatelib.DFF_INPUT_CAP
            else:  # primary output pad
                cap += 2.0
        driver = self._driver.get(net)
        if isinstance(driver, Gate):
            cap += driver.spec.output_cap
        elif isinstance(driver, Latch):
            cap += gatelib.DFF_OUTPUT_CAP
        return cap

    def load_capacitances(self) -> Dict[str, float]:
        """Per-net load capacitance for every net, in ``nets`` order.

        Cached until the next structural mutation — both simulation
        engines and the event simulator share this map instead of
        rebuilding it per call.  Treat the returned dict as read-only.
        A circuit whose cone structure is current (see
        :meth:`cone_fingerprints`) keeps its caps there: a clone with
        the same outputs reuses them, and an edit that changed only
        cell types or latch lines patches its parent's.
        """
        if self._caps_cache is None:
            snap = getattr(self, "_cone_snap", None)
            if snap is not None and (
                    self._cone_snap_version != self._version
                    or not _specs_current(snap.specs)):
                snap = None
            caps = self._structure_caps(snap) if snap is not None else None
            if caps is None:
                fanout = self.fanout_map()
                caps = {net: self.load_capacitance(net, fanout)
                        for net in self._net_list()}
                if snap is not None and snap.caps is None:
                    snap.caps, snap.caps_outputs = caps, tuple(self.outputs)
            self._caps_cache = caps
        return self._caps_cache

    def _structure_caps(self, snap: "_ConeStructure"
                        ) -> Optional[Dict[str, float]]:
        """Caps from the current cone structure, or ``None``.

        ``snap``'s library entries are current (checked by the caller),
        so stored caps are valid exactly for the outputs they were
        computed against.  A structure derived by driver edits copies
        its parent's caps and recomputes the edited drivers' nets and
        the nets they read, summing consumers in :meth:`fanout_map`
        order so every float is bit-identical to a rebuild.
        """
        outputs = tuple(self.outputs)
        if snap.caps is not None:
            return snap.caps if snap.caps_outputs == outputs else None
        base = snap.caps_base
        if base is None or base[1] != outputs:
            return None
        caps = dict(base[0])
        touched: Dict[str, None] = {}
        for net in base[2]:
            touched[net] = None
            touched.update(dict.fromkeys(snap.reads[net]))
        fanout, reads, driver = snap.fanout(), snap.reads, self._driver
        for net in touched:
            if net not in caps:
                continue
            consumers: List[Tuple[object, int]] = []
            for out in fanout.get(net, ()):
                consumers.extend((driver[out], pin)
                                 for pin, d in enumerate(reads[out])
                                 if d == net)
            consumers.extend([("output", 0)] * outputs.count(net))
            caps[net] = self.load_capacitance(net, {net: consumers})
        snap.caps, snap.caps_outputs = caps, outputs
        snap.caps_base = None
        return caps

    def total_capacitance(self) -> float:
        """Sum of load capacitances over all nets (the C_tot of II-B1)."""
        return sum(self.load_capacitances().values())

    def clock_capacitance(self) -> float:
        return gatelib.DFF_CLOCK_CAP * sum(1 for l in self.latches
                                           if l.clocked)

    def area(self) -> float:
        """Area in NAND2 gate equivalents."""
        total = sum(g.spec.area for g in self.gates)
        total += gatelib.DFF_AREA * len(self.latches)
        return total

    def gate_count(self) -> int:
        return len(self.gates)

    def depth(self) -> int:
        """Longest combinational path, in gate levels."""
        level: Dict[str, int] = {n: 0 for n in self.inputs}
        level.update({l.output: 0 for l in self.latches})
        best = 0
        for gate in self.topological_gates():
            lvl = 1 + max((level.get(n, 0) for n in gate.inputs), default=0)
            level[gate.output] = lvl
            best = max(best, lvl)
        return best

    def stats(self) -> Dict[str, float]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "latches": len(self.latches),
            "area": self.area(),
            "depth": self.depth() if self.gates else 0,
            "total_capacitance": self.total_capacitance(),
        }

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Independent copy; it starts from this circuit's last cone
        structure, so its first cone query after an edit only diffs."""
        copy = Circuit(name or self.name)
        copy._cone_snap = getattr(self, "_cone_snap", None)
        copy.inputs = list(self.inputs)
        copy.outputs = list(self.outputs)
        copy.gates = gates = [Gate(g.name, g.gate_type, g.inputs[:],
                                   g.output) for g in self.gates]
        copy.latches = latches = [Latch(l.name, l.data, l.output, l.init,
                                        l.enable, l.clocked)
                                  for l in self.latches]
        driver = copy._driver
        driver.update(zip(map(attrgetter("output"), gates), gates))
        driver.update(zip(map(attrgetter("output"), latches), latches))
        driver.update(dict.fromkeys(self.inputs, "input"))
        return copy

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, in={len(self.inputs)}, "
                f"out={len(self.outputs)}, gates={len(self.gates)}, "
                f"latches={len(self.latches)})")


def _latch_line(l: Latch) -> str:
    return (f"l:{l.data}>{l.output}:{l.init}:"
            f"{l.enable or ''}:{int(l.clocked)}")


def _specs_current(specs: Dict[str, Optional[GateSpec]]) -> bool:
    """Every recorded cell type still maps to the same library entry."""
    library = gatelib.LIBRARY
    return all(library.get(t) is spec for t, spec in specs.items())


#: gate type -> (the library entry its token was computed for, token).
_FUNCTION_TOKENS: Dict[str, Tuple[GateSpec, str]] = {}


def _function_token(gate_type: str) -> str:
    """What the fingerprints add for ``gate_type``'s function: ``""``
    while it computes the function shipped under its name, else
    ``#`` and a digest of its truth table.  Cached per library entry.
    """
    spec = gatelib.LIBRARY.get(gate_type)
    builtin = gatelib.BUILTIN.get(gate_type)
    if spec is None or spec is builtin:
        return ""
    hit = _FUNCTION_TOKENS.get(gate_type)
    if hit is None or hit[0] is not spec:
        table = gatelib.truth_table(spec)
        same = (builtin is not None
                and builtin.n_inputs == spec.n_inputs
                and gatelib.truth_table(builtin) == table)
        token = "" if same else "#" + hashlib.sha256(
            f"{spec.n_inputs}:{table:x}".encode("ascii")).hexdigest()
        hit = _FUNCTION_TOKENS[gate_type] = (spec, token)
    return hit[1]


def _hash_component(scc: Tuple[str, ...],
                    reads: Dict[str, Tuple[str, ...]],
                    types: Dict[str, str], latch_lines: Dict[str, str],
                    fps: Dict[str, str]) -> None:
    """Write the cone fingerprints of one SCC's members into ``fps``.

    Every fanin outside the SCC must already be in ``fps``.  A net's
    canonical line is its latch line, else its gate line (cell type
    with its :func:`_function_token`, read nets, net), else
    ``i:<net>`` for a free input.
    """
    def line(net: str) -> bytes:
        text = latch_lines.get(net)
        if text is None:
            gate_type = types.get(net)
            text = (f"i:{net}" if gate_type is None else
                    f"g:{gate_type}{_function_token(gate_type)}:"
                    f"{','.join(reads[net])}>{net}")
        return text.encode("utf-8")

    if len(scc) == 1 and scc[0] not in reads[scc[0]]:
        net = scc[0]
        h = hashlib.sha256(b"cone/1\x00")
        h.update(line(net))
        for d in reads[net]:
            h.update(b"\x00")
            h.update(fps[d].encode("ascii"))
        fps[net] = h.hexdigest()
        return
    members = set(scc)
    h = hashlib.sha256(b"cone-scc/1\x00")
    for m in sorted(scc):
        h.update(line(m))
        for d in reads[m]:
            h.update(b"\x00")
            # Internal edges are covered by the member lines (names
            # included); external fanin by its cone fingerprint.
            if d not in members:
                h.update(fps[d].encode("ascii"))
        h.update(b"\x01")
    scc_hash = h.hexdigest()
    for m in scc:
        fps[m] = hashlib.sha256(
            f"{scc_hash}|{m}".encode("utf-8")).hexdigest()


_structure_serial = itertools.count(1)


@dataclass(eq=False, repr=False)
class _ConeStructure:
    """Cone structure of one circuit version: one pass, never mutated.

    Holds the read set of every net, the cell type of every gate-driven
    net and the line of every latch-driven one, the library entry of
    every cell type it hashed (valid while :func:`_specs_current`), the
    SCCs in dependency order, the cone fingerprints and input supports,
    and (attached later, by :meth:`Circuit.load_capacitances` and
    :func:`repro.logic.incremental.cone_keys`) the load caps and the
    cone keys of the last stimulus.  Its dicts are never mutated after
    construction, so a clone that shares it cannot see its parent's
    later edits; it holds no :class:`Circuit`, so chains of clones do
    not pin their ancestors.  ``serial`` is unique per structure for
    the life of the process.
    """

    inputs: Tuple[str, ...]
    nets: List[str]
    n_latches: int
    reads: Dict[str, Tuple[str, ...]]
    types: Dict[str, str]
    latch_lines: Dict[str, str]
    order: List[Tuple[str, ...]]
    fps: Dict[str, str]
    supports: Dict[str, int]
    specs: Dict[str, Optional[GateSpec]]
    serial: int = field(default_factory=lambda: next(_structure_serial))
    _fanout: Optional[Dict[str, List[str]]] = None
    _rank: Optional[Dict[str, int]] = None
    caps: Optional[Dict[str, float]] = None
    caps_outputs: Tuple[str, ...] = ()
    #: (parent caps, their outputs, changed nets) for a structure
    #: derived from one that had caps.
    caps_base: Optional[Tuple[Dict[str, float], Tuple[str, ...],
                              List[str]]] = None
    #: Serial of the structure :meth:`derive` made this one from (0
    #: for a full build), and the nets it rehashed, in ``nets`` order:
    #: every other net's fingerprint and support are the parent's.
    parent: int = 0
    rehashed: Tuple[str, ...] = ()
    #: (stimulus identity, per-net keys) of the last
    #: :func:`~repro.logic.incremental.cone_keys` call, and for a
    #: derived structure its parent's at derive time.
    keys: Optional[Tuple[tuple, Dict[str, tuple]]] = None
    keys_base: Optional[Tuple[tuple, Dict[str, tuple]]] = None
    _position: Optional[Dict[str, int]] = None

    @classmethod
    def build(cls, inputs: Tuple[str, ...], nets: List[str],
              n_latches: int, reads: Dict[str, Tuple[str, ...]],
              types: Dict[str, str],
              latch_lines: Dict[str, str]) -> "_ConeStructure":
        """Fingerprints and supports from one SCC walk."""
        order = _tarjan_sccs(reads)
        specs = {t: gatelib.LIBRARY.get(t) for t in set(types.values())}
        input_bit = {net: 1 << i for i, net in enumerate(inputs)}
        fps: Dict[str, str] = {}
        masks: Dict[str, int] = {}
        for scc in order:
            _hash_component(scc, reads, types, latch_lines, fps)
            members = scc if len(scc) == 1 else set(scc)
            mask = 0
            for m in scc:
                mask |= input_bit.get(m, 0)
                for d in reads[m]:
                    if d not in members:
                        mask |= masks[d]
            for m in scc:
                masks[m] = mask
        return cls(inputs, nets, n_latches, reads, types, latch_lines,
                   order, fps, masks, specs)

    def fanout(self) -> Dict[str, List[str]]:
        """net -> the nets whose drivers read it, once each, in
        :meth:`Circuit.fanout_map` order (gates, then latches);
        primary outputs are not listed."""
        if self._fanout is None:
            fanout: Dict[str, List[str]] = {}
            for net, read in self.reads.items():
                for d in read:
                    consumers = fanout.setdefault(d, [])
                    if not consumers or consumers[-1] != net:
                        consumers.append(net)
            self._fanout = fanout
        return self._fanout

    def rank(self) -> Dict[str, int]:
        """net -> index of its SCC in ``order``."""
        if self._rank is None:
            self._rank = {net: i for i, scc in enumerate(self.order)
                          for net in scc}
        return self._rank

    def position(self) -> Dict[str, int]:
        """net -> index in ``nets``."""
        if self._position is None:
            self._position = {net: i for i, net in enumerate(self.nets)}
        return self._position

    def derive(self, new_types: Dict[str, str],
               new_lines: Dict[str, str]) -> "_ConeStructure":
        """The structure after the gates in ``new_types`` changed cell
        type and the latches in ``new_lines`` changed line.

        Read sets are unchanged, so the SCC order, the supports and
        the fanout carry over; only the changed nets and their
        transitive fanout are rehashed, a whole SCC at a time, in
        dependency order.  (The fanout of any SCC member reaches every
        other member, so that closure already holds whole SCCs.)
        """
        changed = list(new_types) + list(new_lines)
        types, latch_lines, specs = self.types, self.latch_lines, self.specs
        if new_types:
            types = dict(types)
            types.update(new_types)
            specs = dict(specs)
            specs.update((t, gatelib.LIBRARY.get(t))
                         for t in new_types.values())
        if new_lines:
            latch_lines = dict(latch_lines)
            latch_lines.update(new_lines)
        fanout = self.fanout()
        rank = self.rank()
        dirty = set(changed)
        stack = list(changed)
        while stack:
            for consumer in fanout.get(stack.pop(), ()):
                if consumer not in dirty:
                    dirty.add(consumer)
                    stack.append(consumer)
        fps = dict(self.fps)
        order, reads = self.order, self.reads
        for index in sorted({rank[net] for net in dirty}):
            _hash_component(order[index], reads, types, latch_lines, fps)
        position = self.position()
        return _ConeStructure(
            self.inputs, self.nets, self.n_latches, reads, types,
            latch_lines, order, fps, self.supports, specs,
            _fanout=fanout, _rank=rank,
            caps_base=None if self.caps is None else (
                self.caps, self.caps_outputs, changed),
            parent=self.serial,
            rehashed=tuple(sorted(dirty, key=position.__getitem__)),
            keys_base=self.keys, _position=position)


def _tarjan_sccs(deps: Dict[str, Tuple[str, ...]]
                 ) -> List[Tuple[str, ...]]:
    """Strongly connected components of a dependency graph, iterative.

    Emits components in reverse topological order — every component
    appears after all components it depends on — which is exactly the
    evaluation order the cone hash and support computations need.
    Iterative so deep combinational chains don't hit the recursion
    limit (the same reason every BDD traversal in this repo is
    iterative).
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = 0
    for root in deps:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, pin = work.pop()
            if pin == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descend = False
            read = deps[node]
            for i in range(pin, len(read)):
                d = read[i]
                if d not in index:
                    work.append((node, i + 1))
                    work.append((d, 0))
                    descend = True
                    break
                if d in on_stack:
                    low[node] = min(low[node], index[d])
            if descend:
                continue
            if low[node] == index[node]:
                scc: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(tuple(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
        # root finished; its component was emitted above.
    return sccs
