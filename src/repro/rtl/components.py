"""RTL component library backed by gate-level implementations.

Each component couples

- a word-level functional model (fast RT-level simulation),
- a real gate-level netlist from :mod:`repro.logic.generators`
  (reference power by simulation -- the "gate-level power value"
  macro-models are fitted against in Section II-C),
- port metadata so stimulus generators can drive it uniformly.

This mirrors the paper's high-level design library: the macro-model
characterization flow of Section II-C1 step 1 runs each component
under pseudorandom data and fits regression models to the measured
switched capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.logic.generators import (
    array_multiplier,
    bus,
    equality_comparator,
    magnitude_comparator,
    ripple_carry_adder,
)
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, collect_activity
from repro.rtl.streams import WordStream


@dataclass
class RtlComponent:
    """A characterized RTL module."""

    kind: str
    width: int
    circuit: Circuit
    input_ports: List[Tuple[str, int]]     # (bus prefix, width)
    output_ports: List[Tuple[str, int]]
    fn: Callable[[Sequence[int]], int]
    output_nets: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.output_nets:
            self.output_nets = [f"{prefix}{i}"
                                for prefix, w in self.output_ports
                                for i in range(w)]

    def read_output(self, values: Dict[str, int]) -> int:
        """Assemble the output word from settled gate-level net values."""
        word = 0
        for i, net in enumerate(self.output_nets):
            word |= values[net] << i
        return word

    @property
    def name(self) -> str:
        return f"{self.kind}{self.width}"

    def evaluate(self, operands: Sequence[int]) -> int:
        return self.fn(operands)

    def input_vector(self, operands: Sequence[int]) -> Dict[str, int]:
        vec: Dict[str, int] = {}
        for (prefix, w), word in zip(self.input_ports, operands):
            for i in range(w):
                vec[f"{prefix}{i}"] = (word >> i) & 1
        return vec

    def reference_activity(self, operand_streams: Sequence[WordStream],
                           timed: bool = False) -> ActivityReport:
        """Gate-level activity under word-level stimulus (ground truth).

        Streams are packed directly into bit-parallel input lanes, so
        characterization runs (thousands of cycles per component) skip
        the per-cycle vector dicts entirely.  ``timed=True`` switches
        the ground truth to the glitch-aware tick-wheel engine
        (:mod:`repro.logic.fasttimer`).
        """
        from repro.logic import fastsim

        packed = fastsim.pack_streams(self.input_ports, operand_streams)
        if timed:
            from repro.logic import fasttimer

            return fasttimer.timed_activity(self.circuit, packed)
        return collect_activity(self.circuit, packed)

    def reference_power(self, operand_streams: Sequence[WordStream],
                        vdd: float = 1.0, freq: float = 1.0,
                        timed: bool = False) -> float:
        return self.reference_activity(
            operand_streams, timed=timed,
        ).average_power(vdd=vdd, freq=freq)

    def cycle_energies(self, operand_streams: Sequence[WordStream],
                       vdd: float = 1.0) -> List[float]:
        """Per-cycle switched energy (for cycle-accurate macro-models)."""
        from repro.logic import fastsim

        packed = fastsim.pack_streams(self.input_ports, operand_streams)
        return circuit_cycle_energies(self.circuit, packed, vdd=vdd)


def circuit_cycle_energies(circuit: Circuit, stimulus,
                           vdd: float = 1.0) -> List[float]:
    """Per-cycle switched energy of any circuit under any stimulus.

    ``stimulus`` is either packed vectors or a list of per-cycle input
    dicts.  Entry ``t`` is the energy of the ``t -> t+1`` transition,
    so a batch of ``n`` cycles yields ``n - 1`` energies.  This is the
    ground-truth labeling primitive shared by the cycle-accurate
    macro-models and the learned characterization flow
    (:mod:`repro.estimation.learned`).
    """
    from repro.logic import fastsim

    caps = circuit.load_capacitances()
    try:
        words, n = fastsim.net_words(circuit, stimulus)
    except fastsim.CompileError:
        vectors = stimulus.to_vectors() \
            if hasattr(stimulus, "to_vectors") else stimulus
        return _cycle_energies_reference(circuit, vectors, caps, vdd)
    raw = [0.0] * max(0, n - 1)
    boundary_mask = ((1 << n) - 1) & ~1
    for net in caps:
        diff = words[net]
        diff = (diff ^ (diff << 1)) & boundary_mask
        cap = caps[net]
        while diff:
            lsb = diff & -diff
            raw[lsb.bit_length() - 2] += cap
            diff ^= lsb
    return [0.5 * vdd * vdd * e for e in raw]


def _cycle_energies_reference(circuit: Circuit,
                              vectors: Sequence[Dict[str, int]],
                              caps: Dict[str, float],
                              vdd: float) -> List[float]:
    from repro.logic.simulate import simulate

    trace = simulate(circuit, vectors)
    energies: List[float] = []
    for prev, cur in zip(trace, trace[1:]):
        e = sum(caps[net] for net in caps if prev[net] != cur[net])
        energies.append(0.5 * vdd * vdd * e)
    return energies


def _signed(word: int, width: int) -> int:
    half = 1 << (width - 1)
    return word - ((word & half) << 1)


def _make_subtractor(width: int) -> Circuit:
    """a - b as a + ~b + 1 (two's complement), gate level."""
    from repro.logic.generators import _full_adder

    circuit = Circuit(f"sub{width}")
    a = circuit.add_inputs(bus("a", width))
    b = circuit.add_inputs(bus("b", width))
    carry = circuit.add_gate("CONST1", [])
    for i in range(width):
        nb = circuit.add_gate("INV", [b[i]])
        s, carry = _full_adder(circuit, a[i], nb, carry)
        out = circuit.add_gate("BUF", [s], output=f"s{i}")
        circuit.add_output(out)
    out = circuit.add_gate("BUF", [carry], output="cout")
    circuit.add_output(out)
    return circuit


def _make_register(width: int) -> Circuit:
    circuit = Circuit(f"reg{width}")
    d = circuit.add_inputs(bus("a", width))
    for i in range(width):
        q = circuit.add_latch(d[i], output=f"s{i}")
        circuit.add_output(q)
    return circuit


def _make_mux(width: int) -> Circuit:
    circuit = Circuit(f"mux{width}")
    d0 = circuit.add_inputs(bus("a", width))
    d1 = circuit.add_inputs(bus("b", width))
    sel = circuit.add_input("c0")
    for i in range(width):
        out = circuit.add_gate("MUX2", [d0[i], d1[i], sel], output=f"s{i}")
        circuit.add_output(out)
    return circuit


def make_component(kind: str, width: int) -> RtlComponent:
    """Instantiate a library component.

    Kinds: ``add``, ``sub``, ``mult``, ``mux``, ``reg``, ``cmp_eq``,
    ``cmp_gt``.
    """
    mask = (1 << width) - 1
    if kind == "add":
        return RtlComponent(
            kind, width, ripple_carry_adder(width),
            [("a", width), ("b", width)], [("s", width + 1)],
            lambda ops: (ops[0] + ops[1]) & ((1 << (width + 1)) - 1),
            output_nets=[f"s{i}" for i in range(width)] + ["cout"])
    if kind == "sub":
        return RtlComponent(
            kind, width, _make_subtractor(width),
            [("a", width), ("b", width)], [("s", width)],
            lambda ops: (ops[0] - ops[1]) & mask)
    if kind == "mult":
        return RtlComponent(
            kind, width, array_multiplier(width),
            [("a", width), ("b", width)], [("p", 2 * width)],
            lambda ops: (ops[0] * ops[1]) & ((1 << (2 * width)) - 1))
    if kind == "mux":
        return RtlComponent(
            kind, width, _make_mux(width),
            [("a", width), ("b", width), ("c", 1)], [("s", width)],
            lambda ops: ops[1] if ops[2] & 1 else ops[0])
    if kind == "reg":
        return RtlComponent(
            kind, width, _make_register(width),
            [("a", width)], [("s", width)],
            lambda ops: ops[0] & mask)
    if kind == "cmp_eq":
        return RtlComponent(
            kind, width, equality_comparator(width),
            [("a", width), ("b", width)], [("eq", 1)],
            lambda ops: int((ops[0] & mask) == (ops[1] & mask)),
            output_nets=["eq"])
    if kind == "cmp_gt":
        return RtlComponent(
            kind, width, magnitude_comparator(width),
            [("a", width), ("b", width)], [("gt", 1)],
            lambda ops: int((ops[0] & mask) > (ops[1] & mask)),
            output_nets=["gt"])
    raise ValueError(f"unknown component kind {kind!r}")


COMPONENT_TYPES = ["add", "sub", "mult", "mux", "reg", "cmp_eq", "cmp_gt"]


def output_words(component: RtlComponent,
                 operand_streams: Sequence[WordStream]) -> WordStream:
    """Functional output stream of the component under given operands."""
    length = min(len(s) for s in operand_streams)
    words = [
        component.evaluate([s.words[t] for s in operand_streams])
        for t in range(length)
    ]
    total_width = sum(w for _p, w in component.output_ports)
    return WordStream(words, total_width, f"{component.name}_out")
