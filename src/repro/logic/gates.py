"""Generic characterized cell library.

Each gate type carries the data a switched-capacitance power model
needs: per-pin input capacitance, intrinsic output capacitance, an
inertial delay, and an area in gate equivalents.  Values follow the
usual static-CMOS trends (cap and delay grow with fan-in; XOR costs
about twice a NAND) in normalized units:

- capacitance in units of a minimum inverter input cap (``C0``),
- delay in units of a fanout-4 inverter delay,
- area in NAND2 gate equivalents.

Energy per output transition is ``0.5 * Vdd**2 * C_switched`` with
``C_switched`` the sum of the driven net's load and the gate's
intrinsic output capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple


@dataclass(frozen=True)
class GateSpec:
    """Static description of a combinational cell."""

    name: str
    n_inputs: int
    fn: Callable[[Tuple[int, ...]], int]
    input_cap: float       # per input pin, units of C0
    output_cap: float      # intrinsic drain cap at the output, units of C0
    delay: float           # inertial propagation delay
    area: float            # NAND2 gate equivalents

    def evaluate(self, inputs: Sequence[int]) -> int:
        if len(inputs) != self.n_inputs:
            raise ValueError(
                f"{self.name} expects {self.n_inputs} inputs, "
                f"got {len(inputs)}")
        return self.fn(tuple(inputs))


def _and(v: Tuple[int, ...]) -> int:
    return int(all(v))


def _or(v: Tuple[int, ...]) -> int:
    return int(any(v))


def _nand(v: Tuple[int, ...]) -> int:
    return int(not all(v))


def _nor(v: Tuple[int, ...]) -> int:
    return int(not any(v))


def _xor(v: Tuple[int, ...]) -> int:
    return sum(v) & 1


def _xnor(v: Tuple[int, ...]) -> int:
    return (sum(v) + 1) & 1


def _inv(v: Tuple[int, ...]) -> int:
    return 1 - v[0]


def _buf(v: Tuple[int, ...]) -> int:
    return v[0]


def _mux2(v: Tuple[int, ...]) -> int:
    # inputs: (d0, d1, select)
    return v[1] if v[2] else v[0]


def _aoi21(v: Tuple[int, ...]) -> int:
    # inputs: (a, b, c) -> not(a*b + c)
    return int(not ((v[0] and v[1]) or v[2]))


def _const0(v: Tuple[int, ...]) -> int:
    return 0


def _const1(v: Tuple[int, ...]) -> int:
    return 1


LIBRARY: Dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    LIBRARY[spec.name] = spec


_register(GateSpec("INV", 1, _inv, 1.0, 0.5, 1.0, 0.5))
_register(GateSpec("BUF", 1, _buf, 1.0, 0.5, 2.0, 0.7))
_register(GateSpec("AND2", 2, _and, 1.2, 0.7, 2.0, 1.2))
_register(GateSpec("AND3", 3, _and, 1.3, 0.8, 2.4, 1.6))
_register(GateSpec("AND4", 4, _and, 1.4, 0.9, 2.8, 2.0))
_register(GateSpec("OR2", 2, _or, 1.2, 0.7, 2.0, 1.2))
_register(GateSpec("OR3", 3, _or, 1.3, 0.8, 2.4, 1.6))
_register(GateSpec("OR4", 4, _or, 1.4, 0.9, 2.8, 2.0))
_register(GateSpec("NAND2", 2, _nand, 1.1, 0.6, 1.0, 1.0))
_register(GateSpec("NAND3", 3, _nand, 1.2, 0.7, 1.4, 1.4))
_register(GateSpec("NAND4", 4, _nand, 1.3, 0.8, 1.8, 1.8))
_register(GateSpec("NOR2", 2, _nor, 1.1, 0.6, 1.2, 1.0))
_register(GateSpec("NOR3", 3, _nor, 1.2, 0.7, 1.6, 1.4))
_register(GateSpec("NOR4", 4, _nor, 1.3, 0.8, 2.0, 1.8))
_register(GateSpec("XOR2", 2, _xor, 1.8, 1.0, 2.6, 2.2))
_register(GateSpec("XNOR2", 2, _xnor, 1.8, 1.0, 2.6, 2.2))
_register(GateSpec("XOR3", 3, _xor, 2.0, 1.2, 3.6, 3.4))
_register(GateSpec("MUX2", 3, _mux2, 1.4, 0.9, 2.2, 1.8))
# Data path of a level-sensitive transparent latch: (d, held, gate).
# Small cell -- guarded evaluation inserts one per guarded input.
_register(GateSpec("TLATCH", 3, _mux2, 0.8, 0.5, 1.2, 1.5))
_register(GateSpec("AOI21", 3, _aoi21, 1.2, 0.7, 1.6, 1.4))
_register(GateSpec("CONST0", 0, _const0, 0.0, 0.2, 0.0, 0.1))
_register(GateSpec("CONST1", 0, _const1, 0.0, 0.2, 0.0, 0.1))

#: The library as shipped.  Cells can be registered again at run time;
#: structural fingerprints hash a cell's truth table only where it
#: differs from the one shipped under its name.
BUILTIN: Dict[str, GateSpec] = dict(LIBRARY)

# Sequential elements are handled structurally by the netlist (Latch
# records), but their electrical parameters live here so power models
# can account for clock and data pin loading.
DFF_INPUT_CAP = 1.5      # D pin load, units of C0
DFF_CLOCK_CAP = 1.0      # clock pin load per flop
DFF_OUTPUT_CAP = 0.6     # Q intrinsic cap
DFF_ENABLE_CAP = 1.0     # enable pin of the integrated clock-gating cell
DFF_AREA = 4.0           # gate equivalents
DFF_DELAY = 1.5          # clock-to-Q

# Statistical wire-load model: every net adds WIRE_CAP_PER_FANOUT * k
# of interconnect capacitance when it drives k pins (Section II-B1's
# "statistical wire-load models").
WIRE_CAP_BASE = 0.3
WIRE_CAP_PER_FANOUT = 0.4


def gate_spec(name: str) -> GateSpec:
    """Look up a gate type; raises KeyError with a helpful message."""
    try:
        return LIBRARY[name]
    except KeyError:
        raise KeyError(
            f"unknown gate type {name!r}; known: {sorted(LIBRARY)}"
        ) from None


def truth_table(spec: GateSpec) -> int:
    """The cell's function as an integer: bit ``r`` is its output on
    row ``r``, whose input ``i`` is bit ``i`` of ``r``."""
    k = spec.n_inputs
    return sum(1 << r for r in range(1 << k)
               if spec.fn(tuple((r >> i) & 1 for i in range(k))))


def wire_capacitance(fanout: int) -> float:
    """Statistical wire-load estimate for a net driving ``fanout`` pins."""
    if fanout <= 0:
        return 0.0
    return WIRE_CAP_BASE + WIRE_CAP_PER_FANOUT * fanout
