"""Gated-clock synthesis for FSMs (Section III-I, [101]-[103]).

Architecture of Fig. 7: an activation function Fa detects cycles in
which neither the state nor the outputs change (idle conditions) and
stops the local clock for the whole machine.  Fa is synthesized
symbolically from the STG's self-loop conditions:

    Fa(inputs, state) = 1  iff  delta(state, inputs) = state
                              and lambda(state, inputs) stable

Because the framework's netlists model clock energy explicitly
(`Circuit.clock_capacitance`), gating is evaluated by building the
gated design (Fa network + hold-muxes emulating the stopped clock) and
charging clock power only on enabled cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.fsm.encoding import Encoding, binary_encoding
from repro.fsm.stg import STG
from repro.fsm.synthesis import _cube_minterms, synthesize_fsm
from repro.logic import gates as gatelib
from repro.logic.netlist import Circuit
from repro.logic.synthesis import InverterCache, synthesize_cover
from repro.twolevel.quine_mccluskey import minimize


def idle_onset(stg: STG, encoding: Encoding) -> List[int]:
    """Minterms (inputs, state-code) on which the machine is idle.

    Idle = self-loop transition; outputs in a Mealy self-loop are
    constant for the cycle, so gating the clock holds them too.
    """
    complete = stg.completed()
    ni = complete.n_inputs
    onset: List[int] = []
    for t in complete.transitions:
        if t.src != t.dst:
            continue
        code = encoding.codes[t.src]
        for m in _cube_minterms(t.input_cube):
            onset.append(m | (code << ni))
    return onset


@dataclass
class GatedClockReport:
    idle_fraction: float          # fraction of cycles with clock stopped
    original_power: float
    gated_power: float
    fa_gates: int                 # size of the activation network

    @property
    def saving(self) -> float:
        if self.original_power == 0:
            return 0.0
        return 1.0 - self.gated_power / self.original_power


def build_gated_fsm(stg: STG, encoding: Optional[Encoding] = None,
                    simplify_fraction: float = 1.0,
                    name: Optional[str] = None) -> Tuple[Circuit, str]:
    """Synthesize the FSM with a gated-clock mechanism.

    ``simplify_fraction`` < 1 drops the least-probable idle minterms
    from Fa (the paper's simplified activation function that trades
    stopping efficiency for a smaller Fa).  Returns (circuit, fa_net):
    the clock-enable condition is ~fa.
    """
    encoding = encoding or binary_encoding(stg)
    base = synthesize_fsm(stg, encoding, name=name or f"{stg.name}_gated")
    onset = idle_onset(stg, encoding)
    if simplify_fraction < 1.0 and onset:
        keep = max(1, int(len(onset) * simplify_fraction))
        onset = onset[:keep]

    complete = stg.completed()
    ni, nb = complete.n_inputs, encoding.n_bits
    used = {encoding.codes[s] for s in complete.states}
    dc = [m | (c << ni) for c in range(1 << nb) if c not in used
          for m in range(1 << ni)]
    cover = minimize(ni + nb, onset, dc)

    circuit = base
    input_nets = [f"in{i}" for i in range(ni)]
    state_nets = [f"sb{j}" for j in range(nb)]
    synthesize_cover(cover, input_nets + state_nets, "fa",
                     circuit=circuit, inverters=InverterCache(circuit))

    # Stop the state register's clock when fa = 1: the clock enable
    # is ~fa.  (The latch L of Fig. 7 filters glitches on the enable;
    # its always-on clock load is charged in the evaluation.)
    enable = circuit.add_gate("INV", ["fa"], output="clk_en")
    for latch in circuit.latches:
        latch.enable = enable
    circuit.invalidate()
    return circuit, "fa"


def evaluate_clock_gating(stg: STG, encoding: Optional[Encoding] = None,
                          cycles: int = 400, seed: int = 0,
                          bit_probs: Optional[Sequence[float]] = None,
                          simplify_fraction: float = 1.0,
                          engine: Optional[str] = None,
                          incremental: bool = True
                          ) -> GatedClockReport:
    """Compare plain vs gated synthesis of the same machine.

    The gated design pays for the Fa network's switching and for one
    always-clocked glitch-filter latch (the L of Fig. 7); in exchange
    the state register's clock only toggles on enabled cycles (the
    load-enable latch model accounts for this automatically).  The
    combinational logic still sees input changes — clock gating stops
    the clock, not the datapath.

    With ``incremental`` (the default) both measurements run through
    the cone cache (:mod:`repro.logic.incremental`): across a
    ``simplify_fraction`` sweep the plain machine and every cone the
    edit doesn't reach are spliced from cache instead of resimulated,
    bit-identically.
    """
    return sweep_clock_gating(stg, [simplify_fraction],
                              encoding=encoding, cycles=cycles,
                              seed=seed, bit_probs=bit_probs,
                              engine=engine,
                              incremental=incremental)[0]


def gating_stimulus(stg: STG, cycles: int = 400, seed: int = 0,
                    bit_probs: Optional[Sequence[float]] = None):
    """The packed stimulus :func:`evaluate_clock_gating` draws."""
    from repro.logic.fastsim import PackedVectors

    rng = random.Random(seed)
    probs = list(bit_probs) if bit_probs else [0.5] * stg.n_inputs
    input_names = [f"in{i}" for i in range(stg.n_inputs)]
    vectors = [{name: int(rng.random() < probs[i])
                for i, name in enumerate(input_names)}
               for _ in range(cycles)]
    return PackedVectors.from_vectors(input_names, vectors)


def sweep_clock_gating(stg: STG, fractions: Sequence[float],
                       encoding: Optional[Encoding] = None,
                       cycles: int = 400, seed: int = 0,
                       bit_probs: Optional[Sequence[float]] = None,
                       engine: Optional[str] = None,
                       incremental: bool = True
                       ) -> List[GatedClockReport]:
    """One :class:`GatedClockReport` per ``simplify_fraction``.

    The candidate loop of the pass: the plain machine plus every
    gated variant are measured in one walk
    (:func:`repro.optimization.search.evaluate_candidates`), in which
    the cone cache splices the unchanged logic.  Reports are
    bit-identical to calling :func:`evaluate_clock_gating` per
    fraction.
    """
    from repro.optimization import search

    encoding = encoding or binary_encoding(stg)
    packed = gating_stimulus(stg, cycles=cycles, seed=seed,
                             bit_probs=bit_probs)

    plain = synthesize_fsm(stg, encoding)
    variants = [build_gated_fsm(stg, encoding, simplify_fraction=f)
                for f in fractions]
    reports = search.evaluate_candidates(
        search.activity_job,
        [plain] + [gated for gated, _fa in variants],
        stimuli={"stimulus": packed},
        extras={"incremental": incremental},
        engine=engine, label="clock_gating")
    plain_power = reports[0].average_power()

    out: List[GatedClockReport] = []
    for (gated, fa_net), gated_report in zip(variants, reports[1:]):
        fa_gate_count = gated.gate_count() - plain.gate_count() - 1
        # Fa's ones count is the idle-cycle count — same number the
        # old scalar `simulate` walk summed, without the extra
        # simulation.
        idle_cycles = gated_report.ones.get(fa_net, 0)
        idle_fraction = idle_cycles / max(1, cycles)

        # The glitch-filter latch L rides the free-running clock.
        gated_report.clock_capacitance += \
            2.0 * gatelib.DFF_CLOCK_CAP * max(0, cycles - 1)
        out.append(GatedClockReport(
            idle_fraction=idle_fraction,
            original_power=plain_power,
            gated_power=gated_report.average_power(),
            fa_gates=max(0, fa_gate_count),
        ))
    return out
