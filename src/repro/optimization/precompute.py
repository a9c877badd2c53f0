"""Precomputation-based power management (Section III-I, [99], [100]).

Architecture of Fig. 6: two predictor functions g1, g0 over a subset S
of the inputs satisfy  g1 = 1 => f = 1  and  g0 = 1 => f = 0.  When
either fires, the input register bank of block A holds its value (load
enable low) and the registered predictor outputs supply f; block A
then sees no input change and switches nothing.

Predictors are derived exactly with BDD universal quantification:

    g1 = forall_{X \\ S} f        g0 = forall_{X \\ S} f'

The module both *builds the real circuit* (load-enable registers,
predictor logic synthesized to gates, output mux) and
verifies/measures it by simulation; load-enable flops stop their
local clock while disabled, which is where the power goes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bdd import Bdd, BddManager
from repro.logic.bdd_bridge import net_bdds
from repro.logic.netlist import Circuit
from repro.logic.simulate import Vector
from repro.logic.synthesis import synthesize_cover
from repro.twolevel.quine_mccluskey import minimize


@dataclass
class PredictorPair:
    """Chosen predictor subset and its coverage probability."""

    subset: List[str]
    g1_onset: List[int]          # over subset variables
    g0_onset: List[int]
    coverage: float              # P(g1 + g0 = 1) under uniform inputs

    @property
    def is_useful(self) -> bool:
        return self.coverage > 0.0


def derive_predictors(circuit: Circuit, output: str,
                      subset: Sequence[str]) -> PredictorPair:
    """Exact g1/g0 for a given predictor input subset via BDDs.

    The universal quantifications ride the manager's fused
    ``and_exists`` engine through the duality
    ``forall V f = ~exists V ~f``: one traversal each, no intermediate
    conjunction, early exit on TRUE branches.
    """
    mgr = BddManager()
    f = net_bdds(circuit, mgr, nets=[output])[output]
    others = [n for n in circuit.inputs if n not in subset]
    g1 = ~(~f).and_exists(mgr.true, others)
    g0 = ~f.and_exists(mgr.true, others)

    subset = list(subset)
    g1_onset: List[int] = []
    g0_onset: List[int] = []
    # support(g1/g0) is a subset of ``subset``, so a plain evaluate
    # walk suffices — no cofactor BDDs are built per minterm.
    for m in range(1 << len(subset)):
        assignment = {name: bool((m >> i) & 1)
                      for i, name in enumerate(subset)}
        if g1.evaluate(assignment):
            g1_onset.append(m)
        if g0.evaluate(assignment):
            g0_onset.append(m)
    coverage = (g1 | g0).probability()
    return PredictorPair(subset, g1_onset, g0_onset, coverage)


def best_subset(circuit: Circuit, output: str, subset_size: int,
                max_candidates: int = 256) -> PredictorPair:
    """Search input subsets of the given size for maximum coverage.

    Exhaustive when the combination count is small; otherwise greedy
    forward growth from the best exhaustive pair.
    """
    inputs = circuit.inputs
    combos = list(itertools.combinations(inputs, subset_size))
    if len(combos) <= max_candidates:
        best: Optional[PredictorPair] = None
        for subset in combos:
            pair = derive_predictors(circuit, output, subset)
            if best is None or pair.coverage > best.coverage:
                best = pair
        assert best is not None
        return best

    # Greedy growth: exhaust pairs (coverage is usually zero for
    # singletons -- no one input decides f -- so pair seeding is the
    # smallest informative start), then add the input that maximizes
    # coverage at each step.
    seed_size = min(2, subset_size)
    best = None
    for subset in itertools.combinations(inputs, seed_size):
        pair = derive_predictors(circuit, output, subset)
        if best is None or pair.coverage > best.coverage:
            best = pair
    assert best is not None
    while len(best.subset) < subset_size:
        grown = None
        remaining = [x for x in inputs if x not in best.subset]
        room = subset_size - len(best.subset)
        # Grow by one input, or by a pair: datapath structures like
        # comparators only gain coverage when both operands' bits at a
        # position join the subset together.
        extensions = [[x] for x in remaining]
        if room >= 2:
            extensions.extend(list(combo) for combo in
                              itertools.combinations(remaining, 2))
        for extension in extensions:
            pair = derive_predictors(circuit, output,
                                     list(best.subset) + extension)
            if grown is None or pair.coverage > grown.coverage:
                grown = pair
        if grown is None or grown.coverage <= best.coverage:
            # No improvement: pad with the first spare inputs so the
            # requested size is honoured.
            pad = remaining[:room]
            best = derive_predictors(circuit, output,
                                     list(best.subset) + pad)
            break
        best = grown
    return best


def _gated_register(circuit: Circuit, data: str, enable: str,
                    name_hint: str) -> str:
    """Load-enable flop: loads ``data`` when ``enable`` = 1, else
    holds with its local clock gated off."""
    return circuit.add_latch(data, output=f"{name_hint}_q",
                             enable=enable)


def build_precomputed_circuit(circuit: Circuit, output: str,
                              predictors: PredictorPair,
                              name: Optional[str] = None) -> Circuit:
    """Assemble the Fig. 6 architecture as a real netlist.

    The result is sequential: inputs are registered (gated by the
    predictor decision from the *previous* cycle's raw inputs, as in
    the paper), block A is duplicated structurally from ``circuit``,
    and the output is muxed from block A and the registered
    predictors.
    """
    if len(circuit.outputs) != 1 or circuit.outputs[0] != output:
        raise ValueError("precomputation expects the single output "
                         f"{output!r}")
    new = Circuit(name or f"{circuit.name}_precomp")
    new.add_inputs(circuit.inputs)

    subset = predictors.subset
    n_sub = len(subset)
    g1_cover = minimize(n_sub, predictors.g1_onset)
    g0_cover = minimize(n_sub, predictors.g0_onset)
    synthesize_cover(g1_cover, subset, "g1", circuit=new)
    synthesize_cover(g0_cover, subset, "g0", circuit=new)
    predict = new.add_gate("OR2", ["g1", "g0"], output="predict")
    load_enable = new.add_gate("INV", [predict], output="le")

    # Registered predictor outputs (always clocked).
    g1_q = new.add_latch("g1", output="g1_q")
    g0_q = new.add_latch("g0", output="g0_q")
    predict_q = new.add_latch(predict, output="predict_q")

    # Gated input registers for block A.
    reg_out: Dict[str, str] = {}
    for i, net in enumerate(circuit.inputs):
        reg_out[net] = _gated_register(new, net, load_enable, f"r{i}")

    # Block A duplicated on the registered inputs.
    rename = dict(reg_out)
    for gate in circuit.topological_gates():
        ins = [rename[n] for n in gate.inputs]
        rename[gate.output] = new.add_gate(gate.gate_type, ins)

    # Output: predictor value when predicted, else block A's output.
    # (g1_q high means f = 1.)
    new.add_gate("MUX2", [rename[output], g1_q, predict_q], output="f")
    new.add_output("f")
    del g0_q
    return new


@dataclass
class PrecomputationReport:
    coverage: float
    original_power: float
    precomputed_power: float

    @property
    def saving(self) -> float:
        if self.original_power == 0:
            return 0.0
        return 1.0 - self.precomputed_power / self.original_power


def registered_baseline(circuit: Circuit, output: str) -> Circuit:
    """The always-clocked registered-input baseline of Fig. 6."""
    base = Circuit(f"{circuit.name}_registered")
    base.add_inputs(circuit.inputs)
    rename: Dict[str, str] = {}
    for i, net in enumerate(circuit.inputs):
        rename[net] = base.add_latch(net, output=f"r{i}_q")
    for gate in circuit.topological_gates():
        ins = [rename[n] for n in gate.inputs]
        rename[gate.output] = base.add_gate(gate.gate_type, ins)
    base.add_gate("BUF", [rename[output]], output="f")
    base.add_output("f")
    return base


def evaluate_precomputation(circuit: Circuit, output: str,
                            subset_size: int,
                            vectors: Sequence[Vector],
                            engine: Optional[str] = None,
                            incremental: bool = True
                            ) -> PrecomputationReport:
    """Measure power before/after precomputation on the same stimulus.

    The original circuit is compared with input registers added (so
    both designs pay register+clock power); one pipeline cycle of
    latency is inherent to the architecture and excluded from the
    functional comparison (handled by the caller/tests).

    With ``incremental`` (the default) both measurements go through
    the cone cache: the registered baseline is identical across a
    ``subset_size`` sweep (the predictor subset only shapes the
    precomputed variant), so every sweep step after the first splices
    it from cache, bit-identically.
    """
    return sweep_precomputation(circuit, output, [subset_size], vectors,
                                engine=engine,
                                incremental=incremental)[0]


def sweep_precomputation(circuit: Circuit, output: str,
                         subset_sizes: Sequence[int],
                         vectors: Sequence[Vector],
                         engine: Optional[str] = None,
                         incremental: bool = True
                         ) -> List[PrecomputationReport]:
    """One :class:`PrecomputationReport` per predictor subset size.

    The candidate loop of the pass: the registered baseline plus one
    precomputed variant per subset size, measured in one walk
    (:func:`repro.optimization.search.evaluate_candidates`).  Reports
    are bit-identical to calling :func:`evaluate_precomputation` per
    size.
    """
    from repro.optimization import search

    pairs = [best_subset(circuit, output, size)
             for size in subset_sizes]
    base = registered_baseline(circuit, output)
    variants = [build_precomputed_circuit(circuit, output, predictors)
                for predictors in pairs]
    reports = search.evaluate_candidates(
        search.activity_job, [base] + variants,
        stimuli={"stimulus": vectors},
        extras={"incremental": incremental},
        engine=engine, label="precompute")
    base_power = reports[0].average_power()
    return [PrecomputationReport(predictors.coverage, base_power,
                                 report.average_power())
            for predictors, report in zip(pairs, reports[1:])]
