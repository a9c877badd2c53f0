"""Guarded evaluation (Section III-I, [105]).

Pure guarded evaluation: find an existing signal s and an internal
signal z such that s = 1 implies z is unobservable (s implies the
observability don't-care set of z); then transparent latches guard the
inputs of the cone F driving z, freezing F whenever s = 1 — no new
logic except the guard latches is added.

Observability don't cares are computed exactly with BDDs:

    ODC_z(X) = AND_outputs (out|_{z=0} == out|_{z=1})

The timing side condition  t_l(s) < t_e(Y)  is checked with the cell
library's delays (earliest input arrival of the guarded cone vs the
guard signal's settling time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.bdd import Bdd, BddManager
from repro.logic.bdd_bridge import net_bdds
from repro.logic.netlist import Circuit, Gate
from repro.logic.simulate import Vector, collect_activity, evaluate


@dataclass
class GuardCandidate:
    """A (guard signal, guarded signal) pair with its quality."""

    guard: str            # s: when 1, z is unobservable
    guarded: str          # z: output of the cone to freeze
    cone_gates: int       # size of the frozen cone
    guard_probability: float


def _observability_dont_care(circuit: Circuit, z: str,
                             mgr: BddManager,
                             bdds: Dict[str, Bdd]) -> Bdd:
    """ODC set of net z w.r.t. all primary outputs (as input minterms)."""
    # Substitute a fresh variable for z in each output cone, then
    # compare cofactors.  Rebuild outputs as functions of (inputs, z).
    z_var = mgr.var(f"__z_{z}")
    values: Dict[str, Bdd] = {}
    for name in circuit.inputs:
        values[name] = mgr.var(name)
    for latch in circuit.latches:
        values[latch.output] = mgr.var(latch.output)
    from repro.logic.bdd_bridge import _apply_gate

    for gate in circuit.topological_gates():
        if gate.output == z:
            values[z] = z_var
            continue
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = _apply_gate(mgr, gate.gate_type, operands)

    odc = mgr.true
    for out in circuit.outputs:
        f = values[out]
        high = f.restrict({f"__z_{z}": True})
        low = f.restrict({f"__z_{z}": False})
        odc = odc & ~(high ^ low)
    return odc


def transitive_fanin_gates(circuit: Circuit, net: str) -> List[Gate]:
    """Gates in the cone driving ``net``."""
    cone: List[Gate] = []
    seen: Set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        driver = circuit._driver.get(current)
        if isinstance(driver, Gate):
            cone.append(driver)
            stack.extend(driver.inputs)
    return cone


def _arrival_times(circuit: Circuit) -> Dict[str, float]:
    times: Dict[str, float] = {n: 0.0 for n in circuit.inputs}
    times.update({l.output: 0.0 for l in circuit.latches})
    for gate in circuit.topological_gates():
        start = max((times[n] for n in gate.inputs), default=0.0)
        times[gate.output] = start + gate.spec.delay
    return times


def find_guard_candidates(circuit: Circuit, min_cone: int = 3,
                          check_timing: bool = True
                          ) -> List[GuardCandidate]:
    """Enumerate pure-guarded-evaluation opportunities.

    For every internal net z with a cone of at least ``min_cone``
    gates, test every other net s for the implication
    s = 1  =>  ODC_z, plus the timing condition.  Candidates are
    sorted by expected benefit (cone size x guard probability).
    """
    mgr = BddManager()
    bdds = net_bdds(circuit, mgr)
    arrivals = _arrival_times(circuit)
    results: List[GuardCandidate] = []

    internal = [g.output for g in circuit.gates
                if g.output not in circuit.outputs]
    for z in internal:
        cone = transitive_fanin_gates(circuit, z)
        if len(cone) < min_cone:
            continue
        cone_inputs = {n for g in cone for n in g.inputs}
        t_earliest = min((arrivals[n] for n in cone_inputs), default=0.0)
        odc = _observability_dont_care(circuit, z, mgr, bdds)
        if odc.is_false():
            continue
        cone_nets = {g.output for g in cone}
        not_odc = ~odc
        care_vars = not_odc.support()
        for s, s_bdd in bdds.items():
            if s == z or s in cone_nets or s_bdd.is_false() \
                    or s_bdd.is_true():
                continue
            # s must not itself depend on the cone output.
            if check_timing and arrivals.get(s, 0.0) >= t_earliest \
                    and s not in circuit.inputs:
                continue
            # s => ODC_z  iff  exists V (s & ~ODC_z) is empty; the fused
            # and_exists never builds the product and bails out on the
            # first satisfying branch it meets.
            if s_bdd.and_exists(not_odc, care_vars).is_false():
                results.append(GuardCandidate(
                    guard=s, guarded=z, cone_gates=len(cone),
                    guard_probability=s_bdd.probability()))
    results.sort(key=lambda c: -c.cone_gates * c.guard_probability)
    return results


def apply_guarded_evaluation(circuit: Circuit,
                             candidate: GuardCandidate,
                             name: Optional[str] = None) -> Circuit:
    """Insert guard latches on the candidate cone's inputs.

    One transparent latch (TLATCH cell + clockless hold element) per
    cone input: when the guard is 1 the cone inputs hold their
    previous value, freezing all switching inside the cone.  The
    circuit's functional outputs are unchanged because the cone's
    output is unobservable whenever the guard is high.
    """
    new = circuit.clone(name or f"{circuit.name}_guarded")
    cone = transitive_fanin_gates(new, candidate.guarded)
    cone_set = {g.name for g in cone}
    cone_inputs = sorted({n for g in cone for n in g.inputs}
                         - {g.output for g in cone})

    # Guard each cone input with a transparent latch: the TLATCH data
    # path passes the live input while the guard is low and recycles
    # the held value while it is high; the (clockless) state element
    # samples the latch output only while transparent.
    transparent = new.add_gate("INV", [candidate.guard],
                               output="guard_open")
    for i, net in enumerate(cone_inputs):
        q = f"guard{i}_q"
        held = new.add_gate("TLATCH", [net, q, candidate.guard],
                            output=f"guard{i}_d")
        new.add_latch(held, output=q, enable=transparent, clocked=False)
        for gate in new.gates:
            if gate.name in cone_set:
                gate.inputs = [held if x == net else x
                               for x in gate.inputs]
    new.invalidate()
    return new


@dataclass
class GuardedEvalReport:
    candidate: GuardCandidate
    original_power: float
    guarded_power: float
    equivalent: bool

    @property
    def saving(self) -> float:
        if self.original_power == 0:
            return 0.0
        return 1.0 - self.guarded_power / self.original_power


def evaluate_guarded(circuit: Circuit, vectors: Sequence[Vector],
                     min_cone: int = 3, top_k: int = 1,
                     engine: Optional[str] = None,
                     incremental: bool = True,
                     cross_check: bool = False,
                     workers: Union[int, str, None] = None
                     ) -> Optional[GuardedEvalReport]:
    """Apply the best guard candidate and measure the power effect.

    ``top_k > 1`` measures that many candidates and keeps the lowest-
    power one instead of trusting the static ODC-coverage ranking.
    With ``incremental`` (the default) each candidate's measurement
    resimulates only its own guarded cone plus fanout — the rest of
    the circuit (and the shared baseline) splices from the cone
    cache, which is what makes wide candidate sweeps affordable.
    ``workers`` fans the candidate measurements out over the shared
    search pool (:mod:`repro.optimization.search`); the winner — and
    every report — is bit-identical to the serial walk.
    ``cross_check`` reruns the winner on the full engine and asserts
    exact equality.
    """
    from repro.logic import incremental as inc
    from repro.optimization import search

    candidates = find_guard_candidates(circuit, min_cone=min_cone)
    if not candidates:
        return None

    def _activity(c):
        if incremental:
            return inc.collect_activity_incremental(c, vectors,
                                                    engine=engine)
        return collect_activity(c, vectors, engine=engine)

    chosen = candidates[:max(1, top_k)]
    variants = [apply_guarded_evaluation(circuit, cand)
                for cand in chosen]
    reports = search.evaluate_candidates(
        search.activity_job, [circuit] + variants,
        stimuli={"stimulus": vectors},
        extras={"incremental": incremental},
        workers=workers, engine=engine, label="guarded_eval")
    p0 = reports[0].average_power()
    best = None
    guarded = None
    p1 = 0.0
    for cand, variant, report in zip(chosen, variants, reports[1:]):
        power = report.average_power()
        if best is None or power < p1:
            best, guarded, p1 = cand, variant, power

    from repro.logic.fastsim import PackedVectors

    walk = vectors.slice(0, 50).to_vectors() \
        if isinstance(vectors, PackedVectors) else vectors[:50]
    equivalent = True
    state = {l.output: l.init for l in guarded.latches}
    for vec in walk:
        ref = evaluate(circuit, vec)
        got = evaluate(guarded, vec, state)
        from repro.logic.simulate import next_state

        state = next_state(guarded, got)
        if any(ref[o] != got[o] for o in circuit.outputs):
            equivalent = False
            break

    if cross_check:
        report = _activity(guarded)
        full = collect_activity(guarded, vectors, engine=engine)
        if not inc.reports_equal(report, full):
            raise AssertionError("incremental guarded-eval report "
                                 "diverged from full resimulation")
    return GuardedEvalReport(best, p0, p1, equivalent)
