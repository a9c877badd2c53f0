"""Controller respecification for control-flow-intensive designs
(Section III-I end, Raghunathan et al. [107], [108]).

In mux-dominated RTL, control signals often carry don't-care values on
cycles where the steering network's output is unobservable (the
selected path does not depend on them).  Respecifying those don't
cares — holding each control signal at its previous value instead of
letting the controller toggle it arbitrarily — removes switching in
the multiplexor network and the functional units behind it at zero
logic cost.

Implemented on gate netlists: control nets are the select pins of
MUX2 cells; a select's don't-care cycles are those where the mux
output is unobservable (reusing the ODC machinery of guarded
evaluation).  :func:`respecify_controls` transforms a control *trace*
(the controller's output sequence); :func:`evaluate_respecification`
measures the power effect on the full netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd import Bdd, BddManager
from repro.logic.bdd_bridge import net_bdds
from repro.logic.netlist import Circuit, Gate
from repro.logic.simulate import Vector, evaluate


def control_inputs(circuit: Circuit) -> List[str]:
    """Primary inputs used (only) as MUX2 select pins."""
    selects: Set[str] = set()
    data_uses: Set[str] = set()
    for gate in circuit.gates:
        if gate.gate_type == "MUX2":
            selects.add(gate.inputs[2])
            data_uses.update(gate.inputs[:2])
        else:
            data_uses.update(gate.inputs)
    return [n for n in circuit.inputs
            if n in selects and n not in data_uses]


def observability_conditions(circuit: Circuit,
                             controls: Sequence[str]
                             ) -> Dict[str, Bdd]:
    """For each control input, the condition under which it matters.

    A control is observable on an input minterm iff flipping it
    changes some primary output; its don't-care set is the complement.
    """
    mgr = BddManager()
    bdds = net_bdds(circuit, mgr)
    conditions: Dict[str, Bdd] = {}
    for control in controls:
        observable = mgr.false
        for out in circuit.outputs:
            f = bdds[out]
            high = f.restrict({control: True})
            low = f.restrict({control: False})
            observable = observable | (high ^ low)
        conditions[control] = observable
    return conditions


@dataclass
class RespecificationReport:
    controls: List[str]
    changed_cycles: int
    original_power: float
    respecified_power: float
    equivalent: bool

    @property
    def saving(self) -> float:
        if self.original_power == 0:
            return 0.0
        return 1.0 - self.respecified_power / self.original_power


def respecify_controls(circuit: Circuit, vectors: Sequence[Vector],
                       controls: Optional[Sequence[str]] = None
                       ) -> Tuple[List[Vector], List[str], int]:
    """Rewrite control values on their don't-care cycles.

    Each control keeps its previous value whenever the current cycle
    does not observe it.  Returns (new vectors, controls used, number
    of changed control values).
    """
    if controls is None:
        controls = control_inputs(circuit)
    conditions = observability_conditions(circuit, controls)

    new_vectors: List[Vector] = []
    previous: Dict[str, int] = {}
    changed = 0
    for vec in vectors:
        new_vec = dict(vec)
        # Holding one control can re-expose another (its observability
        # may depend on the first), so iterate to a fixpoint: a control
        # is held only if it is unobservable under the *final* values
        # of all controls; otherwise it reverts to its specified value.
        for _pass in range(len(controls) + 1):
            stable = True
            assignment = {n: bool(v) for n, v in new_vec.items()}
            for control in controls:
                rest = {k: v for k, v in assignment.items()
                        if k != control}
                cares = conditions[control].restrict(rest)
                if cares.is_false() and control in previous:
                    desired = previous[control]
                else:
                    desired = vec[control]
                if new_vec[control] != desired:
                    new_vec[control] = desired
                    assignment[control] = bool(desired)
                    stable = False
            if stable:
                break
        # Safety net: never emit a trace that changes the outputs.
        ref = evaluate(circuit, vec)
        got = evaluate(circuit, new_vec)
        if any(ref[o] != got[o] for o in circuit.outputs):
            new_vec = dict(vec)
        changed += sum(1 for c in controls if new_vec[c] != vec[c])
        for control in controls:
            previous[control] = new_vec[control]
        new_vectors.append(new_vec)
    return new_vectors, list(controls), changed


def evaluate_respecification(circuit: Circuit,
                             vectors: Sequence[Vector],
                             engine: Optional[str] = None,
                             incremental: bool = True
                             ) -> RespecificationReport:
    """Respecify the control trace and measure the power effect.

    Both measurements use the same netlist under *different* stimuli.
    With ``incremental`` (the default) they share the cone cache: cone
    keys hash each cone's support-input lanes, so cones fed only by
    data inputs (whose lanes the respecification leaves untouched)
    splice from the first run and only the control-fed cones
    resimulate.
    """
    from repro.optimization import search

    new_vectors, controls, changed = respecify_controls(circuit, vectors)

    equivalent = True
    for old, new in zip(vectors, new_vectors):
        va = evaluate(circuit, old)
        vb = evaluate(circuit, new)
        if any(va[o] != vb[o] for o in circuit.outputs):
            equivalent = False
            break

    report0, report1 = search.evaluate_candidates(
        search.activity_job,
        [(circuit, "orig"), (circuit, "respec")],
        stimuli={"orig": list(vectors), "respec": new_vectors},
        extras={"incremental": incremental},
        engine=engine, label="respecification")
    p0 = report0.average_power()
    p1 = report1.average_power()
    return RespecificationReport(
        controls=controls,
        changed_cycles=changed,
        original_power=p0,
        respecified_power=p1,
        equivalent=equivalent,
    )
