"""Circuit-to-BDD conversion and exact probabilistic analysis.

Builds ROBDDs for every net of a combinational circuit (latch outputs
are treated as free pseudo-inputs), enabling

- exact signal probabilities under independent inputs ([27]-[31]),
- exact zero-delay transition probabilities (temporal independence),
- the BDD node counts used by the Ferrandi capacitance model [12],
- the don't-care computations behind precomputation and guarded
  evaluation (Section III-I).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.bdd import Bdd, BddManager
from repro.logic import gates as gatelib
from repro.logic.netlist import Circuit


def _truth_table_bdd(mgr: BddManager, spec: gatelib.GateSpec,
                     operands: Sequence[Bdd]) -> Bdd:
    """The cell's function from its truth table: row ``r`` (input
    ``i`` is bit ``i`` of ``r``) folded one input at a time."""
    table = gatelib.truth_table(spec)
    rows = [mgr.true if (table >> r) & 1 else mgr.false
            for r in range(1 << spec.n_inputs)]
    for op in operands:
        rows = [op.ite(rows[j + 1], rows[j])
                for j in range(0, len(rows), 2)]
    return rows[0]


def _apply_gate(mgr: BddManager, gate_type: str,
                operands: Sequence[Bdd]) -> Bdd:
    """BDD of one gate: the shipped cells by name, any other library
    entry (a cell registered again under a shipped name included)
    from its truth table."""
    spec = gatelib.LIBRARY.get(gate_type)
    if spec is not None and spec is not gatelib.BUILTIN.get(gate_type):
        return _truth_table_bdd(mgr, spec, operands)
    if gate_type == "CONST0":
        return mgr.false
    if gate_type == "CONST1":
        return mgr.true
    if gate_type in ("BUF",):
        return operands[0]
    if gate_type == "INV":
        return ~operands[0]
    if gate_type in ("MUX2", "TLATCH"):
        d0, d1, sel = operands
        return sel.ite(d1, d0)
    if gate_type == "AOI21":
        a, b, c = operands
        return ~((a & b) | c)
    base = gate_type.rstrip("0123456789")
    result = operands[0]
    if base == "AND":
        for op in operands[1:]:
            result = result & op
    elif base == "OR":
        for op in operands[1:]:
            result = result | op
    elif base == "NAND":
        for op in operands[1:]:
            result = result & op
        result = ~result
    elif base == "NOR":
        for op in operands[1:]:
            result = result | op
        result = ~result
    elif base == "XOR":
        for op in operands[1:]:
            result = result ^ op
    elif base == "XNOR":
        for op in operands[1:]:
            result = result ^ op
        result = ~result
    else:
        raise ValueError(f"no BDD semantics for gate type {gate_type!r}")
    return result


def static_order(circuit: Circuit) -> List[str]:
    """DFS-fanin variable order for the circuit's BDD variables.

    Depth-first from each primary output through the transitive fanin,
    recording primary inputs / latch outputs in first-visit order
    (Malik's classic heuristic): variables that interact through a
    common cone land next to each other, which keeps structures like
    adder and comparator chains linear where declaration order would
    separate the interacting bits.  Sources never reached from an
    output are appended in declaration order.
    """
    from repro.logic.netlist import Gate

    sources = set(circuit.inputs) | {l.output for l in circuit.latches}
    order: List[str] = []
    seen: set = set()
    for out in circuit.outputs:
        stack = [out]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in sources:
                order.append(net)
                continue
            driver = circuit._driver.get(net)
            if isinstance(driver, Gate):
                # Reverse so the gate's first input is visited first.
                stack.extend(reversed(driver.inputs))
    for name in list(circuit.inputs) + [l.output for l in circuit.latches]:
        if name not in seen:
            order.append(name)
            seen.add(name)
    return order


def build_bdds(circuit: Circuit,
               manager: Optional[BddManager] = None,
               nets: Optional[Iterable[str]] = None,
               order: str = "dfs") -> Dict[str, Bdd]:
    """BDD for every net (or the requested subset) of the circuit.

    ``order`` chooses the static variable order when the manager has no
    variables registered yet: ``"dfs"`` (default) uses
    :func:`static_order`; ``"declare"`` registers inputs and latch
    outputs in circuit order.  Managers that already carry variables
    keep their order untouched, so callers can pin one explicitly.
    """
    mgr = manager if manager is not None else BddManager()
    if order not in ("dfs", "declare"):
        raise ValueError(f"unknown static order {order!r}")
    if order == "dfs" and not mgr.variables:
        for name in static_order(circuit):
            mgr.var(name)
    values: Dict[str, Bdd] = {}
    for name in circuit.inputs:
        values[name] = mgr.var(name)
    for latch in circuit.latches:
        values[latch.output] = mgr.var(latch.output)
    for gate in circuit.topological_gates():
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = _apply_gate(mgr, gate.gate_type, operands)
    if nets is not None:
        return {n: values[n] for n in nets}
    return values


def net_bdds(circuit: Circuit,
             manager: Optional[BddManager] = None,
             nets: Optional[Iterable[str]] = None) -> Dict[str, Bdd]:
    """BDD for every net, variables registered in circuit declaration
    order (the historical default — node counts recorded by older
    experiments depend on it; new code should prefer
    :func:`build_bdds`, whose DFS-fanin order is usually far smaller).
    """
    return build_bdds(circuit, manager, nets, order="declare")


def output_bdds(circuit: Circuit,
                manager: Optional[BddManager] = None) -> Dict[str, Bdd]:
    return net_bdds(circuit, manager, nets=circuit.outputs)


def signal_probabilities(circuit: Circuit,
                         input_probs: Optional[Dict[str, float]] = None
                         ) -> Dict[str, float]:
    """Exact P(net = 1) for every net under independent inputs."""
    bdds = net_bdds(circuit)
    return {net: f.probability(input_probs) for net, f in bdds.items()}


def switching_activities(circuit: Circuit,
                         input_probs: Optional[Dict[str, float]] = None,
                         input_activities: Optional[Dict[str, float]] = None
                         ) -> Dict[str, float]:
    """Zero-delay switching activity per net under temporal independence.

    With temporally independent inputs the transition probability of a
    net with signal probability p is 2 p (1-p); if per-input switching
    activities are supplied, inputs use those values directly and
    internal nets still use the temporal-independence approximation.
    """
    probs = signal_probabilities(circuit, input_probs)
    acts: Dict[str, float] = {}
    for net, p in probs.items():
        if input_activities and net in input_activities:
            acts[net] = input_activities[net]
        else:
            acts[net] = 2.0 * p * (1.0 - p)
    return acts


def expected_switched_capacitance(circuit: Circuit,
                                  input_probs: Optional[Dict[str, float]]
                                  = None) -> float:
    """Expected switched capacitance per cycle (probabilistic estimate)."""
    acts = switching_activities(circuit, input_probs)
    fanout = circuit.fanout_map()
    return sum(acts[net] * circuit.load_capacitance(net, fanout)
               for net in circuit.nets)


def total_bdd_nodes(circuit: Circuit) -> int:
    """Shared BDD node count over all primary outputs (Ferrandi's N [12])."""
    mgr = BddManager()
    outputs = output_bdds(circuit, mgr)
    seen = set()
    count = 0
    stack = [f.root for f in outputs.values()]
    while stack:
        node_id = stack.pop()
        if node_id <= 1 or node_id in seen:
            continue
        seen.add(node_id)
        count += 1
        node = mgr._node(node_id)
        stack.append(node.low)
        stack.append(node.high)
    return count
