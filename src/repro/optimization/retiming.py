"""Retiming for performance and power (Section III-J).

Two layers:

- :func:`min_period_retiming` -- classic Leiserson-Saxe [110] on an
  abstract retiming graph (networkx): binary-search the clock period,
  testing feasibility with the Bellman-Ford constraint system over
  W/D-style inequalities,
- :func:`low_power_pipeline` / :func:`evaluate_power_retiming` -- the
  Monteiro heuristic [111] on real netlists: registers placed at the
  outputs of glitch-heavy gates kill glitch propagation (a register
  output toggles at most once per cycle), so candidate gates are
  ranked by (glitching at the gate) x (downstream capacitance), and a
  pipeline cut through the top candidates is compared against a plain
  depth-balanced cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.logic.eventsim import EventSimulator
from repro.logic.fasttimer import timed_activity_cached
from repro.logic.fastsim import PackedVectors
from repro.logic.netlist import Circuit, Gate
from repro.logic.simulate import Vector, collect_activity


# ----------------------------------------------------------------------
# Leiserson-Saxe min-period retiming on an abstract graph
# ----------------------------------------------------------------------

def retimed_period(graph: nx.DiGraph, retiming: Dict[str, int]) -> float:
    """Clock period of a retimed graph (longest register-free path).

    Nodes carry ``delay``; edges carry ``weight`` (register count).
    The retimed weight of edge (u, v) is w + r(v) - r(u).
    """
    zero_edges = [(u, v) for u, v, data in graph.edges(data=True)
                  if data["weight"] + retiming.get(v, 0)
                  - retiming.get(u, 0) == 0]
    sub = graph.edge_subgraph(zero_edges) if zero_edges \
        else nx.DiGraph()
    longest: Dict[str, float] = {}
    period = max((graph.nodes[n]["delay"] for n in graph.nodes),
                 default=0.0)
    if sub.number_of_nodes() and not nx.is_directed_acyclic_graph(sub):
        return float("inf")   # a register-free cycle: unclockable
    order = list(nx.topological_sort(sub)) if sub.number_of_nodes() \
        else []
    for node in order:
        arrive = graph.nodes[node]["delay"] + max(
            (longest[p] for p in sub.predecessors(node)), default=0.0)
        longest[node] = arrive
        period = max(period, arrive)
    return period


def is_legal_retiming(graph: nx.DiGraph, retiming: Dict[str, int]) -> bool:
    return all(
        data["weight"] + retiming.get(v, 0) - retiming.get(u, 0) >= 0
        for u, v, data in graph.edges(data=True))


def _feasible(graph: nx.DiGraph, period: float
              ) -> Optional[Dict[str, int]]:
    """FEAS-style test: iterate Bellman-Ford on the constraint graph.

    Constraints: r(u) - r(v) <= w(e)            for every edge, and
                 r(u) - r(v) <= w_path - 1       for every path with
                 delay > period (handled by the iterative relaxation
    of arrival times, the standard FEAS algorithm).
    """
    retiming = {n: 0 for n in graph.nodes}
    n_nodes = graph.number_of_nodes()
    for _ in range(n_nodes + 1):
        # Compute arrival times under current retiming.
        zero_edges = [(u, v) for u, v, data in graph.edges(data=True)
                      if data["weight"] + retiming[v] - retiming[u] == 0]
        sub = graph.edge_subgraph(zero_edges) if zero_edges \
            else nx.DiGraph()
        arrival: Dict[str, float] = {}
        try:
            order = list(nx.topological_sort(sub)) \
                if sub.number_of_nodes() else []
        except nx.NetworkXUnfeasible:
            return None
        for node in graph.nodes:
            arrival.setdefault(node, graph.nodes[node]["delay"])
        for node in order:
            arrival[node] = graph.nodes[node]["delay"] + max(
                (arrival[p] for p in sub.predecessors(node)), default=0.0)
        violations = [n for n in graph.nodes if arrival[n] > period]
        if not violations:
            if is_legal_retiming(graph, retiming):
                return retiming
            return None
        for node in violations:
            retiming[node] += 1
    return None


def min_period_retiming(graph: nx.DiGraph
                        ) -> Tuple[float, Dict[str, int]]:
    """Binary search over achievable periods with the FEAS test."""
    delays = sorted({graph.nodes[n]["delay"] for n in graph.nodes})
    base = retimed_period(graph, {n: 0 for n in graph.nodes})
    # Candidate periods: path-delay values up to the current period.
    candidates = sorted({d for d in _candidate_periods(graph)
                         if d <= base})
    best_period = base
    best_retiming = {n: 0 for n in graph.nodes}
    lo, hi = 0, len(candidates) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        retiming = _feasible(graph, candidates[mid])
        if retiming is not None:
            best_period = candidates[mid]
            best_retiming = retiming
            hi = mid - 1
        else:
            lo = mid + 1
    del delays
    return best_period, best_retiming


def _candidate_periods(graph: nx.DiGraph) -> List[float]:
    """All distinct path delays (sums of node delays) up to n nodes."""
    totals: Set[float] = set()
    nodes = list(graph.nodes)
    for start in nodes:
        stack = [(start, graph.nodes[start]["delay"], {start})]
        while stack:
            node, total, seen = stack.pop()
            totals.add(total)
            for succ in graph.successors(node):
                if succ in seen or len(seen) > 12:
                    continue
                stack.append((succ, total + graph.nodes[succ]["delay"],
                              seen | {succ}))
    return sorted(totals)


def circuit_to_retiming_graph(circuit: Circuit) -> nx.DiGraph:
    """Netlist -> retiming graph (gates = nodes, latches = weights).

    A host node of zero delay models the environment (inputs/outputs),
    as in the Leiserson-Saxe formulation.
    """
    graph = nx.DiGraph()
    graph.add_node("host", delay=0.0)
    for gate in circuit.gates:
        graph.add_node(gate.name, delay=gate.spec.delay)
    gate_of_net: Dict[str, str] = {}
    latch_of_net: Dict[str, str] = {}
    for gate in circuit.gates:
        gate_of_net[gate.output] = gate.name
    for latch in circuit.latches:
        latch_of_net[latch.output] = latch.data

    def source_of(net: str, weight: int = 0) -> Tuple[str, int]:
        while net in latch_of_net:
            weight += 1
            net = latch_of_net[net]
        if net in gate_of_net:
            return gate_of_net[net], weight
        return "host", weight      # primary input

    def add_edge(src: str, dst: str, weight: int) -> None:
        if graph.has_edge(src, dst):
            graph[src][dst]["weight"] = min(graph[src][dst]["weight"],
                                            weight)
        else:
            graph.add_edge(src, dst, weight=weight)

    for gate in circuit.gates:
        for net in gate.inputs:
            src, weight = source_of(net)
            add_edge(src, gate.name, weight)
    for out in circuit.outputs:
        src, weight = source_of(out)
        add_edge(src, "host", weight)
    return graph


# ----------------------------------------------------------------------
# Low-power retiming on real netlists (Monteiro heuristic)
# ----------------------------------------------------------------------

def _packed_stimulus(circuit: Circuit, vectors: Sequence[Vector]):
    """Pack the stimulus once so every candidate circuit reuses it.

    Retiming scores dozens of candidate netlists against the same
    vectors; candidates keep the original input names, so one
    :class:`PackedVectors` batch serves them all on the fast engines.
    """
    if isinstance(vectors, PackedVectors):
        return vectors
    try:
        return PackedVectors.from_vectors(circuit.inputs, list(vectors))
    except KeyError:
        return vectors      # partial vectors: reference semantics


def glitch_scores(circuit: Circuit, vectors: Sequence[Vector]
                  ) -> Dict[str, float]:
    """Candidate score per gate output: glitching x downstream load."""
    vectors = _packed_stimulus(circuit, vectors)
    sim = EventSimulator(circuit)
    glitches = sim.glitch_report(vectors)
    fanout = circuit.fanout_map()
    scores: Dict[str, float] = {}
    for gate in circuit.gates:
        net = gate.output
        downstream = len(fanout.get(net, []))
        scores[net] = glitches.get(net, 0.0) * (1.0 + downstream)
    return scores


def net_levels(circuit: Circuit) -> Dict[str, int]:
    """Logic level of every net (inputs and latch outputs at 0)."""
    level: Dict[str, int] = {n: 0 for n in circuit.inputs}
    level.update({l.output: 0 for l in circuit.latches})
    for gate in circuit.topological_gates():
        level[gate.output] = 1 + max((level.get(n, 0)
                                      for n in gate.inputs), default=0)
    return level


def pipeline_at_level(circuit: Circuit, threshold: int,
                      name: Optional[str] = None
                      ) -> Tuple[Circuit, int]:
    """Insert one pipeline stage at the given level boundary.

    Every edge from a net at level <= threshold into a gate whose
    output sits above the threshold is registered (one shared register
    per net); shallow primary outputs are registered directly.  Since
    levels increase strictly along every path, each input-to-output
    path crosses exactly one register: the result computes the same
    function one cycle later.  Returns (circuit, registers inserted).
    """
    level = net_levels(circuit)
    new = Circuit(name or f"{circuit.name}_retimed")
    new.add_inputs(circuit.inputs)
    raw: Dict[str, str] = {n: n for n in circuit.inputs}
    registered: Dict[str, str] = {}
    n_registers = 0

    def rename(net: str) -> str:
        driver = circuit._driver.get(net)
        if driver == "input" or not isinstance(driver, Gate):
            return net              # inputs and latch outputs keep names
        return f"c_{net}"

    # Existing latches are copied verbatim (their outputs are roots at
    # level 0); their data nets point at the renamed drivers.
    for latch in circuit.latches:
        new.add_latch(rename(latch.data), output=latch.output,
                      init=latch.init,
                      enable=rename(latch.enable)
                      if latch.enable else None,
                      clocked=latch.clocked)
        raw[latch.output] = latch.output

    def reg_of(net: str) -> str:
        nonlocal n_registers
        if net not in registered:
            registered[net] = new.add_latch(raw[net],
                                            output=f"r_{net}")
            n_registers += 1
        return registered[net]

    for gate in circuit.topological_gates():
        out_level = level[gate.output]
        ins = []
        for net in gate.inputs:
            if out_level > threshold and level.get(net, 0) <= threshold:
                ins.append(reg_of(net))
            else:
                ins.append(raw[net])
        raw[gate.output] = new.add_gate(gate.gate_type, ins,
                                        output=f"c_{gate.output}")
    for out in circuit.outputs:
        source = raw[out] if level.get(out, 0) > threshold \
            else reg_of(out)
        final = new.add_gate("BUF", [source], output=out)
        new.add_output(final)
    return new, n_registers


def pipeline_multistage(circuit: Circuit,
                        thresholds: Sequence[int],
                        name: Optional[str] = None
                        ) -> Tuple[Circuit, int]:
    """Insert one register stage per threshold level (deep pipelining).

    Thresholds must be strictly increasing; every input-to-output path
    crosses exactly ``len(thresholds)`` registers, so the result
    computes the same function ``len(thresholds)`` cycles later.
    """
    levels = sorted(set(thresholds))
    if levels != list(thresholds):
        raise ValueError("thresholds must be strictly increasing")
    current = circuit
    total_registers = 0
    for k, threshold in enumerate(levels):
        # Each earlier stage inserts registers at level <= its
        # threshold; gate levels shift by 0 within this framework
        # because pipeline_at_level recomputes levels on the rebuilt
        # circuit (registers sit at level 0 boundaries).
        adjusted = threshold if k == 0 else threshold - levels[k - 1]
        current, n_regs = pipeline_at_level(
            current, max(1, adjusted),
            name=name or f"{circuit.name}_p{k}")
        total_registers += n_regs
    return current, total_registers


def _cut_score(circuit: Circuit, scores: Dict[str, float],
               threshold: int) -> Tuple[float, int]:
    """(glitch mass killed, registers needed) for a level boundary."""
    level = net_levels(circuit)
    fanout = circuit.fanout_map()
    killed = 0.0
    registers = 0
    for net, lvl in level.items():
        if lvl > threshold:
            continue
        crossing = any(
            isinstance(consumer, Gate)
            and level[consumer.output] > threshold
            for consumer, _pin in fanout.get(net, []))
        shallow_output = net in circuit.outputs and lvl <= threshold
        if crossing or shallow_output:
            registers += 1
            killed += scores.get(net, 0.0)
    return killed, registers


def _probe_level_job(threshold: int, ctx) -> float:
    """Search-pool job: timed power of one pipeline-cut candidate.

    The candidate netlist is rebuilt in the worker from the shipped
    base circuit (cheap, deterministic) so jobs carry only an int;
    :func:`timed_activity_cached` memoizes the timed run through the
    sweep's shared activity store, so re-probed levels — by any
    worker or the parent — splice instead of resimulating.
    """
    candidate, _n = pipeline_at_level(ctx.extras["circuit"], threshold)
    return timed_activity_cached(candidate, ctx.stimulus("probe"),
                                 engine=ctx.engine).average_power()


def choose_low_power_level(circuit: Circuit, vectors: Sequence[Vector],
                           candidates: int = 3,
                           probe_vectors: int = 60,
                           engine: Optional[str] = None) -> int:
    """Boundary level chosen by the Monteiro rule, confirmed by timing
    simulation.

    Levels are ranked by glitch mass killed per register (gates with
    high glitching and high downstream load should receive registers
    on their outputs); the top candidates — always including the
    mid-depth baseline — are then measured with a short event-driven
    probe and the lowest-power one wins.
    """
    vectors = _packed_stimulus(circuit, vectors)
    scores = glitch_scores(circuit, vectors)
    depth = circuit.depth()
    ranked = sorted(
        range(1, depth),
        key=lambda th: -(_cut_score(circuit, scores, th)[0]
                         / max(1, _cut_score(circuit, scores, th)[1])))
    if isinstance(vectors, PackedVectors):
        k = min(probe_vectors, vectors.n)
        probe = PackedVectors(vectors.names, k,
                              {name: w & ((1 << k) - 1)
                               for name, w in vectors.words.items()})
    else:
        probe = list(vectors[:probe_vectors])
    shortlist = sorted(set(ranked[:candidates]) | {max(1, depth // 2)})

    from repro.optimization import search

    powers = search.evaluate_candidates(
        _probe_level_job, shortlist,
        stimuli={"probe": probe},
        extras={"circuit": circuit},
        engine=engine, label="retiming")
    best_level = max(1, depth // 2)
    best_power = float("inf")
    for threshold, power in zip(shortlist, powers):
        if power < best_power:
            best_power = power
            best_level = threshold
    return best_level


@dataclass
class RetimingPowerReport:
    combinational_power: float
    depth_cut_power: float
    low_power_cut_power: float
    depth_cut_registers: int
    low_power_registers: int
    depth_cut_level: int
    low_power_level: int

    @property
    def glitch_saving(self) -> float:
        if self.depth_cut_power == 0:
            return 0.0
        return 1.0 - self.low_power_cut_power / self.depth_cut_power


def evaluate_power_retiming(circuit: Circuit, vectors: Sequence[Vector],
                            engine: Optional[str] = None
                            ) -> RetimingPowerReport:
    """Compare register placements: glitch-aware vs mid-depth cuts.

    All powers are measured with the event-driven (glitch-accurate)
    simulator, which is the entire point of the technique.  Each
    measurement goes through :func:`timed_activity_cached`: the
    circuit name is excluded from :meth:`Circuit.fingerprint`, so
    when the glitch-aware level coincides with the mid-depth cut the
    "smart" netlist is structurally identical to the "plain" one and
    its timed run is served from the activity store.
    """
    vectors = _packed_stimulus(circuit, vectors)
    base = timed_activity_cached(circuit, vectors,
                                 engine=engine).average_power()

    mid = max(1, circuit.depth() // 2)
    plain, plain_regs = pipeline_at_level(circuit, mid, name="plain_cut")
    plain_power = timed_activity_cached(plain, vectors,
                                        engine=engine).average_power()

    smart_level = choose_low_power_level(circuit, vectors, engine=engine)
    smart, smart_regs = pipeline_at_level(circuit, smart_level,
                                          name="smart_cut")
    smart_power = timed_activity_cached(smart, vectors,
                                        engine=engine).average_power()

    return RetimingPowerReport(
        combinational_power=base,
        depth_cut_power=plain_power,
        low_power_cut_power=smart_power,
        depth_cut_registers=plain_regs,
        low_power_registers=smart_regs,
        depth_cut_level=mid,
        low_power_level=smart_level,
    )
