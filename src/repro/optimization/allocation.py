"""Resource allocation and binding for low power (Section III-E).

Implements the Raghunathan-Jha style simultaneous allocation [65] on
scheduled CDFGs:

- a *compatibility graph* over variables (for registers) or operations
  (for functional units): nodes are compatible when their lifetimes /
  control steps do not overlap,
- edge weights  W = W_c (1 - W_s)  combine the capacitance saving of
  sharing (W_c) with the normalized average bit switching W_s between
  the two candidates' data (from high-level CDFG simulation),
- iterative merging by decreasing weight binds nodes to shared
  resources.

Baselines: left-edge register allocation (capacitance-only) and
switching-blind greedy binding, so the 5-33% power-saving claim of the
paper (bench C8) can be measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backend.core import resolve_engine
from repro.cdfg.graph import Cdfg, CdfgNode
from repro.cdfg.schedule import Schedule
from repro.rtl import faststreams
from repro.util.bits import hamming


# ----------------------------------------------------------------------
# Variable lifetimes (register allocation)
# ----------------------------------------------------------------------

@dataclass
class Lifetime:
    """A value produced by node ``uid`` alive during [birth, death]."""

    uid: int
    birth: int
    death: int

    def overlaps(self, other: "Lifetime") -> bool:
        return not (self.death <= other.birth or other.death <= self.birth)


def variable_lifetimes(cdfg: Cdfg, schedule: Schedule) -> List[Lifetime]:
    """One lifetime per operation value consumed in a later step."""
    succ = cdfg.successors()
    lifetimes: List[Lifetime] = []
    for node in cdfg.operations():
        consumers = [s for s in succ[node.uid]
                     if cdfg.node(s).is_operation()]
        is_output = node.uid in cdfg.outputs.values()
        if not consumers and not is_output:
            continue
        birth = schedule.finish(node.uid)
        death = max([schedule.steps[s] for s in consumers]
                    + ([schedule.latency + 1] if is_output else []))
        if death > birth:
            lifetimes.append(Lifetime(node.uid, birth, death))
    return lifetimes


def left_edge_registers(lifetimes: Sequence[Lifetime]) -> Dict[int, int]:
    """Classic left-edge algorithm: uid -> register index."""
    assignment: Dict[int, int] = {}
    remaining = sorted(lifetimes, key=lambda l: (l.birth, l.death))
    register = 0
    while remaining:
        current_end = -1
        leftover: List[Lifetime] = []
        for life in remaining:
            if life.birth >= current_end:
                assignment[life.uid] = register
                current_end = life.death
            else:
                leftover.append(life)
        remaining = leftover
        register += 1
    return assignment


# ----------------------------------------------------------------------
# Switching statistics from high-level simulation
# ----------------------------------------------------------------------

def average_switch_fraction(values_a: Sequence[int],
                            values_b: Sequence[int], width: int,
                            engine: Optional[str] = None) -> float:
    """Average fraction of bits flipping when b's data follows a's."""
    if not values_a or not values_b:
        return 0.5
    n = min(len(values_a), len(values_b))
    if resolve_engine(engine) == "fast":
        total = faststreams.cross_hamming(values_a, values_b, width)
    else:
        total = sum(hamming(values_a[t], values_b[t]) for t in range(n))
    return total / (n * width)


def pairwise_switch_fractions(uids: Sequence[int],
                              traces: Dict[int, Sequence[int]],
                              width: int) -> Dict[Tuple[int, int], float]:
    """Switch fractions for every uid pair, via one packed matrix.

    Equivalent to calling :func:`average_switch_fraction` on each of
    the O(n^2) pairs, but each trace is packed once and every pair
    costs a single xor+popcount over the packed bignums.
    """
    trace_list = [traces[uid] for uid in uids]
    matrix = faststreams.pairwise_hamming_matrix(trace_list, width)
    fractions: Dict[Tuple[int, int], float] = {}
    for i, a in enumerate(uids):
        for j in range(i + 1, len(uids)):
            b = uids[j]
            n = min(len(trace_list[i]), len(trace_list[j]))
            if n == 0:
                fractions[(a, b)] = 0.5
            else:
                fractions[(a, b)] = matrix[i][j] / (n * width)
    return fractions


# ----------------------------------------------------------------------
# Weighted compatibility-graph allocation
# ----------------------------------------------------------------------

@dataclass
class AllocationResult:
    assignment: Dict[int, int]      # uid -> resource index
    n_resources: int
    switching_cost: float           # expected bits switched / iteration


def _merge_allocate(items: Sequence[int],
                    compatible: Dict[Tuple[int, int], bool],
                    weight: Dict[Tuple[int, int], float]) -> Dict[int, int]:
    """Iteratively merge the highest-weight compatible pair [65]."""
    clusters: List[Set[int]] = [{uid} for uid in items]

    def cluster_weight(a: Set[int], b: Set[int]) -> Optional[float]:
        total = 0.0
        for x in a:
            for y in b:
                key = (x, y) if x < y else (y, x)
                if not compatible.get(key, False):
                    return None
                total += weight.get(key, 0.0)
        return total

    improved = True
    while improved:
        improved = False
        best: Optional[Tuple[float, int, int]] = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                w = cluster_weight(clusters[i], clusters[j])
                if w is not None and (best is None or w > best[0]):
                    best = (w, i, j)
        if best is not None and best[0] > 0:
            _w, i, j = best
            clusters[i] |= clusters[j]
            del clusters[j]
            improved = True
    assignment: Dict[int, int] = {}
    for index, cluster in enumerate(clusters):
        for uid in cluster:
            assignment[uid] = index
    return assignment


def _binding_switching(order_by_resource: Dict[int, List[int]],
                       traces: Dict[int, List[int]],
                       width: int,
                       engine: Optional[str] = None) -> float:
    """Bits switched per iteration at shared-resource inputs."""
    total = 0.0
    cycles = len(next(iter(traces.values()))) if traces else 1
    if resolve_engine(engine) == "fast":
        packs: Dict[int, int] = {}

        def packed(uid: int) -> int:
            if uid not in packs:
                packs[uid] = faststreams.pack_words(traces[uid], width)
            return packs[uid]

        for uids in order_by_resource.values():
            if len(uids) < 2:
                continue
            for a, b in zip(uids, uids[1:]):
                total += faststreams.cross_hamming(
                    traces[a], traces[b], width, packed(a), packed(b))
        return total / max(1, cycles)
    for uids in order_by_resource.values():
        if len(uids) < 2:
            continue
        for t in range(cycles):
            for a, b in zip(uids, uids[1:]):
                total += hamming(traces[a][t], traces[b][t])
    return total / max(1, cycles)


def allocate_registers(cdfg: Cdfg, schedule: Schedule,
                       input_streams: Dict[str, Sequence[int]],
                       activity_aware: bool = True) -> AllocationResult:
    """Register allocation via the weighted compatibility graph.

    W_c is constant (every merge saves one register of capacitance);
    W_s is the average bit-switch fraction between the two variables'
    value streams, so W = 1 - W_s ranks low-switching merges first.
    With ``activity_aware=False``, W_s is ignored (pure left-edge-like
    sharing), the paper's baseline.
    """
    lifetimes = variable_lifetimes(cdfg, schedule)
    traces = cdfg.simulate(input_streams)
    by_uid = {l.uid: l for l in lifetimes}
    uids = sorted(by_uid)

    def build(weighted: bool) -> AllocationResult:
        compatible: Dict[Tuple[int, int], bool] = {}
        weight: Dict[Tuple[int, int], float] = {}
        fractions = pairwise_switch_fractions(uids, traces, cdfg.width) \
            if weighted else {}
        for i, a in enumerate(uids):
            for b in uids[i + 1:]:
                key = (a, b)
                compatible[key] = not by_uid[a].overlaps(by_uid[b])
                if weighted:
                    weight[key] = 1.0 * (1.0 - fractions[key])
                else:
                    weight[key] = 1.0
        assignment = _merge_allocate(uids, compatible, weight)
        order: Dict[int, List[int]] = {}
        for uid in uids:
            order.setdefault(assignment[uid], []).append(uid)
        for group in order.values():
            group.sort(key=lambda u: by_uid[u].birth)
        cost = _binding_switching(order, traces, cdfg.width)
        return AllocationResult(assignment, len(order), cost)

    blind = build(weighted=False)
    if not activity_aware:
        return blind
    # The weighted greedy merge is a heuristic; keep whichever
    # clustering actually switches less (never worse than blind, at
    # equal register counts the tie goes to the weighted one).
    aware = build(weighted=True)
    if (aware.switching_cost, aware.n_resources) <= \
            (blind.switching_cost, blind.n_resources):
        return aware
    if blind.switching_cost < aware.switching_cost:
        return blind
    return aware


def bind_functional_units(cdfg: Cdfg, schedule: Schedule,
                          input_streams: Dict[str, Sequence[int]],
                          activity_aware: bool = True) -> Dict[
                              str, AllocationResult]:
    """Module binding per operation kind with the same machinery.

    Two operations are compatible when scheduled in disjoint busy
    intervals; W_s is the switch fraction between their (first)
    operand streams.
    """
    traces = cdfg.simulate(input_streams)
    results: Dict[str, AllocationResult] = {}
    by_kind: Dict[str, List[CdfgNode]] = {}
    for node in cdfg.operations():
        by_kind.setdefault(node.kind, []).append(node)

    for kind, nodes in by_kind.items():
        uids = sorted(n.uid for n in nodes)
        op_traces = {uid: _operand_trace(cdfg, traces, uid)
                     for uid in uids}
        compatible: Dict[Tuple[int, int], bool] = {}
        weight: Dict[Tuple[int, int], float] = {}
        fractions = pairwise_switch_fractions(uids, op_traces,
                                              cdfg.width) \
            if activity_aware else {}
        for i, a in enumerate(uids):
            for b in uids[i + 1:]:
                key = (a, b)
                a_busy = (schedule.steps[a], schedule.finish(a))
                b_busy = (schedule.steps[b], schedule.finish(b))
                compatible[key] = (a_busy[1] < b_busy[0]
                                   or b_busy[1] < a_busy[0])
                if activity_aware:
                    weight[key] = 1.0 - fractions[key]
                else:
                    weight[key] = 1.0
        assignment = _merge_allocate(uids, compatible, weight)
        order: Dict[int, List[int]] = {}
        for uid in uids:
            order.setdefault(assignment[uid], []).append(uid)
        for group in order.values():
            group.sort(key=lambda u: schedule.steps[u])
        cost = _binding_switching(order, op_traces, cdfg.width)
        results[kind] = AllocationResult(assignment, len(order), cost)
    return results


def _operand_trace(cdfg: Cdfg, traces: Dict[int, List[int]],
                   uid: int) -> List[int]:
    node = cdfg.node(uid)
    return traces[node.operands[0]]
