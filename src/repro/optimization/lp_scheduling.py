"""Low-power operation scheduling (Section III-D).

- :func:`activity_aware_schedule` -- Musoll-Cortadella [60]: a list
  scheduler whose priority favours placing operations that share an
  input operand consecutively on the same functional unit, so FU
  inputs do not change between activations,
- :func:`fu_input_switching`     -- the cost both schedulers are
  judged by: expected bit switching at FU inputs under a greedy
  in-order binding and high-level input statistics,
- :func:`power_management_schedule` -- Monteiro et al. [63]: for each
  mux, schedule the control cone ALAP-before and the data cones
  ASAP-after the decision, so the unselected cone's units can be shut
  down; reports which muxes are power-manageable and the expected
  fraction of operation executions saved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backend.core import resolve_engine
from repro.cdfg.graph import Cdfg, CdfgNode
from repro.cdfg.schedule import Schedule, alap, asap, list_schedule
from repro.rtl import faststreams
from repro.util.bits import hamming


# ----------------------------------------------------------------------
# Musoll-Cortadella: operand-sharing-aware scheduling
# ----------------------------------------------------------------------

def shared_operand_pairs(cdfg: Cdfg) -> Dict[Tuple[int, int], int]:
    """Number of shared operand sources for every same-kind op pair."""
    pairs: Dict[Tuple[int, int], int] = {}
    ops = cdfg.operations()
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a.kind != b.kind:
                continue
            shared = len(set(a.operands) & set(b.operands))
            if shared:
                pairs[(a.uid, b.uid)] = shared
    return pairs


def activity_aware_schedule(cdfg: Cdfg, resources: Dict[str, int],
                            delays: Optional[Dict[str, int]] = None
                            ) -> Schedule:
    """List scheduling with dynamic operand-sharing affinity.

    At every step, among ready operations of a kind with a free unit,
    the scheduler prefers the one sharing the most operand sources
    with the operation most recently executed on that kind's units --
    so a shared FU sees repeated operands in consecutive activations
    (Musoll-Cortadella's objective).  Criticality breaks ties, keeping
    the latency of plain list scheduling.
    """
    from repro.cdfg.schedule import UNIT_DELAYS, _criticality

    delays = dict(delays or UNIT_DELAYS)
    criticality = _criticality(cdfg, delays)
    ops = cdfg.operations()
    pending = {n.uid for n in ops}
    finish: Dict[int, int] = {}
    steps: Dict[int, int] = {}
    busy: Dict[str, int] = {}
    running: List[Tuple[int, str, int]] = []
    last_operands: Dict[str, Set[int]] = {}
    step = 0
    while pending:
        step += 1
        for f, kind, uid in list(running):
            if f < step:
                busy[kind] -= 1
                running.remove((f, kind, uid))
        ready = []
        for uid in pending:
            node = cdfg.node(uid)
            ok = all(not cdfg.node(op).is_operation()
                     or (op not in pending and finish[op] < step)
                     for op in node.operands)
            if ok:
                ready.append(uid)

        def affinity(uid: int) -> int:
            node = cdfg.node(uid)
            shared = last_operands.get(node.kind)
            if not shared:
                return 0
            return len(set(node.operands) & shared)

        ready.sort(key=lambda uid: (-affinity(uid),
                                    -criticality.get(uid, 0.0)))
        for uid in ready:
            kind = cdfg.node(uid).kind
            limit = resources.get(kind)
            if limit is not None and busy.get(kind, 0) >= limit:
                continue
            steps[uid] = step
            f = step + delays.get(kind, 1) - 1
            finish[uid] = f
            busy[kind] = busy.get(kind, 0) + 1
            running.append((f, kind, uid))
            pending.discard(uid)
            last_operands[kind] = set(cdfg.node(uid).operands)
        if step > 10 * (len(ops) + 1) * max(delays.values()):
            raise RuntimeError("scheduling failed to converge")
    return Schedule(cdfg, steps, delays)


def greedy_binding(cdfg: Cdfg, schedule: Schedule,
                   resources: Dict[str, int]) -> Dict[int, Tuple[str, int]]:
    """Bind each operation to (kind, unit index), in-order per step.

    Prefers the unit that last executed an operation sharing an
    operand (operand sharing realizes the scheduler's intent).
    """
    binding: Dict[int, Tuple[str, int]] = {}
    last_operands: Dict[Tuple[str, int], Set[int]] = {}
    steps = sorted({schedule.steps[n.uid] for n in cdfg.operations()})
    for step in steps:
        busy: Set[Tuple[str, int]] = set()
        nodes = [n for n in cdfg.operations()
                 if schedule.steps[n.uid] == step]
        for node in nodes:
            n_units = resources.get(node.kind, 1)
            candidates = [(node.kind, k) for k in range(n_units)
                          if (node.kind, k) not in busy]
            if not candidates:
                raise ValueError("binding infeasible: resource overflow")
            operand_set = set(node.operands)

            def affinity(unit: Tuple[str, int]) -> int:
                return len(operand_set & last_operands.get(unit, set()))

            unit = max(candidates, key=affinity)
            binding[node.uid] = unit
            busy.add(unit)
            last_operands[unit] = operand_set
    return binding


def fu_input_switching(cdfg: Cdfg, schedule: Schedule,
                       binding: Dict[int, Tuple[str, int]],
                       input_streams: Dict[str, Sequence[int]],
                       engine: Optional[str] = None) -> float:
    """Total FU-input bit switching per CDFG iteration.

    Replays the high-level simulation: each FU sees, in control-step
    order, the operand words of the operations bound to it; switching
    is the Hamming distance between consecutive operand pairs on the
    same unit, averaged over simulation cycles.

    The packed engine packs each operand trace once and charges one
    xor+popcount per consecutive operand pair instead of looping over
    cycles; totals are integer-identical to the reference.
    """
    traces = cdfg.simulate(input_streams)
    cycles = len(next(iter(traces.values()))) if traces else 0
    if cycles == 0:
        return 0.0

    per_unit: Dict[Tuple[str, int], List[CdfgNode]] = {}
    for node in cdfg.operations():
        per_unit.setdefault(binding[node.uid], []).append(node)
    for nodes in per_unit.values():
        nodes.sort(key=lambda n: schedule.steps[n.uid])

    total = 0.0
    if resolve_engine(engine) == "fast":
        packs: Dict[int, int] = {}

        def packed(uid: int) -> int:
            if uid not in packs:
                packs[uid] = faststreams.pack_words(
                    traces[uid][:cycles], cdfg.width)
            return packs[uid]

        for unit, nodes in per_unit.items():
            for prev, node in zip(nodes, nodes[1:]):
                for a, b in zip(prev.operands[:2], node.operands[:2]):
                    total += faststreams.cross_hamming(
                        traces[a][:cycles], traces[b][:cycles],
                        cdfg.width, packed(a), packed(b))
        return total / cycles
    for unit, nodes in per_unit.items():
        for t in range(cycles):
            prev_words: Optional[List[int]] = None
            for node in nodes:
                words = [traces[op][t] for op in node.operands[:2]]
                if prev_words is not None:
                    for a, b in zip(prev_words, words):
                        total += hamming(a, b)
                prev_words = words
    return total / cycles


# ----------------------------------------------------------------------
# Monteiro et al.: scheduling that enables power management
# ----------------------------------------------------------------------

@dataclass
class MuxShutdownPlan:
    """One power-manageable multiplexor and its shutdown sets."""

    mux_uid: int
    control_cone: List[int]     # N_C (scheduled ALAP, early)
    zero_cone: List[int]        # N_0 (ASAP after decision)
    one_cone: List[int]         # N_1


@dataclass
class PowerManagementReport:
    schedule: Schedule
    plans: List[MuxShutdownPlan]
    expected_saved_ops: float   # expected op executions disabled/iter

    @property
    def manageable_muxes(self) -> int:
        return len(self.plans)


def _transitive_fanin(cdfg: Cdfg, root: int) -> Set[int]:
    seen: Set[int] = set()
    stack = [root]
    while stack:
        uid = stack.pop()
        for op in cdfg.node(uid).operands:
            node = cdfg.node(op)
            if node.is_operation() and op not in seen:
                seen.add(op)
                stack.append(op)
    return seen


def power_management_schedule(cdfg: Cdfg,
                              latency: Optional[int] = None,
                              select_prob: Optional[Dict[int, float]]
                              = None) -> PowerManagementReport:
    """Monteiro's PM-enabling scheduling of the CDFG's multiplexors.

    Muxes are processed bottom-up.  For each, the cones N_0 / N_1 / N_C
    are formed (shared nodes removed); if the control cone can finish
    (ALAP) before the data cones start (ASAP) within the latency
    budget, the mux is power manageable: per iteration, the unselected
    cone's operations are disabled.  ``select_prob[mux]`` is the
    probability the control input is 1 (default 0.5).
    """
    s_asap = asap(cdfg)
    if latency is None:
        latency = s_asap.latency + 1      # one step of slack
    s_alap = alap(cdfg, latency)

    select_prob = select_prob or {}
    plans: List[MuxShutdownPlan] = []
    muxes = [n for n in cdfg.operations() if n.kind == "mux"]
    # Bottom-up: deeper muxes first.
    muxes.sort(key=lambda n: -s_asap.steps[n.uid])

    steps = dict(s_asap.steps)
    expected_saved = 0.0
    for mux in muxes:
        d0, d1, ctrl = mux.operands
        n0 = _transitive_fanin(cdfg, d0) | (
            {d0} if cdfg.node(d0).is_operation() else set())
        n1 = _transitive_fanin(cdfg, d1) | (
            {d1} if cdfg.node(d1).is_operation() else set())
        nc = _transitive_fanin(cdfg, ctrl) | (
            {ctrl} if cdfg.node(ctrl).is_operation() else set())
        shared = n0 & n1
        n0 -= shared | nc
        n1 -= shared | nc
        nc -= shared
        if not (n0 or n1) or not nc:
            continue
        # Control cone as early as possible (ASAP); data cones shifted
        # uniformly to start after the decision.  The mux is power
        # manageable iff the shifted data nodes still respect their
        # ALAP bounds (no node's required start exceeds its latest
        # feasible start) -- the paper's ASAP/ALAP conflict test.
        control_finish = max(s_asap.finish(u) for u in nc)
        data = n0 | n1
        data_start = min(s_asap.steps[u] for u in data)
        shift = max(0, control_finish + 1 - data_start)
        if any(s_asap.steps[u] + shift > s_alap.steps[u] for u in data):
            continue
        for u in data:
            steps[u] = max(steps[u], s_asap.steps[u] + shift)
        p1 = select_prob.get(mux.uid, 0.5)
        expected_saved += (1.0 - p1) * len(n1) + p1 * len(n0)
        plans.append(MuxShutdownPlan(mux.uid, sorted(nc), sorted(n0),
                                     sorted(n1)))

    final = Schedule(cdfg, steps, s_asap.delays)
    # Repair any precedence violations introduced by pushing nodes.
    changed = True
    while changed:
        changed = False
        for node in cdfg.operations():
            for op in node.operands:
                if cdfg.node(op).is_operation() and \
                        final.steps[node.uid] <= final.finish(op):
                    final.steps[node.uid] = final.finish(op) + 1
                    changed = True
    return PowerManagementReport(final, plans, expected_saved)
