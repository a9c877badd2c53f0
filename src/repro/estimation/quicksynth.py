"""Synthesis-based behavioral estimation (Section II-B3).

Quick synthesis: assume an RT-level template for a behavioral
description (CDFG), make the standard behavioral choices (resource
sharing level, register insertion), and estimate power with RT-level
macro-models plus profiling statistics from a high-level simulation
of the behaviour (dynamic profiling, [20], [21]).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backend.core import resolve_engine
from repro.cdfg.graph import Cdfg
from repro.cdfg.library import ModuleLibrary
from repro.cdfg.schedule import Schedule, list_schedule
from repro.rtl import faststreams
from repro.util.bits import hamming


@dataclass
class QuickSynthesisEstimate:
    """Breakdown of a synthesis-based power estimate."""

    total: float
    functional_units: float
    registers: float
    interconnect: float
    control: float
    resources: Dict[str, int]
    latency: int


def dynamic_profile(cdfg: Cdfg, input_streams: Dict[str, Sequence[int]],
                    engine: Optional[str] = None) -> Dict[str, float]:
    """Average word-level activity per operation kind from simulation.

    This is "dynamic profiling based on direct simulation of the
    behavior under a typical input stream".
    """
    traces = cdfg.simulate(input_streams)
    activity_by_kind: Dict[str, List[float]] = {}
    for node in cdfg.operations():
        values = traces[node.uid]
        if len(values) < 2:
            continue
        if resolve_engine(engine) == "fast":
            toggles = faststreams.transition_count(values, cdfg.width)
        else:
            toggles = sum(hamming(a, b)
                          for a, b in zip(values, values[1:]))
        per_cycle = toggles / ((len(values) - 1) * cdfg.width)
        activity_by_kind.setdefault(node.kind, []).append(per_cycle)
    return {kind: sum(v) / len(v) for kind, v in activity_by_kind.items()}


def quick_synthesis_estimate(cdfg: Cdfg,
                             library: Optional[ModuleLibrary] = None,
                             resources: Optional[Dict[str, int]] = None,
                             input_streams: Optional[
                                 Dict[str, Sequence[int]]] = None,
                             seed: int = 0) -> QuickSynthesisEstimate:
    """Estimate behavioral power by assuming an RT-level template.

    Template choices (the "behavioral choices" of II-B3): one FU per
    kind unless ``resources`` says otherwise, registers on every
    multi-cycle value, mux-based interconnect sized by the binding
    fan-in, and a one-hot controller with one state per control step.
    """
    library = library or ModuleLibrary(width=min(8, cdfg.width))
    resources = resources or {kind: 1
                              for kind in cdfg.operation_counts()}
    schedule = list_schedule(cdfg, resources)

    if input_streams is None:
        rng = random.Random(seed)
        names = [n.name for n in cdfg.nodes if n.kind == "input"]
        input_streams = {name: [rng.randrange(1 << cdfg.width)
                                for _ in range(64)] for name in names}
    activities = dynamic_profile(cdfg, input_streams)

    counts = cdfg.operation_counts()
    latency = schedule.latency

    # Functional units: each op kind executes counts[kind] times per
    # iteration, scaled by measured data activity relative to the
    # random-data characterization point (activity 0.5).
    fu_power = 0.0
    for kind, count in counts.items():
        act = activities.get(kind, 0.5)
        per_op = library.energy(kind) * (act / 0.5)
        fu_power += count * per_op / max(1, latency)

    # Registers: every value crossing a control-step boundary is
    # registered; estimate via the reg energy of the library.
    crossings = 0
    for node in cdfg.operations():
        for op in node.operands:
            operand = cdfg.node(op)
            if operand.is_operation() and \
                    schedule.steps[node.uid] > schedule.finish(op) + 0:
                crossings += 1
    reg_power = crossings * library.energy("lshift") / max(1, latency)

    # Interconnect: mux trees in front of shared FUs; one mux level
    # per extra op bound to the same unit.
    mux_power = 0.0
    usage = schedule.resource_usage()
    for kind, count in counts.items():
        shared = max(0, count - usage.get(kind, count))
        mux_power += shared * library.energy("mux") / max(1, latency)

    # Controller: one-hot FSM with `latency` states; two flops toggle
    # per cycle plus decode fanout.
    control_power = 0.1 * latency * library.energy("lshift") \
        / max(1, latency)

    total = fu_power + reg_power + mux_power + control_power
    return QuickSynthesisEstimate(
        total=total,
        functional_units=fu_power,
        registers=reg_power,
        interconnect=mux_power,
        control=control_power,
        resources=dict(schedule.resource_usage()),
        latency=latency,
    )
