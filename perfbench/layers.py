"""Outside-in layer tracing: wrappers around each layer's entry points.

The program is not edited.  :class:`Tracer` replaces the public entry
points of each ``repro`` layer with timing wrappers from this file and
puts the originals back afterwards.  A wrapper patches the attribute
the caller actually resolves: a class attribute for methods, and for
module functions the defining module *plus* every ``repro`` module
that bound the same function with ``from ... import``.

A stack gives each span its self time (its duration minus that of the
wrapped calls beneath it).  Spans are kept in memory -- name, start,
end, parent and the op index as request id -- and written out when
the run ends.  Per-node BDD calls are deliberately not wrapped (there
are millions); their cost lands in the discovery entry points.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) for every wrapped entry point.  An
#: attribute path ``Class.method`` patches the class attribute.
LAYER_TARGETS: List[Tuple[str, str, str]] = [
    ("netlist.cone_fp", "repro.logic.netlist", "Circuit.cone_fingerprints"),
    ("netlist.cone_fp", "repro.logic.netlist", "Circuit.cone_supports"),
    ("netlist.clone", "repro.logic.netlist", "Circuit.clone"),
    ("incremental.keys", "repro.logic.incremental", "cone_keys"),
    ("incremental.delta", "repro.logic.incremental", "delta_activity"),
    ("fastsim.compile", "repro.logic.fastsim", "compile_circuit"),
    ("fastsim.sim", "repro.logic.simulate", "collect_activity"),
    ("fastsim.sim", "repro.logic.fastsim", "net_words_engine"),
    ("fastsim.unpack", "repro.logic.fastsim", "PackedVectors.to_vectors"),
    ("fasttimer.compile", "repro.logic.fasttimer", "compile_timed"),
    ("fasttimer.sim", "repro.logic.eventsim", "EventSimulator.run"),
    ("fasttimer.sim", "repro.logic.fasttimer", "timed_activity_cached"),
    ("optimization.discover", "repro.optimization.guarded_eval",
     "find_guard_candidates"),
    ("optimization.discover", "repro.optimization.precompute",
     "best_subset"),
    ("optimization.discover", "repro.optimization.respecification",
     "respecify_controls"),
    ("optimization.build", "repro.optimization.guarded_eval",
     "apply_guarded_evaluation"),
    ("optimization.build", "repro.optimization.clock_gating",
     "build_gated_fsm"),
    ("optimization.build", "repro.optimization.precompute",
     "build_precomputed_circuit"),
    ("optimization.build", "repro.optimization.precompute",
     "registered_baseline"),
    ("optimization.build", "repro.optimization.retiming",
     "pipeline_at_level"),
    ("bus_encoding.count", "repro.optimization.bus_encoding",
     "count_transitions"),
    ("search.map", "repro.optimization.search", "evaluate_candidates"),
    ("estimator.self", "repro.core.estimator", "PowerEstimator.gate"),
    ("estimator.self", "repro.core.estimator",
     "PowerEstimator.estimate_delta"),
    ("store.get", "repro.store", "ArtifactStore.get"),
    ("store.put", "repro.store", "ArtifactStore.put"),
]


def _observe_delta(counts, args, result) -> None:
    """``incremental.delta_activity``: dirty nets and full fallbacks."""
    _report, stats = result
    counts["delta_calls"] += 1
    counts["dirty_nets"] += stats.dirty_nets
    if stats.source == "full":
        counts["full_fallbacks"] += 1


def _observe_simulation(counts, args, result) -> None:
    """``simulate.collect_activity``: gates x cycles of a full run."""
    counts["gate_cycles"] += args[0].gate_count() * result.cycles


#: Counts read off the arguments and result of some wrapped calls.
OBSERVERS: Dict[Tuple[str, str], Callable] = {
    ("repro.logic.incremental", "delta_activity"): _observe_delta,
    ("repro.logic.simulate", "collect_activity"): _observe_simulation,
}

#: Layers whose self time the per-layer ``<layer>_s`` metrics report.
LAYERS: List[str] = list(dict.fromkeys(t[0] for t in LAYER_TARGETS))


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index: int) -> None:
        self.index = index
        self.child = 0.0


class Tracer:
    """Span recorder plus the patching that feeds it.

    ``request`` is the index of the op being traced, or ``None`` while
    tracing is paused (untraced ops and everything outside the timed
    window): paused wrappers call straight through.
    """

    def __init__(self) -> None:
        self.request: Optional[int] = None
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Spans: (name, start, end, parent span index or -1, request).
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: Counts gathered from wrapped calls' arguments and results.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              observe: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(len(tracer.spans))
            parent = stack[-1].index if stack else -1
            tracer.spans.append((layer, 0.0, 0.0, parent, tracer.request))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[layer] += duration - frame.child
                tracer.calls[layer] += 1
                if stack:
                    stack[-1].child += duration
                tracer.spans[frame.index] = (layer, start, end, parent,
                                             tracer.request)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every :data:`LAYER_TARGETS` entry with a wrapper."""
        for layer, module_name, path in LAYER_TARGETS:
            owner: Any = importlib.import_module(module_name)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            self._patch(layer, owner, attr,
                        OBSERVERS.get((module_name, path)))

    def _patch(self, layer: str, owner: Any, attr: str,
               observe: Optional[Callable]) -> None:
        original = owner.__dict__[attr]
        wrapper = self._wrap(layer, original, observe)
        self._set(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        # Rebind ``from module import name`` copies in other modules.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, owner: Any, attr: str, original: Any,
             wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
