"""Unified power estimator across abstraction levels.

:class:`PowerEstimator` is the "power analyzer/estimator" box of the
paper's Fig. 1: one object that can be asked for a power estimate at
whatever abstraction the design currently exists in --

- software:    a program for the framework's ISA,
- behavioral:  a CDFG (entropy / complexity / quick-synthesis models),
- RTL:         a component with operand streams (macro-models, with
  census/sampler/adaptive evaluation),
- gate:        a netlist with stimulus (simulation, probabilistic, or
  Monte Carlo).

Every method reports an :class:`EstimateResult` carrying the value,
the technique used, and a relative-cost indicator so flows can trade
accuracy for speed, which is the entire premise of high-level
estimation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.logic.netlist import Circuit
from repro.logic.simulate import Vector


@dataclass
class EstimateResult:
    """A power estimate plus its provenance."""

    power: float
    technique: str
    level: str
    cost: float = 0.0     # relative evaluation cost (bigger = slower)

    def __repr__(self) -> str:
        return (f"EstimateResult({self.power:.4f}, {self.technique!r}, "
                f"level={self.level!r})")


def _traced(method):
    """Wrap an estimator method in an ``estimator.<name>`` span.

    The span carries the technique/level/power of the produced
    :class:`EstimateResult` and bumps a per-level call counter; with
    the obs subsystem disabled the original method is called directly.
    """
    import functools

    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if not obs.enabled():
            return method(self, *args, **kwargs)
        with obs.span(f"estimator.{name}") as sp:
            result = method(self, *args, **kwargs)
            sp.set("technique", result.technique)
            sp.set("level", result.level)
            sp.set("power", result.power)
            sp.add("cost", result.cost)
        obs.inc(f"estimator.calls.{result.level}")
        return result

    return wrapper


class PowerEstimator:
    """Facade over the estimation techniques of Section II."""

    #: Bound on the per-estimator packed-stimulus memo (entries).
    PACK_CACHE_ENTRIES = 8

    def __init__(self, vdd: float = 1.0, freq: float = 1.0,
                 engine: str = "fast") -> None:
        self.vdd = vdd
        self.freq = freq
        #: Gate-level simulation engine: "fast" (bit-parallel
        #: compiled, exactly equivalent) or "reference" (scalar).
        self.engine = engine
        self._pack_cache: "OrderedDict[tuple, object]" = OrderedDict()

    # ------------------------------------------------------------------
    # Software level (Section II-A)
    # ------------------------------------------------------------------
    @_traced
    def software(self, program, model=None) -> EstimateResult:
        """Instruction-level estimate of a program's energy."""
        from repro.estimation.software_power import TiwariModel
        from repro.software.machine import Machine

        stats = Machine().run(list(program))
        if model is None:
            model = TiwariModel.characterize(loop_length=200)
        energy = model.estimate(stats)
        return EstimateResult(energy, "tiwari-instruction-level",
                              "software", cost=stats.instructions)

    # ------------------------------------------------------------------
    # Behavioral level (Section II-B)
    # ------------------------------------------------------------------
    @_traced
    def behavioral(self, cdfg, technique: str = "quick-synthesis",
                   **kwargs) -> EstimateResult:
        if technique == "quick-synthesis":
            from repro.estimation.quicksynth import \
                quick_synthesis_estimate

            estimate = quick_synthesis_estimate(cdfg, **kwargs)
            return EstimateResult(estimate.total, technique, "behavioral",
                                  cost=10.0)
        if technique == "gate-equivalents":
            from repro.estimation.complexity import gate_equivalent_power

            counts = cdfg.operation_counts()
            equivalents = {"add": 12, "sub": 14, "mult": 60, "mux": 4,
                           "lshift": 1, "cmp_gt": 8, "cmp_eq": 6}
            n = sum(equivalents.get(k, 8) * v for k, v in counts.items())
            power = gate_equivalent_power(n, vdd=self.vdd, freq=self.freq)
            return EstimateResult(power, technique, "behavioral", cost=1.0)
        raise ValueError(f"unknown behavioral technique {technique!r}")

    @_traced
    def entropic(self, circuit: Circuit, vectors: Sequence[Vector],
                 model: str = "marculescu") -> EstimateResult:
        """Information-theoretic estimate (Section II-B1)."""
        from repro.estimation.entropy import \
            estimate_circuit_power_entropic

        power = estimate_circuit_power_entropic(
            circuit, vectors, model=model, vdd=self.vdd, freq=self.freq)
        return EstimateResult(power, f"entropy/{model}", "behavioral",
                              cost=len(vectors))

    # ------------------------------------------------------------------
    # RT level (Section II-C)
    # ------------------------------------------------------------------
    @_traced
    def rtl(self, component, streams, model=None,
            evaluation: str = "census", **kwargs) -> EstimateResult:
        """Macro-model estimate of an RTL component under stimulus."""
        from repro.estimation.macromodel import BitwiseModel, \
            fit_macromodel
        from repro.estimation import sampling

        if model is None:
            model = fit_macromodel(BitwiseModel(), component)
        if evaluation == "census":
            result = sampling.census_power(model, streams)
        elif evaluation == "sampler":
            result = sampling.sampler_power(model, streams, **kwargs)
        elif evaluation == "adaptive":
            result = sampling.adaptive_power(model, component, streams,
                                             **kwargs)
        else:
            raise ValueError(f"unknown evaluation {evaluation!r}")
        scaled = result.estimate * 0.5 * self.vdd * self.vdd * self.freq \
            / 0.5
        return EstimateResult(scaled, f"macromodel/{model.name}"
                              f"/{evaluation}", "rtl", cost=result.cost)

    # ------------------------------------------------------------------
    # Gate level (reference techniques)
    # ------------------------------------------------------------------
    @_traced
    def gate(self, circuit: Circuit,
             vectors: Optional[Sequence[Vector]] = None,
             technique: str = "simulation",
             engine: Optional[str] = None) -> EstimateResult:
        if technique == "simulation":
            if vectors is None:
                raise ValueError("simulation needs stimulus vectors")
            from repro.logic.simulate import collect_activity

            engine = engine or self.engine
            report = collect_activity(circuit, vectors, engine=engine)
            power = report.average_power(vdd=self.vdd, freq=self.freq)
            return EstimateResult(power, f"{technique}/{engine}", "gate",
                                  cost=len(vectors) * circuit.gate_count())
        if technique == "incremental":
            if vectors is None:
                raise ValueError("incremental simulation needs stimulus "
                                 "vectors")
            from repro.logic import incremental

            engine = engine or self.engine
            report = incremental.collect_activity_incremental(
                circuit, vectors, engine=engine)
            power = report.average_power(vdd=self.vdd, freq=self.freq)
            return EstimateResult(power, f"{technique}/{engine}", "gate",
                                  cost=len(vectors) * circuit.gate_count())
        if technique == "event-driven":
            if vectors is None:
                raise ValueError("event-driven needs stimulus vectors")
            from repro.logic.eventsim import EventSimulator

            engine = engine or self.engine
            power = EventSimulator(circuit, engine=engine).run(
                vectors).average_power(vdd=self.vdd, freq=self.freq)
            return EstimateResult(
                power, f"{technique}/{engine}", "gate",
                cost=3.0 * len(vectors) * circuit.gate_count())
        if technique == "probabilistic":
            from repro.estimation.probabilistic import \
                density_power_estimate

            power = density_power_estimate(circuit, vdd=self.vdd,
                                           freq=self.freq)
            return EstimateResult(power, "transition-density", "gate",
                                  cost=circuit.gate_count())
        if technique == "learned":
            if vectors is None:
                raise ValueError("learned estimation needs stimulus "
                                 "vectors")
            from repro.estimation.learned import model_for

            model = model_for(circuit)
            power = model.predict_power(vectors) \
                * self.vdd * self.vdd * self.freq
            # Evaluation walks input lanes only — cost scales with
            # cycles and model terms, not gate count.
            return EstimateResult(
                power, "learned/windowed-ridge", "rtl",
                cost=float(len(vectors) * max(1, model.n_terms)))
        if technique == "monte-carlo":
            from repro.estimation.probabilistic import monte_carlo_power

            result = monte_carlo_power(circuit)
            return EstimateResult(
                result.power * self.vdd * self.vdd * self.freq,
                "monte-carlo", "gate",
                cost=result.vectors_used * circuit.gate_count())
        raise ValueError(f"unknown gate technique {technique!r}")

    @_traced
    def estimate_delta(self, base: Circuit, variant: Circuit,
                       vectors: Sequence[Vector],
                       engine: Optional[str] = None) -> EstimateResult:
        """Re-estimate an edited ``variant`` against a cached ``base``.

        Primes the process cone cache with the base circuit (free when
        it is already resident) and evaluates the variant by
        resimulating only the dirty cone — edited gates plus
        transitive fanout, closed over latch feedback — splicing the
        clean region's cached per-net activity.  The resulting power
        is **bit-identical** to a full ``technique="simulation"``
        estimate of the variant; the reported cost scales with the
        dirty-net count instead of the gate count.
        """
        from repro.logic import incremental

        engine = engine or self.engine
        report, stats = incremental.estimate_delta(base, variant, vectors,
                                                   engine=engine)
        power = report.average_power(vdd=self.vdd, freq=self.freq)
        if obs.enabled():
            obs.inc("estimator.delta_reused_nets", stats.reused_nets)
        return EstimateResult(
            power, f"simulation-delta/{engine}", "gate",
            cost=float(len(vectors) * max(1, stats.dirty_nets)))

    def packed_stimulus(self, input_ports, streams,
                        length: Optional[int] = None):
        """Memoized :func:`repro.logic.fastsim.pack_streams`.

        Repeated ``estimate`` calls over the same operand streams used
        to repack the bit planes into input lanes every time; the memo
        keys on each stream's content ``fingerprint()`` (plus ports
        and length), so a mutated-then-invalidated stream repacks
        while an untouched one is a dict hit.  Streams without a
        fingerprint (plain word-list objects) are packed uncached.
        """
        from repro.logic.fastsim import pack_streams

        try:
            fps = tuple(s.fingerprint() for s in streams)
        except AttributeError:
            return pack_streams(input_ports, streams, length)
        key = (tuple((p, w) for p, w in input_ports), fps, length)
        packed = self._pack_cache.get(key)
        if packed is not None:
            self._pack_cache.move_to_end(key)
            if obs.enabled():
                obs.inc("estimator.pack_hits")
            return packed
        packed = pack_streams(input_ports, streams, length)
        self._pack_cache[key] = packed
        while len(self._pack_cache) > self.PACK_CACHE_ENTRIES:
            self._pack_cache.popitem(last=False)
        return packed

    def component(self, component, streams,
                  technique: str = "simulation",
                  engine: Optional[str] = None,
                  length: Optional[int] = None) -> EstimateResult:
        """Gate-level estimate of an RTL component under word streams.

        Packs the streams once per content fingerprint (see
        :meth:`packed_stimulus`) and feeds the shared packed lanes to
        :meth:`gate` — the repeated-evaluation shape every
        optimization sweep has.
        """
        packed = self.packed_stimulus(component.input_ports, streams,
                                      length)
        return self.gate(component.circuit, packed, technique=technique,
                         engine=engine)
