"""Characterization: sweep stimuli, label windows with reference power.

Step 2 of the learn-a-macromodel loop.  A characterization run drives
a circuit (or RTL component) through a deterministic mix of stimulus
styles — white noise, biased probabilities, AR(1)-correlated words,
counters, near-constant — measures gate-level per-cycle switched
energy with the compiled engines, and emits a :class:`WindowDataset`:
one row of learned features plus one windowed mean-power label per
window.

Determinism is a contract, not an accident: every run's seed derives
from the base seed by a fixed recurrence, the seeds are stored in the
dataset *and* registered in the :mod:`repro.obs` run manifest
(:func:`repro.obs.add_run_record`) together with the circuit
fingerprint, so any exported telemetry names exactly the stimuli that
trained each model.

Population sweeps run through the candidate-search executor
(:func:`repro.optimization.search.evaluate_candidates`), one design
per candidate, serial or over its pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.estimation.learned.features import (
    FeatureConfig,
    cluster_signals,
    feature_names,
    input_lanes,
    structural_features,
    toggle_lanes,
    window_features,
    window_slices,
)
from repro.optimization.search import SearchContext, evaluate_candidates
from repro.util import seeding

__all__ = [
    "WindowDataset", "StimulusRun",
    "stimulus_suite", "characterize_circuit",
    "characterize_component", "characterize_population",
    "POPULATION",
]

#: Default circuit population for `python -m repro learn` and the
#: bench: generator-allowlist entries (shared with repro.serve) plus
#: RTL component kinds.
POPULATION: List[Dict[str, Any]] = [
    {"name": "add8", "component": "add", "width": 8},
    {"name": "sub8", "component": "sub", "width": 8},
    {"name": "mult4", "component": "mult", "width": 4},
    {"name": "mux8", "component": "mux", "width": 8},
    {"name": "cmp_gt8", "component": "cmp_gt", "width": 8},
    {"name": "cmp_eq8", "component": "cmp_eq", "width": 8},
]

_STYLES = ("random", "biased", "ar1", "counter", "quiet")


@dataclass
class StimulusRun:
    """Provenance of one characterization stimulus."""

    style: str
    seed: int
    cycles: int
    windows: int

    def to_dict(self) -> Dict[str, Any]:
        return {"style": self.style, "seed": self.seed,
                "cycles": self.cycles, "windows": self.windows}


@dataclass
class WindowDataset:
    """Labeled windows of one circuit under the characterization mix.

    ``rows[i]`` are the features of window ``i`` (order matches
    ``feature_names``); ``targets[i]`` is its mean switched energy
    per cycle at vdd = 1, f = 1 — the same unit every macromodel in
    the repo fits."""

    name: str
    fingerprint: str
    config: FeatureConfig
    signals: List[str]
    feature_names: List[str]
    rows: List[List[float]]
    targets: List[float]
    runs: List[StimulusRun] = field(default_factory=list)
    seed: int = 0
    structural: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.learned.dataset/1",
            "name": self.name,
            "fingerprint": self.fingerprint,
            "config": self.config.to_dict(),
            "signals": list(self.signals),
            "feature_names": list(self.feature_names),
            "rows": [list(r) for r in self.rows],
            "targets": list(self.targets),
            "runs": [r.to_dict() for r in self.runs],
            "seed": self.seed,
            "structural": dict(self.structural),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WindowDataset":
        return cls(
            name=data["name"],
            fingerprint=data["fingerprint"],
            config=FeatureConfig.from_dict(data["config"]),
            signals=list(data["signals"]),
            feature_names=list(data["feature_names"]),
            rows=[list(map(float, r)) for r in data["rows"]],
            targets=[float(t) for t in data["targets"]],
            runs=[StimulusRun(**r) for r in data.get("runs", [])],
            seed=int(data.get("seed", 0)),
            structural={k: float(v)
                        for k, v in data.get("structural", {}).items()},
        )


def _run_seed(base: int, k: int) -> int:
    return seeding.child_seed(base, k)


def _record_provenance(dataset: WindowDataset) -> None:
    """Register ``dataset``'s seeds in the obs run manifest."""
    obs.add_run_record("learned.characterization", {
        "name": dataset.name,
        "fingerprint": dataset.fingerprint,
        "seed": dataset.seed,
        "run_seeds": [r.seed for r in dataset.runs],
        "windows": len(dataset),
        "config_key": dataset.config.key(),
    })


# ----------------------------------------------------------------------
# Stimulus suite
# ----------------------------------------------------------------------
def stimulus_suite(inputs: Sequence[str], cycles: int, seed: int,
                   runs: int = 10) -> List[Tuple[str, int, Any]]:
    """Deterministic (style, seed, packed-vectors) mix for a circuit.

    Styles rotate through white noise, biased per-input probabilities,
    AR(1)-correlated words spread across the input bits, counting
    sequences, and near-quiet traffic — the correlation structures the
    surveyed models (and their learned successor) are supposed to
    tell apart.
    """
    import random as _random

    from repro.logic import fastsim
    from repro.rtl.streams import correlated_stream, counter_stream

    n_in = len(inputs)
    suite: List[Tuple[str, int, Any]] = []
    for k in range(runs):
        style = _STYLES[k % len(_STYLES)]
        rs = _run_seed(seed, k)
        rng = _random.Random(rs)
        if style == "random":
            packed = fastsim.random_packed_vectors(inputs, cycles,
                                                   seed=rs)
        elif style == "biased":
            probs = {name: rng.choice([0.1, 0.25, 0.75, 0.9])
                     for name in inputs}
            packed = fastsim.random_packed_vectors(inputs, cycles,
                                                   seed=rs, probs=probs)
        elif style == "ar1" and n_in:
            stream = correlated_stream(
                n_in, cycles, rho=rng.choice([0.9, 0.98]), seed=rs)
            lanes = stream.bit_planes().lanes
            packed = fastsim.PackedVectors(
                list(inputs), cycles,
                {name: lanes[i] for i, name in enumerate(inputs)})
        elif style == "counter" and n_in:
            stream = counter_stream(n_in, cycles,
                                    start=rng.randrange(1 << n_in),
                                    stride=rng.choice([1, 3]))
            lanes = stream.bit_planes().lanes
            packed = fastsim.PackedVectors(
                list(inputs), cycles,
                {name: lanes[i] for i, name in enumerate(inputs)})
        else:                       # quiet: rare flips
            packed = fastsim.random_packed_vectors(
                inputs, cycles, seed=rs,
                probs={name: 0.05 for name in inputs})
        suite.append((style, rs, packed))
    return suite


# ----------------------------------------------------------------------
# Single-circuit characterization
# ----------------------------------------------------------------------
def characterize_circuit(circuit, config: Optional[FeatureConfig] = None,
                         cycles: int = 1024, seed: int = 0,
                         runs: int = 10,
                         name: Optional[str] = None) -> WindowDataset:
    """Run the stimulus mix, label windows, extract features.

    Proxy signals are clustered once over the *pooled* toggle lanes of
    all runs (concatenated along time), so the selection sees every
    stimulus mode before committing to a basis.
    """
    from repro.rtl.components import circuit_cycle_energies

    config = config or FeatureConfig()
    suite = stimulus_suite(circuit.inputs, cycles, seed, runs=runs)

    with obs.span("learned.characterize",
                  circuit=getattr(circuit, "name", "?"),
                  runs=len(suite), cycles=cycles):
        pooled: Dict[str, int] = {name_: 0 for name_ in circuit.inputs}
        pooled_slots = 0
        per_run: List[Tuple[str, int, Dict[str, int], int,
                            List[float]]] = []
        for style, rs, packed in suite:
            lanes, n = input_lanes(packed)
            toggles = toggle_lanes(lanes, n)
            energies = circuit_cycle_energies(circuit, packed)
            for name_, lane in toggles.items():
                pooled[name_] |= lane << pooled_slots
            pooled_slots += max(0, n - 1)
            per_run.append((style, rs, toggles, max(0, n - 1), energies))

        clusters = cluster_signals(pooled, pooled_slots, config)
        structural = structural_features(circuit) \
            if config.structural else {}
        names = feature_names(clusters.signals, config,
                              structural or None)

        rows: List[List[float]] = []
        targets: List[float] = []
        run_meta: List[StimulusRun] = []
        for style, rs, toggles, n_slots, energies in per_run:
            feats = window_features(toggles, n_slots, clusters.signals,
                                    config, structural or None)
            spans = window_slices(n_slots, config.window)
            for (start, length), row in zip(spans, feats):
                rows.append(row)
                targets.append(
                    sum(energies[start:start + length]) / length)
            run_meta.append(StimulusRun(style, rs, n_slots + 1,
                                        len(spans)))

        dataset = WindowDataset(
            name=name or getattr(circuit, "name", "circuit"),
            fingerprint=circuit.fingerprint(),
            config=config,
            signals=clusters.signals,
            feature_names=names,
            rows=rows,
            targets=targets,
            runs=run_meta,
            seed=seed,
            structural=structural,
        )
    _record_provenance(dataset)
    obs.inc("learned.characterize.windows", len(dataset))
    return dataset


def characterize_component(component,
                           config: Optional[FeatureConfig] = None,
                           cycles: int = 1024, seed: int = 0,
                           runs: int = 10) -> WindowDataset:
    """Component flavor: word-level operand stimulus, same pipeline.

    Uses the macromodel characterization mix (random / biased /
    correlated / constant operand streams) packed onto the
    component's gate-level input ports, so the learned model trains
    on exactly the stimulus family the fixed macromodels are
    characterized with — an apples-to-apples accuracy ladder.
    """
    from repro.estimation.macromodel import characterization_streams
    from repro.logic import fastsim
    from repro.rtl.components import circuit_cycle_energies

    config = config or FeatureConfig()
    training = characterization_streams(component, runs=runs,
                                        length=cycles, seed=seed)
    circuit = component.circuit

    # The word-level macromix is all medium-to-high activity; a model
    # trained on it alone extrapolates badly into quiet program
    # phases (it never saw a near-zero-power window).  Blend in the
    # circuit-level suite — its "quiet" and "counter" styles anchor
    # the low-activity end of the feature space.
    extra = stimulus_suite(circuit.inputs, cycles,
                           _run_seed(seed, 9973),
                           runs=max(3, runs // 2))

    pooled: Dict[str, int] = {name_: 0 for name_ in circuit.inputs}
    pooled_slots = 0
    per_run = []
    batches = [(f"macromix{k % 4}", _run_seed(seed, k),
                fastsim.pack_streams(component.input_ports, streams))
               for k, streams in enumerate(training)]
    batches.extend(extra)
    for style, rs, packed in batches:
        lanes, n = input_lanes(packed)
        toggles = toggle_lanes(lanes, n)
        energies = circuit_cycle_energies(circuit, packed)
        for name_, lane in toggles.items():
            pooled[name_] |= lane << pooled_slots
        pooled_slots += max(0, n - 1)
        per_run.append((style, rs, toggles, max(0, n - 1), energies))

    clusters = cluster_signals(pooled, pooled_slots, config)
    structural = structural_features(circuit) if config.structural \
        else {}
    names = feature_names(clusters.signals, config, structural or None)

    rows: List[List[float]] = []
    targets: List[float] = []
    run_meta: List[StimulusRun] = []
    for style, rs, toggles, n_slots, energies in per_run:
        feats = window_features(toggles, n_slots, clusters.signals,
                                config, structural or None)
        spans = window_slices(n_slots, config.window)
        for (start, length), row in zip(spans, feats):
            rows.append(row)
            targets.append(sum(energies[start:start + length]) / length)
        run_meta.append(StimulusRun(style, rs, n_slots + 1, len(spans)))

    dataset = WindowDataset(
        name=component.name,
        fingerprint=circuit.fingerprint(),
        config=config,
        signals=clusters.signals,
        feature_names=names,
        rows=rows,
        targets=targets,
        runs=run_meta,
        seed=seed,
        structural=structural,
    )
    _record_provenance(dataset)
    return dataset


# ----------------------------------------------------------------------
# Population sweep
# ----------------------------------------------------------------------
def build_spec(spec: Dict[str, Any]):
    """Materialize one population entry into (name, circuit-or-component).

    ``{"component": kind, "width": w}`` builds an RTL library
    component; ``{"generator": g, "params": {...}}`` builds a raw
    circuit through the same allowlist the estimation service uses.
    """
    if "component" in spec:
        from repro.rtl.components import make_component

        component = make_component(spec["component"], int(spec["width"]))
        return spec.get("name", component.name), component
    if "generator" in spec:
        from repro.serve import GENERATORS
        from repro.logic import generators as genlib

        gen = spec["generator"]
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        circuit = getattr(genlib, gen)(**spec.get("params", {}))
        return spec.get("name", circuit.name), circuit
    raise ValueError("population spec needs 'component' or 'generator'")


def _characterize_spec(spec: Dict[str, Any],
                       ctx: SearchContext) -> Tuple[Dict[str, Any], int]:
    """Characterize one spec; ``(dataset dict, pid that built it)``.

    ``ctx.seed`` is the spec's spawn-key seed; ``ctx.extras`` carries
    the shared config, cycles and runs.
    """
    config = FeatureConfig.from_dict(ctx.extras["config"])
    cycles, runs = ctx.extras["cycles"], ctx.extras["runs"]
    name, target = build_spec(spec)
    if hasattr(target, "circuit"):          # RtlComponent
        dataset = characterize_component(target, config, cycles=cycles,
                                         seed=ctx.seed, runs=runs)
    else:
        dataset = characterize_circuit(target, config, cycles=cycles,
                                       seed=ctx.seed, runs=runs,
                                       name=name)
    return dataset.to_dict(), os.getpid()


def characterize_population(specs: Optional[Sequence[Dict[str, Any]]]
                            = None,
                            config: Optional[FeatureConfig] = None,
                            cycles: int = 1024, seed: int = 0,
                            runs: int = 10,
                            workers: Union[int, str, None] = None
                            ) -> List[WindowDataset]:
    """Characterize a population of designs, optionally in parallel.

    Specs are :func:`evaluate_candidates` candidates (``workers`` takes
    its grammar); spec ``i`` draws ``_run_seed(seed, i)`` for any
    worker count.  Records of datasets built in pool workers are
    mirrored here, so each dataset is recorded once in this manifest.
    """
    specs = list(POPULATION if specs is None else specs)
    config = config or FeatureConfig()
    built = evaluate_candidates(
        _characterize_spec, specs,
        extras={"config": config.to_dict(), "cycles": cycles,
                "runs": runs},
        workers=workers, seed=seed, label="learned.characterize")
    datasets = []
    for d, pid in built:
        dataset = WindowDataset.from_dict(d)
        if pid != os.getpid():
            _record_provenance(dataset)
        datasets.append(dataset)
    return datasets
