"""Sampling-based RT-level power cosimulation (Section II-C2, [46]).

Three estimators over a module's operand streams, all driven by a
fitted macro-model:

- :func:`census_power`  -- evaluate the macro-model equation on every
  cycle (the census survey; accurate w.r.t. the model but expensive),
- :func:`sampler_power` -- simple random sampling of marked cycles;
  several samples of >= 30 units are averaged so the sample-mean
  distribution is near normal, exactly as the paper argues,
- :func:`adaptive_power`-- the regression (ratio) estimator: a handful
  of gate-level-simulated cycles de-bias the macro-model through the
  approximately linear relation between model and gate-level power.

Each result records how many macro-model evaluations and gate-level
cycles were spent, so efficiency claims (the 50x of bench C6) are
measurable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.estimation.macromodel import MacroModel
from repro.rtl.components import RtlComponent
from repro.rtl.streams import WordStream


@dataclass
class SamplingResult:
    """Estimate plus the cost that produced it."""

    estimate: float
    model_evaluations: int
    gate_cycles: int
    #: Standard error of the mean-of-sample-means (None when fewer
    #: than two samples were drawn, e.g. census evaluation) — makes
    #: the paper's >= 30-units-per-sample normality argument checkable
    #: against the spread actually observed.
    std_error: Optional[float] = None

    @property
    def cost(self) -> float:
        """Aggregate cost; gate-level cycles are far more expensive
        than macro-model evaluations (3 orders of magnitude in the
        paper's terms; 100x here, conservatively)."""
        return self.model_evaluations + 100.0 * self.gate_cycles


def _cycle_window(streams: Sequence[WordStream], t: int
                  ) -> List[WordStream]:
    """Two-vector window (t-1, t) as short streams."""
    return [WordStream([s.words[t - 1], s.words[t]], s.width)
            for s in streams]


def cycle_model_energy(model: MacroModel,
                       streams: Sequence[WordStream], t: int) -> float:
    """Macro-model equation evaluated for a single cycle."""
    return model.predict(_cycle_window(streams, t))


def census_power(model: MacroModel,
                 streams: Sequence[WordStream]) -> SamplingResult:
    """Evaluate the macro-model on every simulation cycle."""
    length = min(len(s) for s in streams)
    if length < 2:
        return SamplingResult(0.0, 0, 0)
    total = 0.0
    for t in range(1, length):
        total += cycle_model_energy(model, streams, t)
    return SamplingResult(total / (length - 1), length - 1, 0)


def sampler_power(model: MacroModel, streams: Sequence[WordStream],
                  n_samples: int = 4, sample_size: int = 30,
                  seed: int = 0) -> SamplingResult:
    """Simple-random-sampling estimator over marked cycles.

    ``n_samples`` samples of ``sample_size`` cycles are drawn *without
    replacement across samples* — one ``rng.sample`` of
    ``n_samples * sample_size`` marked cycles, chunked — so no cycle
    is evaluated twice and the samples stay disjoint; the estimate is
    the mean of the sample means.  The paper's guidance (samples of at
    least 30 units) is enforced, and the standard error of the mean of
    sample means is reported so the normality argument is checkable.
    For a fixed ``seed`` the marked set, the estimate and the error
    are fully deterministic.
    """
    if sample_size < 30:
        raise ValueError("samples must have at least 30 units "
                         "(normality of the sample mean)")
    length = min(len(s) for s in streams)
    population = list(range(1, length))
    if len(population) <= n_samples * sample_size:
        return census_power(model, streams)
    rng = random.Random(seed)
    marked = rng.sample(population, n_samples * sample_size)
    sample_means: List[float] = []
    for k in range(n_samples):
        chunk = marked[k * sample_size:(k + 1) * sample_size]
        total = sum(cycle_model_energy(model, streams, t) for t in chunk)
        sample_means.append(total / sample_size)
    estimate = sum(sample_means) / len(sample_means)
    std_error = None
    if n_samples > 1:
        var = sum((m - estimate) ** 2 for m in sample_means) \
            / (n_samples - 1)
        std_error = math.sqrt(var / n_samples)
    return SamplingResult(estimate, len(marked), 0, std_error=std_error)


def adaptive_power(model: MacroModel, component: RtlComponent,
                   streams: Sequence[WordStream],
                   gate_sample_size: int = 30,
                   n_samples: int = 4, sample_size: int = 30,
                   seed: int = 0) -> SamplingResult:
    """Ratio-regression estimator [46].

    The macro-model acts as the predictor variable; a small random
    sample of cycles is simulated at gate level to estimate the mean
    ratio  R = E[gate] / E[model],  and the final estimate is
    R x (sampled macro-model power).  This removes the bias a
    macro-model trained on one data class shows on another.
    """
    length = min(len(s) for s in streams)
    population = list(range(1, length))
    rng = random.Random(seed)
    gate_sample = rng.sample(population,
                             min(gate_sample_size, len(population)))

    gate_total = 0.0
    model_total = 0.0
    evaluations = 0
    for t in gate_sample:
        window = _cycle_window(streams, t)
        energies = component.cycle_energies(window)
        gate_total += energies[0]
        model_total += model.predict(window)
        evaluations += 1
    ratio = gate_total / model_total if model_total > 0 else 1.0

    base = sampler_power(model, streams, n_samples=n_samples,
                         sample_size=sample_size, seed=seed + 1)
    std_error = ratio * base.std_error \
        if base.std_error is not None else None
    return SamplingResult(ratio * base.estimate,
                          base.model_evaluations + evaluations,
                          len(gate_sample), std_error=std_error)


def gate_reference_power(component: RtlComponent,
                         streams: Sequence[WordStream],
                         timed: bool = False) -> SamplingResult:
    """Full gate-level simulation (the expensive ground truth).

    ``timed=True`` uses the glitch-aware tick-wheel engine.
    """
    length = min(len(s) for s in streams)
    power = component.reference_power(streams, timed=timed)
    return SamplingResult(power, 0, length)
