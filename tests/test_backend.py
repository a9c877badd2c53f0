"""Engine names and fast-vs-reference identity across the simulators.

:mod:`repro.backend.core` validates the ``engine=`` argument every
entry point takes: ``None``, ``"fast"`` or ``"reference"``, anything
else an error.  The identity cases run the zero-delay and timed
simulators on both engines and require ``==`` reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.core import resolve_engine
from repro.logic import fastsim
from repro.logic.eventsim import EventSimulator
from repro.logic.generators import counter, random_logic, shift_register
from repro.logic.simulate import collect_activity

seeds = st.integers(min_value=0, max_value=2**31)


def test_resolve_engine_validates_and_defaults():
    assert resolve_engine(None, "fast") == "fast"
    assert resolve_engine(None) == "fast"
    assert resolve_engine("reference", "fast") == "reference"
    for retired in ("simd", "numpy", "auto"):
        with pytest.raises(ValueError):
            resolve_engine(retired, "fast")


def assert_identical(a, b):
    assert a.cycles == b.cycles
    assert a.toggles == b.toggles
    assert a.ones == b.ones
    assert a.switched_capacitance == b.switched_capacitance
    assert a.clock_capacitance == b.clock_capacitance


@given(st.integers(2, 8), st.integers(1, 60), seeds,
       st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_zero_delay_engines_identical(n_inputs, n_gates, seed, n_cycles):
    circuit = random_logic(n_inputs, n_gates, 3, seed=seed)
    vectors = fastsim.random_packed_vectors(
        list(circuit.inputs), n_cycles, seed=seed + 1)
    ref = collect_activity(circuit, vectors, engine="reference")
    assert_identical(collect_activity(circuit, vectors, engine="fast"),
                     ref)
    assert_identical(fastsim.collect_activity(circuit, vectors), ref)


@pytest.mark.parametrize("make,width,cycles", [
    (counter, 5, 300),           # tight feedback
    (shift_register, 7, 300),    # feed-forward latch chain
])
def test_sequential_engines_identical(make, width, cycles):
    circuit = make(width)
    vectors = fastsim.random_packed_vectors(
        list(circuit.inputs), cycles, seed=11)
    ref = collect_activity(circuit, vectors, engine="reference")
    assert_identical(collect_activity(circuit, vectors, engine="fast"),
                     ref)
    timed_ref = EventSimulator(circuit, engine="reference").run(vectors)
    timed = EventSimulator(circuit, engine="fast").run(vectors)
    assert_identical(timed, timed_ref)
    assert timed.events == timed_ref.events
    assert timed.glitches == timed_ref.glitches

