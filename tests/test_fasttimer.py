"""Tick-wheel timed engine: exact-equivalence and semantics tests.

The fast timed engine's contract mirrors fastsim's: *bit-identical*
activity reports against the event-driven reference — toggles, ones,
glitches, events, switched and clock capacitance — on any circuit the
compiler can lower, including enable-gated latches, feedback, and
0-delay cells.  Also pinned here: the settling-cycle normalization
(``ones``/``cycles`` match the zero-delay engine's accounting while
``toggles``/``glitches`` cover only counted boundaries) and the
clock-edge convention shared with the zero-delay engine.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import store as artifact_store
from repro.logic import fasttimer, gates as gatelib
from repro.logic.eventsim import EventSimulator, tick_grid
from repro.logic.fastsim import random_packed_vectors
from repro.logic.generators import chained_adder_tree, ripple_carry_adder
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, collect_activity, \
    random_vectors


def random_latched_circuit(n_inputs: int, n_gates: int, n_latches: int,
                           seed: int) -> Circuit:
    """Random sequential circuit with feedback, enables, and mixed
    clocked/transparent latches (same recipe as test_fastsim)."""
    rng = random.Random(seed)
    circuit = Circuit(f"seq_{n_inputs}_{n_gates}_{n_latches}_{seed}")
    inputs = circuit.add_inputs([f"x{i}" for i in range(n_inputs)])
    latch_outs = [f"s{i}" for i in range(n_latches)]
    circuit.reserve_nets(latch_outs)
    pool = list(inputs) + list(latch_outs)   # latch feedback into logic
    types = ["NAND2", "NOR2", "AND2", "OR2", "XOR2", "INV", "AOI21",
             "MUX2", "XNOR2"]
    for _ in range(n_gates):
        gate_type = rng.choice(types)
        arity = {"INV": 1, "AOI21": 3, "MUX2": 3}.get(gate_type, 2)
        ins = [rng.choice(pool) for _ in range(arity)]
        pool.append(circuit.add_gate(gate_type, ins))
    for q in latch_outs:
        data = rng.choice(pool)
        enable = rng.choice([None, None, rng.choice(pool)])
        circuit.add_latch(data, output=q, init=rng.randint(0, 1),
                          enable=enable,
                          clocked=rng.random() < 0.75)
    for net in rng.sample(pool, min(3, len(pool))):
        circuit.add_output(net)
    return circuit


def assert_timed_identical(fast: ActivityReport,
                           ref: ActivityReport) -> None:
    assert fast.cycles == ref.cycles
    assert fast.toggles == ref.toggles
    assert fast.ones == ref.ones
    assert fast.glitches == ref.glitches
    assert fast.events == ref.events
    assert fast.switched_capacitance == ref.switched_capacitance
    assert fast.clock_capacitance == ref.clock_capacitance


def both_engines(circuit, vectors):
    fast = EventSimulator(circuit, engine="fast").run(vectors)
    ref = EventSimulator(circuit, engine="reference").run(vectors)
    return fast, ref


class TestTickGrid:
    def test_library_delays_are_exactly_discretized(self):
        circuit = chained_adder_tree(4, 2)
        grid = tick_grid(circuit)
        for gate in circuit.gates:
            assert float(grid.quantum * grid.ticks[gate.output]) \
                == pytest.approx(gate.spec.delay, abs=0.0)

    def test_quantum_is_gcd_of_delays(self):
        circuit = Circuit("grid")
        a, b = circuit.add_inputs(["a", "b"])
        x = circuit.add_gate("AND2", [a, b])      # delay 2.0
        y = circuit.add_gate("XOR2", [x, b])      # delay 2.6
        circuit.add_output(y)
        grid = tick_grid(circuit)
        assert float(grid.quantum) == pytest.approx(0.2)
        assert grid.ticks[x] == 10
        assert grid.ticks[y] == 13


class TestEngineEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(n_inputs=st.integers(2, 8), n_gates=st.integers(1, 60),
           n_latches=st.integers(0, 5), seed=st.integers(0, 10_000),
           n_vectors=st.integers(0, 50))
    def test_random_latched_matches_reference(self, n_inputs, n_gates,
                                              n_latches, seed,
                                              n_vectors):
        circuit = random_latched_circuit(n_inputs, n_gates, n_latches,
                                         seed)
        vectors = random_vectors(circuit.inputs, n_vectors,
                                 seed=seed + 1)
        fast, ref = both_engines(circuit, vectors)
        assert_timed_identical(fast, ref)

    def test_fig9_circuit_matches_reference(self):
        circuit = chained_adder_tree(4, 3)
        vectors = random_vectors(circuit.inputs, 80, seed=11)
        fast, ref = both_engines(circuit, vectors)
        assert_timed_identical(fast, ref)
        assert fast.glitches > 0

    def test_packed_stimulus_matches_dict_stimulus(self):
        circuit = ripple_carry_adder(6)
        packed = random_packed_vectors(circuit.inputs, 64, seed=4)
        from_packed = EventSimulator(circuit, engine="fast").run(packed)
        from_dicts = EventSimulator(circuit, engine="fast").run(
            packed.to_vectors())
        assert_timed_identical(from_packed, from_dicts)

    def test_zero_delay_cells_match_reference(self):
        spec = dataclasses.replace(gatelib.LIBRARY["AND2"],
                                   name="ZAND2_T", delay=0.0)
        gatelib.LIBRARY["ZAND2_T"] = spec
        try:
            circuit = Circuit("zd")
            a, b, d = circuit.add_inputs(["a", "b", "d"])
            x = circuit.add_gate("XOR2", [a, b])
            z = circuit.add_gate("ZAND2_T", [x, d])
            y = circuit.add_gate("INV", [z])
            q = circuit.add_latch(y, enable=x)
            circuit.add_output(circuit.add_gate("OR2", [q, z]))
            vectors = random_vectors(circuit.inputs, 40, seed=5)
            fast, ref = both_engines(circuit, vectors)
            assert_timed_identical(fast, ref)
        finally:
            del gatelib.LIBRARY["ZAND2_T"]

    def test_five_input_runtime_cell_matches_reference(self):
        """A 5-input cell registered at run time, with a real delay: it
        is lowered through its truth table and runs as a delayed group."""
        def maj5(v):
            return int(sum(v) >= 3)

        gatelib.LIBRARY["MAJ5_T"] = gatelib.GateSpec(
            "MAJ5_T", 5, maj5, 1.5, 0.9, 3.2, 3.0)
        try:
            circuit = Circuit("maj5")
            ins = circuit.add_inputs([f"x{i}" for i in range(6)])
            m = circuit.add_gate("MAJ5_T", ins[:5])
            y = circuit.add_gate("XOR2", [m, ins[5]])
            n = circuit.add_gate("MAJ5_T", [y, ins[0], m, ins[2], ins[4]])
            circuit.add_output(circuit.add_gate("NAND2", [n, y]))
            vectors = random_vectors(circuit.inputs, 60, seed=8)
            fast, ref = both_engines(circuit, vectors)
            assert_timed_identical(fast, ref)
            assert fast.glitches > 0
            table = artifact_store.get_store().get(
                circuit.fingerprint(), fasttimer.STORE_KIND)["table"]
            assert any(gate_type == "MAJ5_T"
                       for tick in table for gate_type, _ in tick[3])
        finally:
            del gatelib.LIBRARY["MAJ5_T"]

    def test_reregistered_cell_name_matches_reference(self):
        """One cell name, registered twice with different functions and
        delays: the second circuit must not run the first function."""
        def and_not(v):
            return int(v[0] and not v[1])

        def xnor(v):
            return int(v[0] == v[1])

        def build():
            circuit = Circuit("rereg")
            a, b, c = circuit.add_inputs(["a", "b", "c"])
            x = circuit.add_gate("REREG_T", [a, b])
            y = circuit.add_gate("REREG_T", [x, c])
            circuit.add_output(circuit.add_gate("OR2", [y, a]))
            return circuit

        try:
            fingerprints = set()
            for fn, delay in ((and_not, 1.4), (xnor, 3.0)):
                gatelib.LIBRARY["REREG_T"] = gatelib.GateSpec(
                    "REREG_T", 2, fn, 1.2, 0.7, delay, 1.2)
                circuit = build()
                fingerprints.add(circuit.fingerprint())
                vectors = random_vectors(circuit.inputs, 60, seed=12)
                fast, ref = both_engines(circuit, vectors)
                assert_timed_identical(fast, ref)
            assert len(fingerprints) == 2
        finally:
            del gatelib.LIBRARY["REREG_T"]

    def test_multi_run_accumulation_matches_one_run(self):
        circuit = random_latched_circuit(5, 40, 4, seed=3)
        vectors = random_vectors(circuit.inputs, 50, seed=7)
        split = EventSimulator(circuit, engine="fast")
        split.run(vectors[:20])
        report = split.run(vectors[20:])
        other = EventSimulator(circuit, engine="reference")
        whole = other.run(vectors)
        assert_timed_identical(report, whole)
        # The simulator's internal state carried over exactly too.
        assert split._values == other._values
        assert split._state == other._state

    def test_step_then_run_mix_matches_reference(self):
        circuit = random_latched_circuit(4, 25, 2, seed=9)
        vectors = random_vectors(circuit.inputs, 30, seed=10)
        mixed = EventSimulator(circuit, engine="fast")
        for vec in vectors[:5]:
            mixed.step(vec)
        report = mixed.run(vectors[5:])
        pure = EventSimulator(circuit, engine="reference").run(vectors)
        assert_timed_identical(report, pure)

    def test_missing_input_keys_fall_back_to_reference(self):
        """Partial vectors (inputs holding their previous value) are a
        reference-engine feature; the fast path must defer, not crash."""
        circuit = ripple_carry_adder(3)
        partial = [{"a0": 1, "a1": 0, "a2": 1}] * 10   # b* unspecified
        fast, ref = both_engines(circuit, partial)
        assert_timed_identical(fast, ref)


class TestSettlingNormalization:
    """Satellite: pin the settling-cycle conventions in both engines."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_ones_and_cycles_match_zero_delay_accounting(self, engine):
        circuit = random_latched_circuit(5, 30, 3, seed=21)
        vectors = random_vectors(circuit.inputs, 25, seed=22)
        timed = EventSimulator(circuit, engine=engine).run(vectors)
        functional = collect_activity(circuit, vectors)
        # Settled values are delay-independent, and the settling cycle
        # counts toward ones/cycles in both engines -- so the static
        # statistics agree exactly with the zero-delay engine.
        assert timed.cycles == functional.cycles
        assert timed.ones == functional.ones

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_clock_capacitance_matches_zero_delay(self, engine):
        """Enable-gated clock edges follow the zero-delay convention:
        the edge after cycle k is gated by cycle k's enable, counted
        for k = 0..cycles-2 (regression for the old one-cycle skew)."""
        circuit = Circuit("gated")
        d, en = circuit.add_inputs(["d", "en"])
        q = circuit.add_latch(d, enable=en)
        circuit.add_output(circuit.add_gate("AND2", [q, d]))
        vectors = [{"d": t & 1, "en": (t < 3)} for t in range(8)]
        timed = EventSimulator(circuit, engine=engine).run(vectors)
        functional = collect_activity(circuit, vectors)
        assert timed.clock_capacitance == functional.clock_capacitance

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_settling_cycle_counts_no_toggles(self, engine):
        circuit = ripple_carry_adder(4)
        vectors = random_vectors(circuit.inputs, 1, seed=1)
        report = EventSimulator(circuit, engine=engine).run(vectors)
        assert report.cycles == 1
        assert sum(report.toggles.values()) == 0
        assert report.glitches == 0
        assert report.events > 0      # settling still moved nets


class TestGlitchReport:
    def test_glitch_report_identical_across_engines(self):
        circuit = chained_adder_tree(4, 2)
        vectors = random_vectors(circuit.inputs, 50, seed=31)
        fast = EventSimulator(circuit, engine="fast")
        ref = EventSimulator(circuit, engine="reference")
        assert fast.glitch_report(vectors) == ref.glitch_report(vectors)


class TestPlanCache:
    def test_plan_cached_and_invalidated(self):
        circuit = ripple_carry_adder(3)
        plan = fasttimer.compile_timed(circuit)
        assert fasttimer.compile_timed(circuit) is plan
        a = circuit.add_gate("INV", [circuit.inputs[0]])
        circuit.add_output(a)
        fresh = fasttimer.compile_timed(circuit)
        assert fresh is not plan
        assert fresh.version == circuit._version

    def test_circuit_pickles_without_plans(self):
        import pickle

        circuit = ripple_carry_adder(3)
        fasttimer.compile_timed(circuit)
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._fasttimer_plan is None
        assert clone._fastsim_plan is None
        vectors = random_vectors(circuit.inputs, 10, seed=6)
        assert_timed_identical(
            EventSimulator(clone, engine="fast").run(vectors),
            EventSimulator(circuit, engine="reference").run(vectors))
