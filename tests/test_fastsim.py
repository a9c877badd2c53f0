"""Bit-parallel compiled engine: exact-equivalence and cache tests.

The fast engine's contract is *bit-identical* activity reports against
the scalar reference — toggles, ones, switched and clock capacitance
— on any circuit the compiler can lower.  That exactness is what lets
every estimator in the framework switch engines without moving the
paper's relative-accuracy numbers; it is cross-checked here
property-based (hypothesis) on random combinational and latched
circuits, including load-enable latches and clock-gating capacitance.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import fastsim
from repro.logic.generators import (
    counter,
    parity_tree,
    random_logic,
    ripple_carry_adder,
    shift_register,
)
from repro.logic.netlist import Circuit
from repro.logic.simulate import (
    ActivityReport,
    _collect_activity_reference,
    collect_activity,
    output_trace,
    random_vectors,
)


def assert_reports_identical(fast: ActivityReport,
                             ref: ActivityReport) -> None:
    assert fast.cycles == ref.cycles
    assert fast.toggles == ref.toggles
    assert fast.ones == ref.ones
    assert fast.switched_capacitance == ref.switched_capacitance
    assert fast.clock_capacitance == ref.clock_capacitance


def random_latched_circuit(n_inputs: int, n_gates: int, n_latches: int,
                           seed: int) -> Circuit:
    """Random sequential circuit with feedback, enables, and mixed
    clocked/transparent latches (the full Latch feature surface)."""
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


class TestCombinationalEquivalence:
    @settings(deadline=None, max_examples=30)
    @given(n_inputs=st.integers(2, 10), n_gates=st.integers(1, 80),
           seed=st.integers(0, 10_000), n_vectors=st.integers(0, 70))
    def test_random_logic_matches_reference(self, n_inputs, n_gates,
                                            seed, n_vectors):
        circuit = random_logic(n_inputs, n_gates, 3, seed=seed)
        vectors = random_vectors(circuit.inputs, n_vectors, seed=seed + 1)
        assert_reports_identical(
            fastsim.collect_activity(circuit, vectors),
            _collect_activity_reference(circuit, vectors))

    @settings(deadline=None, max_examples=10)
    @given(width=st.integers(1, 10), n_vectors=st.integers(1, 40),
           seed=st.integers(0, 1000))
    def test_adder_matches_reference(self, width, n_vectors, seed):
        circuit = ripple_carry_adder(width)
        vectors = random_vectors(circuit.inputs, n_vectors, seed=seed)
        assert_reports_identical(
            fastsim.collect_activity(circuit, vectors),
            _collect_activity_reference(circuit, vectors))

    def test_output_trace_matches_reference(self):
        circuit = parity_tree(6)
        vectors = random_vectors(circuit.inputs, 50, seed=4)
        assert fastsim.output_trace(circuit, vectors) == \
            output_trace(circuit, vectors, engine="reference")


class TestSequentialEquivalence:
    @settings(deadline=None, max_examples=30)
    @given(n_inputs=st.integers(1, 6), n_gates=st.integers(1, 40),
           n_latches=st.integers(1, 8), seed=st.integers(0, 10_000),
           n_cycles=st.integers(0, 80))
    def test_latched_matches_reference(self, n_inputs, n_gates,
                                       n_latches, seed, n_cycles):
        circuit = random_latched_circuit(n_inputs, n_gates, n_latches,
                                         seed)
        vectors = random_vectors(circuit.inputs, n_cycles, seed=seed + 1)
        assert_reports_identical(
            fastsim.collect_activity(circuit, vectors),
            _collect_activity_reference(circuit, vectors))

    @pytest.mark.parametrize("make,width,cycles", [
        (counter, 6, 200),          # tight latch feedback loops
        (shift_register, 9, 150),   # deep feed-forward latch chain
    ])
    def test_sequential_benchmarks(self, make, width, cycles):
        circuit = make(width)
        vectors = random_vectors(circuit.inputs, cycles, seed=9)
        assert_reports_identical(
            fastsim.collect_activity(circuit, vectors),
            _collect_activity_reference(circuit, vectors))

    def test_chunk_boundaries_exact(self):
        """Toggle counting must stitch across the 64-cycle time chunks."""
        circuit = counter(4)
        for cycles in (63, 64, 65, 127, 128, 129, 193):
            vectors = [{"en": 1}] * cycles
            assert_reports_identical(
                fastsim.collect_activity(circuit, vectors),
                _collect_activity_reference(circuit, vectors))

    def test_initial_state_respected(self):
        circuit = shift_register(4)
        vectors = random_vectors(circuit.inputs, 30, seed=2)
        state = {f"q{i}": i % 2 for i in range(4)}
        assert_reports_identical(
            fastsim.collect_activity(circuit, vectors, state),
            _collect_activity_reference(circuit, vectors, state))

    def test_output_trace_sequential(self):
        circuit = counter(5)
        vectors = [{"en": t % 3 != 0} for t in range(100)]
        vectors = [{"en": int(v["en"])} for v in vectors]
        assert fastsim.output_trace(circuit, vectors) == \
            output_trace(circuit, vectors, engine="reference")


class TestDispatch:
    def test_engine_argument(self):
        circuit = ripple_carry_adder(3)
        vectors = random_vectors(circuit.inputs, 20, seed=0)
        fast = collect_activity(circuit, vectors, engine="fast")
        ref = collect_activity(circuit, vectors, engine="reference")
        assert_reports_identical(fast, ref)
        with pytest.raises(ValueError):
            collect_activity(circuit, vectors, engine="warp")

    def test_packed_vectors_accepted_by_both_engines(self):
        circuit = ripple_carry_adder(3)
        packed = fastsim.random_packed_vectors(circuit.inputs, 25, seed=1)
        assert len(packed) == 25
        fast = collect_activity(circuit, packed, engine="fast")
        ref = collect_activity(circuit, packed, engine="reference")
        assert_reports_identical(fast, ref)

    def test_packed_roundtrip(self):
        circuit = parity_tree(4)
        vectors = random_vectors(circuit.inputs, 33, seed=5)
        packed = fastsim.PackedVectors.from_vectors(circuit.inputs,
                                                    vectors)
        assert packed.to_vectors() == vectors

    def test_estimator_engines_agree(self):
        from repro.core.estimator import PowerEstimator

        circuit = ripple_carry_adder(4)
        vectors = random_vectors(circuit.inputs, 60, seed=3)
        est = PowerEstimator()
        fast = est.gate(circuit, vectors)
        ref = est.gate(circuit, vectors, engine="reference")
        assert fast.power == ref.power
        assert "fast" in fast.technique and "reference" in ref.technique


class TestPackedStimulus:
    def test_unbiased_lane_statistics(self):
        packed = fastsim.random_packed_vectors(["a", "b"], 4000, seed=7)
        for name in ("a", "b"):
            density = packed.words[name].bit_count() / 4000
            assert density == pytest.approx(0.5, abs=0.05)

    def test_biased_threshold_packing(self):
        packed = fastsim.random_packed_vectors(
            ["a", "b", "c"], 6000, seed=11,
            probs={"a": 0.1, "b": 0.85})
        assert packed.words["a"].bit_count() / 6000 == \
            pytest.approx(0.1, abs=0.03)
        assert packed.words["b"].bit_count() / 6000 == \
            pytest.approx(0.85, abs=0.03)
        assert packed.words["c"].bit_count() / 6000 == \
            pytest.approx(0.5, abs=0.05)

    def test_degenerate_probabilities(self):
        packed = fastsim.random_packed_vectors(
            ["a", "b"], 50, seed=0, probs={"a": 0.0, "b": 1.0})
        assert packed.words["a"] == 0
        assert packed.words["b"] == (1 << 50) - 1


class TestCycleConvention:
    """Regression pin for the cycles-vs-boundaries normalization."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_single_cycle_has_no_transitions(self, engine):
        circuit = counter(3)
        report = collect_activity(circuit, [{"en": 1}], engine=engine)
        assert report.cycles == 1
        assert sum(report.toggles.values()) == 0
        assert report.switched_capacitance == 0.0
        assert report.clock_capacitance == 0.0   # needs cycles > 1
        assert report.average_power() == 0.0
        assert report.activity("q0") == 0.0
        # ones still counts the single settled state.
        assert report.probability("en") == 1.0

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_two_cycles_one_boundary(self, engine):
        circuit = Circuit("inv")
        a = circuit.add_input("a")
        y = circuit.add_gate("INV", [a])
        circuit.add_output(y)
        report = collect_activity(circuit, [{"a": 0}, {"a": 1}],
                                  engine=engine)
        assert report.cycles == 2
        assert report.toggles["a"] == 1 and report.toggles[y] == 1
        # One boundary: activity = toggles / (cycles - 1) = 1.
        assert report.activity("a") == 1.0
        # ones spans both cycles: a high once, y high once.
        assert report.probability("a") == 0.5
        assert report.probability(y) == 0.5
        caps = circuit.load_capacitances()
        assert report.switched_capacitance == caps["a"] + caps[y]
        assert report.average_power() == pytest.approx(
            0.5 * (caps["a"] + caps[y]))

    def test_engines_agree_on_edge_cases(self):
        circuit = random_latched_circuit(3, 12, 3, seed=77)
        for cycles in (0, 1, 2):
            vectors = random_vectors(circuit.inputs, cycles, seed=cycles)
            assert_reports_identical(
                fastsim.collect_activity(circuit, vectors),
                _collect_activity_reference(circuit, vectors))

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(1, 140), word=st.integers(-(1 << 150), 1 << 150))
    def test_lane_counts_match_the_bits(self, n, word):
        """Lane counts == a bit-by-bit count over cycles 0..n-1, for
        words wider than ``n`` and negative words too."""
        bits = [(word >> i) & 1 for i in range(n)]
        toggles = sum(bits[i] != bits[i - 1] for i in range(1, n))
        assert fastsim.lane_counts(word, n) == (sum(bits), toggles,
                                                bits[-1])


class TestCompiledPlanCaching:
    def test_plan_reused_until_mutation(self):
        circuit = ripple_carry_adder(3)
        plan1 = fastsim.compile_circuit(circuit)
        assert fastsim.compile_circuit(circuit) is plan1
        circuit.add_gate("INV", [circuit.inputs[0]])
        plan2 = fastsim.compile_circuit(circuit)
        assert plan2 is not plan1
        assert len(plan2.nets) == len(plan1.nets) + 1

    def test_fanout_and_caps_cached_and_invalidated(self):
        circuit = parity_tree(4)
        fanout1 = circuit.fanout_map()
        caps1 = circuit.load_capacitances()
        assert circuit.fanout_map() is fanout1
        assert circuit.load_capacitances() is caps1
        circuit.add_gate("INV", [circuit.inputs[0]])
        assert circuit.fanout_map() is not fanout1
        assert circuit.load_capacitances() is not caps1

    def test_inplace_mutation_with_invalidate(self):
        """The clock-gating pattern: mutate latch.enable in place,
        call invalidate(), and the fast engine must see the change."""
        circuit = counter(3)
        vectors = [{"en": 1}] * 40
        before = collect_activity(circuit, vectors)
        gate_off = circuit.add_gate("CONST0", [], output="gate_off")
        for latch in circuit.latches:
            latch.enable = gate_off
        circuit.invalidate()
        after = collect_activity(circuit, vectors)
        assert_reports_identical(
            after, _collect_activity_reference(circuit, vectors))
        # Clock gated off: no latch clock capacitance, less switching.
        assert after.clock_capacitance == 0.0
        assert before.clock_capacitance > 0.0

    def test_truth_table_fallback_for_custom_cells(self):
        """Gate types without a hand-written kernel lower through the
        synthesized truth-table path and stay exactly equivalent."""
        from repro.logic.gates import GateSpec, LIBRARY

        name = "MAJ3_TEST"
        LIBRARY[name] = GateSpec(
            name, 3, lambda v: int(v[0] + v[1] + v[2] >= 2),
            1.3, 0.8, 2.0, 2.0)
        try:
            circuit = Circuit("maj")
            a, b, c = circuit.add_inputs(["a", "b", "c"])
            y = circuit.add_gate(name, [a, b, c])
            circuit.add_output(y)
            vectors = random_vectors(circuit.inputs, 40, seed=1)
            assert_reports_identical(
                fastsim.collect_activity(circuit, vectors),
                _collect_activity_reference(circuit, vectors))
        finally:
            del LIBRARY[name]
