"""Tests for the gate library, netlist, and simulators."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Circuit, EventSimulator, collect_activity, simulate
from repro.logic.gates import LIBRARY, gate_spec, wire_capacitance
from repro.logic.simulate import evaluate, output_trace, random_vectors
from repro.logic.generators import (
    array_multiplier,
    chained_adder_tree,
    counter,
    equality_comparator,
    magnitude_comparator,
    parity_tree,
    random_logic,
    ripple_carry_adder,
    shift_register,
)


def _word(values, prefix, width):
    return sum(values[f"{prefix}{i}"] << i for i in range(width))


def _vector(prefix_values):
    """{'a': (value, width), ...} -> flat input dict."""
    vec = {}
    for prefix, (value, width) in prefix_values.items():
        for i in range(width):
            vec[f"{prefix}{i}"] = (value >> i) & 1
    return vec


class TestGateLibrary:
    def test_all_specs_evaluate(self):
        for name, spec in LIBRARY.items():
            for bits in itertools.product([0, 1], repeat=spec.n_inputs):
                assert spec.evaluate(bits) in (0, 1)

    def test_known_functions(self):
        assert gate_spec("NAND2").evaluate((1, 1)) == 0
        assert gate_spec("NAND2").evaluate((0, 1)) == 1
        assert gate_spec("XOR3").evaluate((1, 1, 1)) == 1
        assert gate_spec("MUX2").evaluate((0, 1, 1)) == 1
        assert gate_spec("MUX2").evaluate((0, 1, 0)) == 0
        assert gate_spec("AOI21").evaluate((1, 1, 0)) == 0
        assert gate_spec("AOI21").evaluate((0, 0, 0)) == 1

    def test_unknown_gate(self):
        with pytest.raises(KeyError):
            gate_spec("FROB3")

    def test_arity_check(self):
        with pytest.raises(ValueError):
            gate_spec("AND2").evaluate((1, 1, 1))

    def test_wire_cap_monotone(self):
        assert wire_capacitance(0) == 0.0
        assert wire_capacitance(4) > wire_capacitance(1) > 0


class TestCircuitStructure:
    def test_duplicate_driver_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.add_input("a")

    def test_gate_arity_checked(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.add_gate("AND2", ["a"])

    def test_topological_order(self):
        c = Circuit()
        a, b = c.add_inputs(["a", "b"])
        n1 = c.add_gate("AND2", [a, b])
        n2 = c.add_gate("INV", [n1])
        order = [g.output for g in c.topological_gates()]
        assert order.index(n1) < order.index(n2)

    def test_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        # g1 depends on g2's output and vice versa.
        c.add_gate("AND2", ["a", "n2"], output="n1")
        c.add_gate("AND2", ["a", "n1"], output="n2")
        with pytest.raises(ValueError):
            c.topological_gates()

    def test_depth(self):
        c = ripple_carry_adder(4)
        assert c.depth() >= 4  # carry chain dominates

    def test_stats_and_area(self):
        c = equality_comparator(4)
        stats = c.stats()
        assert stats["gates"] == c.gate_count()
        assert stats["area"] > 0
        assert stats["total_capacitance"] > 0

    def test_clone_independent(self):
        c = parity_tree(4)
        d = c.clone()
        d.add_input("extra")
        assert "extra" not in c.inputs
        assert [g.output for g in d.gates] == [g.output for g in c.gates]

    def test_nets_is_a_fresh_list_that_follows_edits(self):
        c = parity_tree(4)
        nets = c.nets
        nets.append("junk")
        assert "junk" not in c.nets and c.nets == c.nets
        d = c.clone()
        out = d.add_gate("INV", [d.inputs[0]], output="extra")
        assert d.nets[-1] == out and out not in c.nets
        gate = d.gates.pop()
        del d._driver[gate.output]
        d.invalidate()
        assert d.nets == c.nets


class TestFunctionalSimulation:
    @pytest.mark.parametrize("width", [1, 2, 4, 6])
    def test_adder_correct(self, width):
        circuit = ripple_carry_adder(width)
        rng = random.Random(1)
        for _ in range(20):
            a = rng.randrange(1 << width)
            b = rng.randrange(1 << width)
            values = evaluate(circuit, _vector({"a": (a, width),
                                                "b": (b, width)}))
            total = _word(values, "s", width) + (values["cout"] << width)
            assert total == a + b

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_multiplier_correct(self, width):
        circuit = array_multiplier(width)
        for a in range(1 << width):
            for b in range(1 << width):
                values = evaluate(circuit, _vector({"a": (a, width),
                                                    "b": (b, width)}))
                assert _word(values, "p", 2 * width) == a * b

    def test_equality_comparator(self):
        circuit = equality_comparator(3)
        for a in range(8):
            for b in range(8):
                values = evaluate(circuit, _vector({"a": (a, 3),
                                                    "b": (b, 3)}))
                assert values["eq"] == int(a == b)

    def test_magnitude_comparator(self):
        circuit = magnitude_comparator(3)
        for a in range(8):
            for b in range(8):
                values = evaluate(circuit, _vector({"a": (a, 3),
                                                    "b": (b, 3)}))
                assert values["gt"] == int(a > b)

    def test_parity(self):
        circuit = parity_tree(5)
        for m in range(32):
            values = evaluate(circuit, {f"x{i}": (m >> i) & 1
                                        for i in range(5)})
            assert values["parity"] == bin(m).count("1") % 2

    def test_counter_counts(self):
        circuit = counter(4)
        vectors = [{"en": 1}] * 10
        trace = simulate(circuit, vectors)
        for t, values in enumerate(trace):
            assert _word(values, "q", 4) == t % 16

    def test_counter_hold(self):
        circuit = counter(4)
        trace = simulate(circuit, [{"en": 1}, {"en": 0}, {"en": 0},
                                   {"en": 1}])
        assert _word(trace[-1], "q", 4) == 1

    def test_shift_register(self):
        circuit = shift_register(3)
        bits = [1, 0, 1, 1, 0]
        trace = simulate(circuit, [{"din": b} for b in bits])
        assert trace[-1]["q0"] == bits[-2]
        assert trace[-1]["q2"] == bits[-4]

    def test_output_trace_shape(self):
        circuit = parity_tree(3)
        vecs = random_vectors(circuit.inputs, 5, seed=0)
        outs = output_trace(circuit, vecs)
        assert len(outs) == 5
        assert set(outs[0]) == {"parity"}


class TestActivityCollection:
    def test_toggle_counting(self):
        circuit = parity_tree(2)
        vecs = [{"x0": 0, "x1": 0}, {"x0": 1, "x1": 0}, {"x0": 1, "x1": 1}]
        report = collect_activity(circuit, vecs)
        assert report.toggles["x0"] == 1
        assert report.toggles["x1"] == 1
        assert report.activity("x0") == pytest.approx(0.5)
        assert report.switched_capacitance > 0

    def test_probability(self):
        circuit = parity_tree(2)
        vecs = [{"x0": 1, "x1": 0}] * 4
        report = collect_activity(circuit, vecs)
        assert report.probability("x0") == 1.0
        assert report.probability("x1") == 0.0

    def test_constant_inputs_no_power(self):
        circuit = ripple_carry_adder(4)
        vecs = [_vector({"a": (5, 4), "b": (3, 4)})] * 10
        report = collect_activity(circuit, vecs)
        assert report.switched_capacitance == 0.0
        assert report.average_power() == 0.0

    def test_power_scales_with_vdd(self):
        circuit = ripple_carry_adder(4)
        vecs = random_vectors(circuit.inputs, 50, seed=3)
        report = collect_activity(circuit, vecs)
        assert report.average_power(vdd=2.0) == pytest.approx(
            4.0 * report.average_power(vdd=1.0))

    def test_sequential_clock_power(self):
        circuit = counter(4)
        report = collect_activity(circuit, [{"en": 0}] * 10)
        # Even idle, the clock tree burns power.
        assert report.average_power() > 0


class TestEventSimulation:
    def test_settles_to_functional_values(self):
        circuit = ripple_carry_adder(4)
        sim = EventSimulator(circuit)
        rng = random.Random(7)
        state = None
        for _ in range(10):
            vec = _vector({"a": (rng.randrange(16), 4),
                           "b": (rng.randrange(16), 4)})
            settled = sim.step(vec)
            reference = evaluate(circuit, vec)
            for net, value in reference.items():
                assert settled[net] == value

    def test_glitches_exceed_functional_toggles(self):
        # A deep adder chain glitches under random stimulus.
        circuit = chained_adder_tree(4, 3)
        vecs = random_vectors(circuit.inputs, 60, seed=11)
        timed = EventSimulator(circuit).run(vecs)
        functional = collect_activity(circuit, vecs)
        assert timed.switched_capacitance >= functional.switched_capacitance
        # Strictly greater in practice:
        assert timed.switched_capacitance > 1.01 * \
            functional.switched_capacitance

    def test_glitch_report_nonnegative(self):
        circuit = chained_adder_tree(3, 2)
        vecs = random_vectors(circuit.inputs, 30, seed=5)
        report = EventSimulator(circuit).glitch_report(vecs)
        assert all(v >= 0 for v in report.values())
        assert any(v > 0 for v in report.values())

    def test_sequential_event_sim(self):
        circuit = counter(3)
        sim = EventSimulator(circuit)
        for t in range(1, 9):
            settled = sim.step({"en": 1})
            assert _word(settled, "q", 3) == (t - 1) % 8


class TestProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_logic_simulates(self, seed):
        circuit = random_logic(5, 15, 3, seed=seed)
        vecs = random_vectors(circuit.inputs, 5, seed=seed)
        trace = simulate(circuit, vecs)
        assert all(set(v) >= set(circuit.outputs) for v in trace)

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_event_sim_agrees_with_functional(self, width, seed):
        circuit = random_logic(width + 2, 10, 2, seed=seed)
        vecs = random_vectors(circuit.inputs, 8, seed=seed)
        sim = EventSimulator(circuit)
        for vec in vecs:
            settled = sim.step(vec)
            reference = evaluate(circuit, vec)
            assert all(settled[n] == reference[n] for n in circuit.outputs)


# ----------------------------------------------------------------------
# Cone structure carried across clone() and invalidate()
# ----------------------------------------------------------------------
SAME_ARITY = {1: ("INV", "BUF"),
              2: ("AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"),
              3: ("NAND3", "NOR3", "AOI21")}


def sequential_circuit(rng: random.Random) -> Circuit:
    """Random gates over inputs and flop outputs, with every flop's
    data (and some enables) driven back from the gates: latch
    feedback loops plus load-enable registers."""
    c = Circuit("seq")
    c.add_inputs([f"i{k}" for k in range(rng.randint(2, 4))])
    n_latches = rng.randint(1, 3)
    for k in range(n_latches):
        c.add_latch(f"d{k}", output=f"q{k}", init=rng.randint(0, 1),
                    enable=f"e{k}" if rng.random() < 0.5 else None)
    nets = list(c.inputs) + [l.output for l in c.latches]
    for _ in range(rng.randint(4, 14)):
        arity = rng.choice((1, 2, 2, 3))
        nets.append(c.add_gate(rng.choice(SAME_ARITY[arity]),
                               [rng.choice(nets) for _ in range(arity)]))
    for latch in c.latches:
        c.add_gate("BUF", [rng.choice(nets)], output=latch.data)
        if latch.enable is not None:
            c.add_gate("OR2", [rng.choice(nets), rng.choice(nets)],
                       output=latch.enable)
    c.add_output(nets[-1])
    return c


def apply_edit(c: Circuit, kind: str, rng: random.Random) -> None:
    """One in-place edit of ``kind``, then ``invalidate()``."""
    gates = [g for g in c.gates if len(g.inputs) in SAME_ARITY]
    if kind == "retype" and gates:
        g = rng.choice(gates)
        g.gate_type = rng.choice([t for t in SAME_ARITY[len(g.inputs)]
                                  if t != g.gate_type])
    elif kind == "rewire" and gates:
        # An earlier net keeps the gate list topologically ordered.
        index = rng.randrange(len(c.gates))
        g = c.gates[index]
        if g.inputs:
            earlier = (list(c.inputs) + [l.output for l in c.latches]
                       + [h.output for h in c.gates[:index]])
            g.inputs[rng.randrange(len(g.inputs))] = rng.choice(earlier)
    elif kind == "add_gate":
        arity = rng.choice((1, 2))
        c.add_gate(rng.choice(SAME_ARITY[arity]),
                   [rng.choice(c.nets) for _ in range(arity)])
    elif kind == "remove_gate" and c.gates:
        # Its readers are left reading an undriven net.
        g = c.gates.pop(rng.randrange(len(c.gates)))
        del c._driver[g.output]
    elif kind == "add_output":
        c.add_output(rng.choice(c.nets))
    elif kind == "enable":
        latch = rng.choice(c.latches)
        latch.enable = (None if latch.enable is not None
                        else rng.choice(c.nets))
    elif kind == "init":
        latch = rng.choice(c.latches)
        latch.init ^= 1
    elif kind == "data":
        latch = rng.choice(c.latches)
        latch.data = rng.choice(c.nets)
    c.invalidate()


def fanout_names(c: Circuit):
    return {net: [(getattr(consumer, "output", consumer), pin)
                  for consumer, pin in consumers]
            for net, consumers in c.fanout_map().items()}


def structure(c: Circuit, with_caps: bool = True):
    """Everything the reuse must reproduce, in comparable form."""
    got = (c.cone_fingerprints(), c.cone_supports())
    if with_caps:
        caps = c.load_capacitances()
        got += (fanout_names(c), caps, list(caps))
    return got


EDIT_KINDS = ("retype", "rewire", "add_gate", "remove_gate",
              "add_output", "enable", "init", "data")


class TestConeStructureReuse:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6),
           edits=st.lists(st.tuples(st.sampled_from(EDIT_KINDS),
                                    st.sampled_from((None, "cone",
                                                     "all"))),
                          min_size=1, max_size=10))
    def test_edit_sequences_match_scratch(self, seed, edits):
        """Derived structure == a from-scratch rebuild, after any
        sequence of edits with queries at random points."""
        rng = random.Random(seed)
        parent = sequential_circuit(rng)
        structure(parent)
        c = parent.clone()
        for kind, query in edits:
            apply_edit(c, kind, rng)
            if query is not None:
                with_caps = query == "all"
                scratch = Circuit.from_dict(c.to_dict())
                assert structure(c, with_caps) == structure(scratch,
                                                            with_caps)
        scratch = Circuit.from_dict(c.to_dict())
        assert structure(c) == structure(scratch)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6),
           edits=st.lists(st.sampled_from(EDIT_KINDS), min_size=1,
                          max_size=6))
    def test_parent_edits_never_reach_a_clone(self, seed, edits):
        rng = random.Random(seed)
        parent = sequential_circuit(rng)
        structure(parent)
        c = parent.clone()
        before = structure(c)
        for kind in edits:
            apply_edit(parent, kind, rng)
            structure(parent)
        assert structure(c) == before
        assert before == structure(Circuit.from_dict(c.to_dict()))

    def test_retype_carries_supports_rewire_rebuilds(self):
        """A same-arity retype keeps the read sets, so the clone's
        supports are its parent's; a rewire recomputes them."""
        base = random_logic(6, 60, 3, seed=3)
        base.cone_fingerprints()
        retyped = base.clone()
        g = retyped.gates[10]
        g.gate_type = "XNOR2" if g.gate_type != "XNOR2" else "XOR2"
        retyped.invalidate()
        assert retyped.cone_supports() is base.cone_supports()
        assert retyped.cone_fingerprints() != base.cone_fingerprints()
        rewired = base.clone()
        g = rewired.gates[10]
        g.inputs[0] = next(n for n in rewired.inputs if n != g.inputs[0])
        rewired.invalidate()
        assert rewired.cone_supports() is not base.cone_supports()
        for c in (retyped, rewired):
            assert structure(c) == structure(Circuit.from_dict(c.to_dict()))

    def test_library_change_recomputes_caps(self):
        """Caps are reused only while each cell type maps to the same
        library entry."""
        base = random_logic(6, 40, 3, seed=5)
        base.cone_fingerprints()
        caps = base.load_capacitances()
        gate_type = base.gates[0].gate_type
        original = LIBRARY[gate_type]
        LIBRARY[gate_type] = dataclasses.replace(
            original, output_cap=original.output_cap + 1.0)
        try:
            clone = base.clone()
            clone.cone_fingerprints()
            assert clone.load_capacitances() != caps
            assert structure(clone) == structure(
                Circuit.from_dict(clone.to_dict()))
        finally:
            LIBRARY[gate_type] = original
