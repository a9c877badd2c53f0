"""Incremental cone-of-influence re-estimation (repro.logic.incremental).

The load-bearing property is *bit-identity*: every report produced
through the cone cache — cached, delta, or full-splice — must equal
full resimulation exactly (integer counts and float sums).  The
hypothesis suites drive random circuits, random edits, and every
engine through that equality; the remaining tests pin the cache
contracts (stale-mutation safety, cone records staying in process,
store corruption degrading to a miss, estimator memoization) and the
rewired optimization passes.
"""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import store as artifact_store
from repro.logic import incremental as inc
from repro.logic.fastsim import (
    PackedVectors,
    random_packed_vectors,
    stimulus_fingerprint,
)
from repro.logic.generators import counter, random_logic
from repro.logic.netlist import Circuit
from repro.logic.simulate import collect_activity, random_vectors

GATE_TYPES = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"]


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test runs on its own process-wide cone cache."""
    old = inc.set_cone_cache(inc.ConeCache())
    yield
    inc.set_cone_cache(old)


def edit_gates(circuit: Circuit, indices, rng) -> Circuit:
    """Clone and retype the chosen 2-input gates (never a no-op)."""
    variant = circuit.clone(f"{circuit.name}_edit")
    two_in = [g for g in variant.gates if len(g.inputs) == 2
              and g.gate_type in GATE_TYPES]
    for i in indices:
        gate = two_in[i % len(two_in)]
        gate.gate_type = rng.choice(
            [t for t in GATE_TYPES if t != gate.gate_type])
    variant.invalidate()
    return variant


class CountingDict(dict):
    """A dict that counts ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def assert_delta_equals_full(base, variant, vectors, engine=None):
    cache = inc.ConeCache()
    inc.prime(base, vectors, engine=engine, cache=cache)
    got, stats = inc.delta_activity(variant, vectors, engine=engine,
                                    cache=cache)
    want = collect_activity(variant, vectors, engine=engine)
    assert inc.reports_equal(got, want), stats
    return stats


# ----------------------------------------------------------------------
# Hypothesis: bit-identity across random edits / engines / feedback
# ----------------------------------------------------------------------
class TestDeltaBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(n_gates=st.integers(10, 120), n_cycles=st.integers(1, 80),
           edits=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
           seed=st.integers(0, 10))
    def test_random_edits_combinational(self, n_gates, n_cycles,
                                        edits, seed):
        base = random_logic(6, n_gates, 3, seed=seed)
        vectors = random_packed_vectors(list(base.inputs), n_cycles,
                                        seed=seed + 1)
        variant = edit_gates(base, edits, random.Random(seed))
        assert_delta_equals_full(base, variant, vectors)

    @settings(deadline=None, max_examples=15)
    @given(width=st.integers(2, 6), n_cycles=st.integers(2, 60),
           seed=st.integers(0, 5))
    def test_latch_feedback(self, width, n_cycles, seed):
        """Counters close cones over latch feedback; editing the
        increment logic must still splice exactly."""
        base = counter(width)
        vectors = random_packed_vectors(list(base.inputs), n_cycles,
                                        seed=seed)
        variant = edit_gates(base, [seed], random.Random(seed))
        stats = assert_delta_equals_full(base, variant, vectors)
        assert stats.source in ("delta", "full", "cached")

    @settings(deadline=None, max_examples=10)
    @given(n_gates=st.integers(10, 60), seed=st.integers(0, 5))
    def test_engine_reference(self, n_gates, seed):
        base = random_logic(5, n_gates, 2, seed=seed)
        vectors = random_packed_vectors(list(base.inputs), 24,
                                        seed=seed)
        variant = edit_gates(base, [seed], random.Random(seed))
        assert_delta_equals_full(base, variant, vectors,
                                 engine="reference")

    def test_initial_state_falls_back(self):
        """Explicit latch initial state bypasses the cone cache."""
        base = counter(3)
        vectors = random_vectors(base.inputs, 20, seed=1)
        state = {latch.output: 1 for latch in base.latches}
        report, stats = inc.delta_activity(base, vectors,
                                           initial_state=state)
        assert stats.source == "fallback"
        assert inc.reports_equal(
            report, collect_activity(base, vectors, initial_state=state))

    def test_second_evaluation_is_fully_cached(self):
        base = random_logic(6, 50, 3, seed=2)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=3)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)
        report, stats = inc.delta_activity(base, vectors, cache=cache)
        assert stats.source == "cached" and stats.dirty_nets == 0
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))

    def test_eviction_causes_misses_not_staleness(self):
        base = random_logic(6, 60, 3, seed=4)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=5)
        cache = inc.ConeCache(max_bytes=1024)   # evicts almost all
        inc.prime(base, vectors, cache=cache)
        report, stats = inc.delta_activity(base, vectors, cache=cache)
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))
        assert stats.source in ("delta", "full")


# ----------------------------------------------------------------------
# Staleness contract
# ----------------------------------------------------------------------
class TestStaleness:
    def test_mutate_invalidate_rekeys(self):
        """In-place mutation + invalidate() must never serve the old
        circuit's cached counts."""
        base = random_logic(5, 40, 2, seed=6)
        vectors = random_packed_vectors(list(base.inputs), 48, seed=7)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)

        gate = next(g for g in base.gates if len(g.inputs) == 2
                    and g.gate_type in GATE_TYPES)
        gate.gate_type = ("AND2" if gate.gate_type != "AND2"
                          else "OR2")
        base.invalidate()

        report, _stats = inc.delta_activity(base, vectors, cache=cache)
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))

    def test_stimulus_change_rekeys(self):
        base = random_logic(5, 40, 2, seed=8)
        v1 = random_packed_vectors(list(base.inputs), 48, seed=1)
        v2 = random_packed_vectors(list(base.inputs), 48, seed=2)
        cache = inc.ConeCache()
        inc.prime(base, v1, cache=cache)
        report, _ = inc.delta_activity(base, v2, cache=cache)
        assert inc.reports_equal(report, collect_activity(base, v2))

    def test_data_only_cones_survive_control_change(self):
        """Changing one input's lanes re-keys only the cones that can
        observe it (the respecification reuse shape)."""
        c = Circuit("split")
        c.add_inputs(["a", "b", "s"])
        c.add_gate("XOR2", ["a", "b"], output="data")
        c.add_gate("AND2", ["data", "s"], output="y")
        c.add_output("y")
        v1 = random_packed_vectors(["a", "b", "s"], 32, seed=1)
        words = dict(v1.words)
        words["s"] ^= (1 << 31) - 1
        v2 = PackedVectors(["a", "b", "s"], 32, words)
        cache = inc.ConeCache()
        inc.prime(c, v1, cache=cache)
        report, stats = inc.delta_activity(c, v2, cache=cache)
        assert inc.reports_equal(report, collect_activity(c, v2))
        assert stats.reused_nets >= 1        # "data" spliced
        assert stats.dirty_nets >= 1         # "y" resimulated


# ----------------------------------------------------------------------
# Store layer (cone records stay in process, corruption)
# ----------------------------------------------------------------------
class TestStoreLayer:
    @pytest.fixture(autouse=True)
    def _store(self, tmp_path):
        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        yield
        artifact_store.set_store(old)

    def _prime_on_disk(self):
        base = random_logic(5, 40, 2, seed=9)
        vectors = random_packed_vectors(list(base.inputs), 256, seed=3)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)
        return base, vectors, cache

    def test_cone_records_stay_in_process(self, tmp_path):
        base, vectors, cache = self._prime_on_disk()
        variant = edit_gates(base, [7], random.Random(2))
        _, stats = inc.delta_activity(variant, vectors, cache=cache)
        assert stats.source == "delta"
        assert list(tmp_path.glob("activity-*")) == []
        # Fresh in-process cache + fresh circuit object = a new
        # process: nothing on disk serves it, full simulation does.
        clone = base.clone(base.name)
        report, stats = inc.delta_activity(clone, vectors,
                                           cache=inc.ConeCache())
        assert stats.source == "full"
        assert inc.reports_equal(report,
                                 collect_activity(clone, vectors))

    def test_corrupt_store_entry_degrades_to_miss(self, tmp_path):
        base, vectors, _ = self._prime_on_disk()
        paths = list(tmp_path.glob("*.json"))
        assert paths                           # the compiled plans
        for path in paths:
            path.write_text("{ not json")
        # Fresh store object and fresh circuit object, as in a new
        # process: the priming store's in-memory layer and the plan
        # cached on ``base`` would otherwise mask the corrupted disk
        # entries.
        artifact_store.configure(tmp_path)
        clone = base.clone(base.name)
        report, _ = inc.delta_activity(clone, vectors,
                                       cache=inc.ConeCache())
        assert inc.reports_equal(report,
                                 collect_activity(clone, vectors))
        assert artifact_store.get_store().stats()["corrupt"] > 0

    def test_wrong_schema_payload_is_a_miss(self):
        assert artifact_store.unpack_activity(None) is None
        assert artifact_store.unpack_activity({"schema": "bogus"}) is None
        good = artifact_store.pack_activity(4, ["a"], {"a": 1},
                                            {"a": 2}, 1.5, 0.0)
        decoded = artifact_store.unpack_activity(good)
        assert decoded is not None and decoded["cycles"] == 4
        bad = dict(good)
        bad["toggles"] = [1, 2, 3]          # length mismatch
        assert artifact_store.unpack_activity(bad) is None


# ----------------------------------------------------------------------
# Estimator facade
# ----------------------------------------------------------------------
class TestEstimator:
    def test_estimate_delta_matches_simulation(self):
        from repro.core.estimator import PowerEstimator

        base = random_logic(6, 60, 3, seed=10)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=4)
        variant = edit_gates(base, [2], random.Random(0))
        est = PowerEstimator()
        delta = est.estimate_delta(base, variant, vectors)
        full = est.gate(variant, vectors, technique="simulation")
        assert delta.power == full.power
        assert delta.technique.startswith("simulation-delta/")

    def test_gate_never_computes_cone_keys(self, monkeypatch):
        from repro.core.estimator import PowerEstimator

        base = random_logic(6, 60, 3, seed=11)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=5)
        inc.prime(base, vectors)               # process-wide cache
        other = random_logic(6, 60, 3, seed=12)
        want = collect_activity(other, vectors).average_power()

        def no_cone_keys(self):
            raise AssertionError("gate() computed cone keys")

        monkeypatch.setattr(Circuit, "cone_fingerprints", no_cone_keys)
        assert PowerEstimator().gate(other, vectors).power == want

    def test_packed_stimulus_memo(self):
        from repro.core.estimator import PowerEstimator
        from repro.rtl.components import make_component
        from repro.rtl.streams import random_stream

        comp = make_component("add", 4)
        streams = [random_stream(4, 40, seed=1),
                   random_stream(4, 40, seed=2)]
        est = PowerEstimator()
        p1 = est.packed_stimulus(comp.input_ports, streams)
        p2 = est.packed_stimulus(comp.input_ports, streams)
        assert p1 is p2                        # memo identity hit

        r1 = est.component(comp, streams)
        # In-place mutation + invalidate(): new fingerprint, repack.
        streams[0].words[0] ^= 0xF
        streams[0].invalidate()
        p3 = est.packed_stimulus(comp.input_ports, streams)
        assert p3 is not p1
        r2 = est.component(comp, streams)
        full = collect_activity(
            comp.circuit,
            p3).average_power()
        assert r2.power == pytest.approx(full)
        assert r1.technique == r2.technique

    def test_wordstream_invalidate_regression(self):
        """append + pop restores the length — only the version bump
        keeps the stale fingerprint from resurfacing."""
        from repro.rtl.streams import random_stream

        stream = random_stream(8, 32, seed=3)
        fp = stream.fingerprint()
        stream.words[0] ^= 0xFF
        stream.invalidate()
        assert stream.fingerprint() != fp

        stream2 = random_stream(8, 32, seed=4)
        fp2 = stream2.fingerprint()
        stream2.words.append(1)
        stream2.invalidate()
        stream2.words.pop()                   # length restored
        assert stream2.fingerprint() == fp2   # content truly unchanged
        stream2.words[1] ^= 1
        stream2.invalidate()
        assert stream2.fingerprint() != fp2


# ----------------------------------------------------------------------
# estimate_delta primes each base once
# ----------------------------------------------------------------------
class TestPrimeMemo:
    """``estimate_delta`` skips re-priming a base whose records are
    resident; reports and DeltaStats never depend on the skip."""

    @pytest.fixture
    def lockstep(self, monkeypatch):
        """``(base_runs, step)``: ``step`` runs ``estimate_delta`` and,
        beside it on its own cache, a run that primes every time."""
        real = inc.delta_activity
        base_runs = []
        reference = inc.ConeCache()

        def counting(circuit, *args, **kwargs):
            if circuit is self.base:
                base_runs.append(kwargs.get("engine"))
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(inc, "delta_activity", counting)

        def step(variant, vectors, engine=None, cache=None):
            got, stats = inc.estimate_delta(self.base, variant, vectors,
                                            engine=engine, cache=cache)
            real(self.base, vectors, engine=engine, cache=reference)
            _, want = real(variant, vectors, engine=engine,
                           cache=reference)
            assert inc.reports_equal(
                got, collect_activity(variant, vectors, engine=engine))
            assert stats == want

        self.reference = reference
        return base_runs, step

    def setup_method(self):
        self.base = random_logic(6, 80, 3, seed=12)
        self.vectors = random_packed_vectors(list(self.base.inputs), 64,
                                             seed=1)
        # Variants cloned after the base's cone structure exists start
        # from the primed base's records.
        self.base.cone_fingerprints()
        self.variants = [edit_gates(self.base, [k], random.Random(k))
                         for k in range(8)]

    def test_second_call_skips_the_prime(self, lockstep):
        base_runs, step = lockstep
        step(self.variants[0], self.vectors)
        step(self.variants[1], self.vectors)
        assert len(base_runs) == 1

    def test_primes_again_after_clear(self, lockstep):
        base_runs, step = lockstep
        step(self.variants[0], self.vectors)
        inc.clear_cone_cache()
        self.reference.clear()
        step(self.variants[1], self.vectors)
        assert len(base_runs) == 2

    def test_variant_evictions_keep_the_base_primed(self, lockstep):
        base_runs, step = lockstep
        cache = inc.ConeCache()
        step(self.variants[0], self.vectors, cache=cache)
        pinned = cache.stats()["pinned_bytes"]
        assert 0 < pinned < cache.stats()["bytes"]
        # Room for the base plus any one variant's records, but not
        # for all of them: later variants evict earlier ones.
        per_record = next(iter(cache._entries.values())).nbytes()
        cache.max_bytes = pinned + 100 * per_record
        self.reference.max_bytes = cache.max_bytes
        for variant in self.variants[1:]:
            step(variant, self.vectors, cache=cache)
        stats = cache.stats()
        assert stats["evictions"] and stats["bytes"] <= stats["max_bytes"]
        assert len(base_runs) == 1 and stats["primes"] == 1
        assert stats["pinned_bytes"] == pinned

    def test_base_eviction_primes_again(self):
        cache = inc.ConeCache()
        inc.estimate_delta(self.base, self.variants[0], self.vectors,
                           cache=cache)
        # Less room than the base alone: once the variants' records
        # are gone, the next variant's records evict the base's.
        cache.max_bytes = cache.stats()["pinned_bytes"] - 1
        for k in (1, 2):
            variant = self.variants[k]
            got, _ = inc.estimate_delta(self.base, variant, self.vectors,
                                        cache=cache)
            assert inc.reports_equal(
                got, collect_activity(variant, self.vectors))
            stats = cache.stats()
            assert stats["bytes"] <= stats["max_bytes"]
            assert stats["primes"] == k and stats["pinned_bytes"] == 0

    def test_a_base_that_cannot_fit_releases_the_others(self):
        """A prime that loses its own records to the pinned records of
        an older base is not remembered; it releases the older base,
        so the next prime of the new base fits and is remembered."""
        other = random_logic(6, 80, 3, seed=13)
        cache = inc.ConeCache()
        inc.prime(other, self.vectors, cache=cache)
        pinned = cache.stats()["pinned_bytes"]
        cache.max_bytes = pinned * 3 // 2
        for primes, pinned_after in ((2, 0), (3, None)):
            inc.estimate_delta(self.base, self.variants[0], self.vectors,
                               cache=cache)
            stats = cache.stats()
            assert stats["primes"] == primes
            assert stats["bytes"] <= stats["max_bytes"]
            if pinned_after is not None:
                assert stats["pinned_bytes"] == pinned_after
        assert 0 < cache.stats()["pinned_bytes"] <= cache.max_bytes
        got, _ = inc.estimate_delta(self.base, self.variants[1],
                                    self.vectors, cache=cache)
        assert cache.stats()["primes"] == 3
        assert inc.reports_equal(
            got, collect_activity(self.variants[1], self.vectors))

    def test_record_copy_matches_probing_every_net(self):
        """A variant derived from a primed base probes only the nets
        its edit rehashed, with the same report, DeltaStats and
        counters as a copy of the cache that probes every net."""
        cache = inc.ConeCache()
        inc.prime(self.base, self.vectors, cache=cache)
        for variant in self.variants:
            probing = copy.deepcopy(cache)
            for token in list(probing._primed):
                probing._release(token)
            cache._entries = CountingDict(cache._entries)
            got, got_stats = inc.delta_activity(variant, self.vectors,
                                                cache=cache,
                                                populate=False)
            want, want_stats = inc.delta_activity(
                variant, self.vectors, cache=probing, populate=False)
            assert inc.reports_equal(got, want)
            assert got_stats == want_stats
            assert (cache.hits, cache.misses) == (probing.hits,
                                                  probing.misses)
            rehashed = variant._cone_structure().rehashed
            assert 0 < cache._entries.gets == len(rehashed) \
                < got_stats.total_nets - len(self.base.inputs)
            cache._entries = dict(cache._entries)

    def test_prime_that_evicts_is_not_remembered(self, lockstep):
        base_runs, step = lockstep
        cache = inc.ConeCache(max_bytes=1024)
        self.reference.max_bytes = 1024
        step(self.variants[0], self.vectors, cache=cache)
        step(self.variants[1], self.vectors, cache=cache)
        assert len(base_runs) == 2

    def test_primes_again_for_another_stimulus_or_engine(self, lockstep):
        base_runs, step = lockstep
        other = random_packed_vectors(list(self.base.inputs), 64, seed=2)
        step(self.variants[0], self.vectors)
        step(self.variants[1], other)
        step(self.variants[2], self.vectors, engine="reference")
        assert base_runs == [None, None, "reference"]
        step(self.variants[3], other)
        step(self.variants[4], self.vectors, engine="reference")
        assert len(base_runs) == 3

    def test_primes_again_after_the_base_changes(self, lockstep):
        base_runs, step = lockstep
        step(self.variants[0], self.vectors)
        gate = next(g for g in self.base.gates
                    if g.gate_type in GATE_TYPES and len(g.inputs) == 2)
        gate.gate_type = "AND2" if gate.gate_type != "AND2" else "OR2"
        self.base.invalidate()
        step(self.variants[1], self.vectors)
        assert len(base_runs) == 2


# ----------------------------------------------------------------------
# Derived variants: keys and records carried over from the parent
# ----------------------------------------------------------------------
SAME_ARITY = {1: ("INV", "BUF"), 2: tuple(GATE_TYPES),
              3: ("NAND3", "NOR3", "AOI21")}


def feedback_circuit(rng: random.Random) -> Circuit:
    """Random gates over inputs and flop outputs; every flop's data
    (and some enables) is driven back from the gates."""
    c = Circuit("fb")
    c.add_inputs([f"i{k}" for k in range(rng.randint(2, 4))])
    for k in range(rng.randint(1, 3)):
        c.add_latch(f"d{k}", output=f"q{k}", init=rng.randint(0, 1),
                    enable=f"e{k}" if rng.random() < 0.5 else None)
    nets = list(c.inputs) + [l.output for l in c.latches]
    for _ in range(rng.randint(4, 16)):
        arity = rng.choice((1, 2, 2, 3))
        nets.append(c.add_gate(rng.choice(SAME_ARITY[arity]),
                               [rng.choice(nets) for _ in range(arity)]))
    for latch in list(c.latches):
        c.add_gate("BUF", [rng.choice(nets)], output=latch.data)
        if latch.enable is not None:
            c.add_gate("OR2", [rng.choice(nets), rng.choice(nets)],
                       output=latch.enable)
    c.add_output(nets[-1])
    return c


class TestDerivedVariants:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6),
           steps=st.lists(st.tuples(st.sampled_from(
               ("retype", "init", "clocked", "clone")),
               st.integers(0, 7)), min_size=1, max_size=10))
    def test_derived_keys_match_scratch(self, seed, steps):
        """Keys of a structure derived by retypes and latch-line edits,
        along clone-of-clone chains, == keys of the same circuit built
        from scratch; queries alternate two stimuli, both engines and
        two lengths, so no memo serves another query's keys.  Each
        edited clone is also re-estimated against its parent."""
        rng = random.Random(seed)
        c = feedback_circuit(rng)
        a = random_packed_vectors(list(c.inputs), 48, seed=seed)
        b = random_packed_vectors(list(c.inputs), 48, seed=seed + 1)
        queries = [(a, "fast"), (b, "reference"), (a.slice(0, 20), "fast"),
                   (b, "fast"), (a, "reference")]
        cache = inc.ConeCache()

        def check(circuit, q):
            packed, engine = queries[q % len(queries)]
            scratch = Circuit.from_dict(circuit.to_dict())
            assert inc.cone_keys(circuit, packed, engine) \
                == inc.cone_keys(scratch, packed, engine)

        check(c, 0)
        parent = c
        for kind, q in steps:
            if kind == "clone":
                parent, c = c, c.clone()
            elif kind == "retype":
                g = rng.choice(c.gates)
                g.gate_type = rng.choice(
                    [t for t in SAME_ARITY[len(g.inputs)]
                     if t != g.gate_type])
            else:
                latch = rng.choice(c.latches)
                if kind == "init":
                    latch.init ^= 1
                else:
                    latch.clocked = not latch.clocked
            c.invalidate()
            check(c, q)
            packed, engine = queries[q % len(queries)]
            got, _ = inc.estimate_delta(parent, c, packed, engine=engine,
                                        cache=cache)
            assert inc.reports_equal(
                got, collect_activity(c, packed, engine=engine))

    def test_retype_rekeys_only_the_rehashed_nets(self):
        base = random_logic(6, 80, 3, seed=5)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=2)
        base_keys = inc.cone_keys(base, vectors, "fast")
        variant = edit_gates(base, [3], random.Random(3))
        keys = inc.cone_keys(variant, vectors, "fast")
        rehashed = set(variant._cone_structure().rehashed)
        assert rehashed and len(rehashed) < len(keys)
        for net, key in keys.items():
            if net in rehashed:
                assert key[0] != base_keys[net][0]
                assert key[1] is base_keys[net][1]
            else:
                assert key is base_keys[net]
        assert inc.cone_keys(variant, vectors, "fast") is keys

    def test_input_records_follow_the_words(self):
        """Two stimuli with the same names and different words get
        different input records (they are memoized per stimulus)."""
        c = random_logic(4, 30, 2, seed=6)
        a = random_packed_vectors(list(c.inputs), 64, seed=1)
        b = PackedVectors(list(a.names), a.n,
                          {k: w ^ 0x5A5A for k, w in a.words.items()})
        cache = inc.ConeCache()
        for packed in (a, b, a, b):
            report, _ = inc.delta_activity(c, packed, cache=cache)
            assert inc.reports_equal(report, collect_activity(c, packed))
        got_a = inc._input_records(a, c.inputs)
        got_b = inc._input_records(b, c.inputs)
        assert all(got_a[n].lane != got_b[n].lane for n in c.inputs)
        assert got_a != got_b
        assert inc._input_records(a, c.inputs) == got_a


# ----------------------------------------------------------------------
# Rewired optimization passes
# ----------------------------------------------------------------------
class TestPasses:
    def test_clock_gating_incremental_equals_full(self):
        from repro.fsm import benchmark
        from repro.optimization.clock_gating import evaluate_clock_gating

        stg = benchmark("waiter")
        a = evaluate_clock_gating(stg, cycles=150, seed=4,
                                  bit_probs=[0.05, 0.5],
                                  incremental=True)
        b = evaluate_clock_gating(stg, cycles=150, seed=4,
                                  bit_probs=[0.05, 0.5],
                                  incremental=False)
        assert (a.idle_fraction, a.original_power, a.gated_power,
                a.fa_gates) == (b.idle_fraction, b.original_power,
                                b.gated_power, b.fa_gates)

    def test_precompute_incremental_equals_full(self):
        from repro.logic.generators import magnitude_comparator
        from repro.optimization.precompute import evaluate_precomputation

        circuit = magnitude_comparator(4)
        vectors = random_vectors(circuit.inputs, 120, seed=2)
        a = evaluate_precomputation(circuit, "gt", 2, vectors,
                                    incremental=True)
        b = evaluate_precomputation(circuit, "gt", 2, vectors,
                                    incremental=False)
        assert (a.coverage, a.original_power, a.precomputed_power) \
            == (b.coverage, b.original_power, b.precomputed_power)

    def test_guarded_incremental_equals_full(self):
        from repro.optimization.guarded_eval import evaluate_guarded

        c = Circuit("g")
        c.add_inputs(["a", "b", "cc", "d", "s"])
        t1 = c.add_gate("AND2", ["a", "b"])
        t2 = c.add_gate("XOR2", [t1, "cc"])
        t3 = c.add_gate("OR2", [t2, "d"])
        c.add_gate("MUX2", [t3, "s", "s"], output="out")
        c.add_output("out")
        vectors = random_vectors(c.inputs, 100, seed=3)
        a = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                             incremental=True)
        b = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                             incremental=False)
        assert a is not None and b is not None
        assert (a.original_power, a.guarded_power, a.equivalent) \
            == (b.original_power, b.guarded_power, b.equivalent)

    def test_respecification_incremental_equals_full(self):
        from repro.optimization.respecification import \
            evaluate_respecification

        c = Circuit("resp")
        c.add_inputs(["d0", "d1", "d2", "d3", "s0", "s1"])
        m0 = c.add_gate("MUX2", ["d0", "d1", "s0"])
        m1 = c.add_gate("MUX2", ["d2", "d3", "s0"])
        c.add_gate("MUX2", [m0, m1, "s1"], output="y")
        c.add_output("y")
        vectors = random_vectors(c.inputs, 90, seed=5)
        a = evaluate_respecification(c, vectors, incremental=True)
        b = evaluate_respecification(c, vectors, incremental=False)
        assert (a.changed_cycles, a.original_power,
                a.respecified_power, a.equivalent) \
            == (b.changed_cycles, b.original_power,
                b.respecified_power, b.equivalent)

    def test_timed_activity_cached(self, tmp_path):
        from repro.logic.eventsim import EventSimulator
        from repro.logic.fasttimer import timed_activity_cached

        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        try:
            circuit = random_logic(5, 30, 2, seed=12)
            vectors = random_packed_vectors(list(circuit.inputs), 300,
                                            seed=6)
            r1 = timed_activity_cached(circuit, vectors)
            r2 = timed_activity_cached(circuit, vectors)
            ref = EventSimulator(circuit).run(vectors)
            assert r1.average_power() == r2.average_power()
            assert r1.average_power() == ref.average_power()
            assert r1.toggles == ref.toggles
            assert r2 is not r1                  # fresh report per hit
            hits = artifact_store.get_store().stats()
            assert hits["mem_hits"] + hits["disk_hits"] > 0
        finally:
            artifact_store.set_store(old)

    def test_retiming_memoized_runs_agree(self, tmp_path):
        from repro.logic.generators import chained_adder_tree
        from repro.optimization.retiming import evaluate_power_retiming

        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        try:
            circuit = chained_adder_tree(3, 3)
            vectors = random_vectors(circuit.inputs, 400, seed=7)
            r1 = evaluate_power_retiming(circuit, vectors)
            r2 = evaluate_power_retiming(circuit, vectors)
            assert r1 == r2
            assert artifact_store.get_store().stats()["mem_hits"] > 0
        finally:
            artifact_store.set_store(old)
