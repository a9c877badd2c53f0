"""Tests for repro.store and Circuit.fingerprint().

Covers the three contracts the plan store depends on:

- the structural fingerprint is stable across object identity,
  construction order, pickling, and process boundaries, and changes
  exactly when the structure changes;
- the two-layer store (in-process LRU + disk) round-trips payloads,
  evicts correctly, and degrades to a miss — never an error — on
  corruption, truncation, version skew, or unwritable roots;
- the engines (fastsim / fasttimer / eventsim) rehydrate plans from
  the store bit-identically to a fresh compile, including across
  processes.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro import obs
from repro import store as artifact_store
from repro.logic import eventsim, fastsim, fasttimer
from repro.logic.generators import counter, parity_tree, \
    ripple_carry_adder
from repro.logic.netlist import Circuit
from repro.store import ArtifactStore


@pytest.fixture
def mem_store():
    """Fresh in-memory store installed as the process singleton."""
    st = ArtifactStore(root=None)
    prev = artifact_store.set_store(st)
    yield st
    artifact_store.set_store(prev)


@pytest.fixture
def disk_store(tmp_path):
    """Fresh disk-backed store installed as the process singleton."""
    st = ArtifactStore(root=tmp_path / "store")
    prev = artifact_store.set_store(st)
    yield st
    artifact_store.set_store(prev)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_identical_structures_same_fingerprint(self):
        a = ripple_carry_adder(8)
        b = ripple_carry_adder(8)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_structures_differ(self):
        fps = {ripple_carry_adder(4).fingerprint(),
               ripple_carry_adder(8).fingerprint(),
               parity_tree(8).fingerprint(),
               counter(8).fingerprint()}
        assert len(fps) == 4

    def test_name_independent(self):
        a = ripple_carry_adder(6, name="adder_a")
        b = ripple_carry_adder(6, name="adder_b")
        assert a.fingerprint() == b.fingerprint()

    def test_pickle_round_trip(self):
        a = counter(7)
        fp = a.fingerprint()
        b = pickle.loads(pickle.dumps(a))
        assert b.fingerprint() == fp

    def test_pickle_before_first_fingerprint(self):
        a = counter(7)
        b = pickle.loads(pickle.dumps(a))    # cache never populated
        assert b.fingerprint() == a.fingerprint()

    def test_construction_order_independent(self):
        def build(reverse: bool) -> Circuit:
            c = Circuit("order")
            ins = ["a", "b", "c"]
            c.add_inputs(ins)
            gates = [("AND2", ["a", "b"], "ab"),
                     ("OR2", ["ab", "c"], "abc"),
                     ("XOR2", ["a", "c"], "ac")]
            if reverse:
                # Dependency-free gates can be declared in any order;
                # 'ac' does not depend on 'ab'.
                gates = [gates[2], gates[0], gates[1]]
            for gt, gi, go in gates:
                c.add_gate(gt, gi, output=go)
            c.add_output("abc")
            c.add_output("ac")
            return c

        assert build(False).fingerprint() == build(True).fingerprint()

    def test_stable_across_processes(self):
        fp = ripple_carry_adder(8).fingerprint()
        code = ("import sys; sys.path.insert(0, 'src');"
                "from repro.logic.generators import ripple_carry_adder;"
                "print(ripple_carry_adder(8).fingerprint())")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, check=True,
            cwd=os.path.dirname(os.path.dirname(__file__)))
        assert out.stdout.strip() == fp

    def test_invalidate_without_mutation_keeps_fingerprint(self):
        c = ripple_carry_adder(4)
        fp = c.fingerprint()
        c.invalidate()                 # version bump, same structure
        assert c.fingerprint() == fp

    def test_mutation_changes_fingerprint(self):
        c = ripple_carry_adder(4)
        fp = c.fingerprint()
        c.add_gate("INV", [c.outputs[0]], output="extra")
        assert c.fingerprint() != fp
        fp2 = c.fingerprint()
        c.add_output("extra")          # output pads are structural too
        assert c.fingerprint() != fp2

    def test_to_dict_round_trip(self):
        a = counter(5)
        b = Circuit.from_dict(json.loads(json.dumps(a.to_dict())))
        assert b.fingerprint() == a.fingerprint()
        assert b.inputs == a.inputs
        assert [g.output for g in b.gates] == [g.output for g in a.gates]
        vectors = fastsim.random_packed_vectors(a.inputs, 64, seed=3)
        assert fastsim.collect_activity(a, vectors).toggles == \
            fastsim.collect_activity(b, vectors).toggles


    def test_builtin_only_fingerprints_pinned(self):
        # Disk stores and recorded digests key on these: hashing cell
        # functions must not move a circuit built from the shipped
        # library.
        c = counter(6)
        assert c.fingerprint() == ("26848242b731b6483ef41b59d5aaf89f"
                                   "16c472ad8a3168384e254fa16af2fd4c")
        assert c.cone_fingerprints()["q0"] == (
            "1b1482b090a798ae62aab6309b9c9c72"
            "7b26e7523212f701dca7d9b2bff575ba")


# ----------------------------------------------------------------------
# Cells registered again at run time
# ----------------------------------------------------------------------
def _and(v):
    return int(v[0] and v[1])


def _or(v):
    return int(v[0] or v[1])


def _one_cell(gate_type):
    c = Circuit("cell")
    a, b = c.add_inputs(["a", "b"])
    y = c.add_gate(gate_type, [a, b], output="y")
    c.add_output(c.add_gate("XOR2", [y, a], output="z"))
    c.add_output(y)
    return c


class TestCellFunctions:
    def _check_engines(self, circuit, vectors):
        from repro.logic import incremental as inc
        from repro.logic.simulate import collect_activity

        ref = collect_activity(circuit, vectors, engine="reference")
        assert inc.reports_equal(collect_activity(circuit, vectors), ref)
        delta, _stats = inc.delta_activity(circuit, vectors)
        assert inc.reports_equal(delta, ref)
        lanes = vectors.to_vectors()
        timed = eventsim.EventSimulator(circuit, engine="fast").run(lanes)
        timed_ref = eventsim.EventSimulator(
            circuit, engine="reference").run(lanes)
        assert (timed.toggles, timed.ones, timed.events,
                timed.glitches) == (timed_ref.toggles, timed_ref.ones,
                                    timed_ref.events, timed_ref.glitches)
        return ref

    def test_reregistered_cell_changes_keys_and_results(self, mem_store):
        from repro.logic import gates as gatelib

        try:
            gatelib.LIBRARY["CELL_T"] = gatelib.GateSpec(
                "CELL_T", 2, _and, 1.2, 0.7, 2.0, 1.2)
            first = _one_cell("CELL_T")
            vectors = fastsim.random_packed_vectors(first.inputs, 256,
                                                    seed=1)
            ones_and = self._check_engines(first, vectors).ones["y"]
            fp, cones = first.fingerprint(), first.cone_fingerprints()

            gatelib.LIBRARY["CELL_T"] = gatelib.GateSpec(
                "CELL_T", 2, _or, 1.2, 0.7, 2.0, 1.2)
            second = _one_cell("CELL_T")
            ones_or = self._check_engines(second, vectors).ones["y"]
            assert ones_or != ones_and
            assert second.fingerprint() != fp
            assert second.cone_fingerprints()["y"] != cones["y"]
            # A clone carries its parent's cone structure; one hashed
            # before the registration is rebuilt, not derived from.
            clone = first.clone()
            assert clone.cone_fingerprints() \
                == second.cone_fingerprints()
            self._check_engines(clone, vectors)
        finally:
            gatelib.LIBRARY.pop("CELL_T", None)

    def test_same_object_rebinds_after_reregistration(self, mem_store):
        """One circuit object, estimated before and after its cell is
        registered again: both plans it cached must rebind."""
        from repro.logic import gates as gatelib

        try:
            gatelib.LIBRARY["CELL_T"] = gatelib.GateSpec(
                "CELL_T", 2, _and, 1.2, 0.7, 2.0, 1.2)
            circuit = _one_cell("CELL_T")
            vectors = fastsim.random_packed_vectors(circuit.inputs, 256,
                                                    seed=1)
            ones_and = self._check_engines(circuit, vectors).ones["y"]
            gatelib.LIBRARY["CELL_T"] = gatelib.GateSpec(
                "CELL_T", 2, _or, 1.2, 0.7, 2.0, 1.2)
            ones_or = self._check_engines(circuit, vectors).ones["y"]
            assert ones_or != ones_and
            words, _n = fastsim.net_words(circuit, vectors)
            assert words == fastsim.net_words_engine(
                circuit, vectors, engine="reference")[0]
        finally:
            gatelib.LIBRARY.pop("CELL_T", None)

    def test_bdds_follow_reregistered_builtin(self):
        from repro.logic import gates as gatelib
        from repro.logic.bdd_bridge import net_bdds

        shipped = gatelib.LIBRARY["AND2"]
        try:
            gatelib.LIBRARY["AND2"] = gatelib.GateSpec(
                "AND2", 2, _or, shipped.input_cap, shipped.output_cap,
                shipped.delay, shipped.area)
            assert net_bdds(_one_cell("AND2"))["y"].sat_count(
                ["a", "b"]) == 3
        finally:
            gatelib.LIBRARY["AND2"] = shipped
        assert net_bdds(_one_cell("AND2"))["y"].sat_count(["a", "b"]) == 1

    def test_reregistered_builtin_name_changes_fingerprint(self,
                                                           mem_store):
        from repro.logic import gates as gatelib

        shipped = gatelib.LIBRARY["AND2"]
        fp = _one_cell("AND2").fingerprint()
        try:
            # The shipped function under a new entry: same keys.
            gatelib.LIBRARY["AND2"] = gatelib.GateSpec(
                "AND2", 2, _and, shipped.input_cap, shipped.output_cap,
                shipped.delay, shipped.area)
            assert _one_cell("AND2").fingerprint() == fp
            # Another function under the shipped name: new keys, and
            # no engine runs the shipped kernel for it.
            gatelib.LIBRARY["AND2"] = gatelib.GateSpec(
                "AND2", 2, _or, shipped.input_cap, shipped.output_cap,
                shipped.delay, shipped.area)
            circuit = _one_cell("AND2")
            assert circuit.fingerprint() != fp
            vectors = fastsim.random_packed_vectors(circuit.inputs, 256,
                                                    seed=2)
            self._check_engines(circuit, vectors)
        finally:
            gatelib.LIBRARY["AND2"] = shipped
        assert _one_cell("AND2").fingerprint() == fp


# ----------------------------------------------------------------------
# ArtifactStore mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_memory_round_trip(self, mem_store):
        mem_store.put("f" * 64, "thing", {"x": 1})
        assert mem_store.get("f" * 64, "thing") == {"x": 1}
        stats = mem_store.stats()
        assert stats["mem_hits"] == 1 and stats["puts"] == 1

    def test_miss_counts(self, mem_store):
        assert mem_store.get("0" * 64, "thing") is None
        assert mem_store.stats()["misses"] == 1

    def test_mem_lru_eviction(self):
        st = ArtifactStore(root=None, mem_entries=2)
        for i in range(3):
            st.put(f"{i}" * 64, "k", {"i": i})
        assert st.get("0" * 64, "k") is None      # evicted
        assert st.get("2" * 64, "k") == {"i": 2}

    def test_disk_persistence(self, tmp_path):
        root = tmp_path / "s"
        ArtifactStore(root=root).put("a" * 64, "plan", {"v": 7})
        st2 = ArtifactStore(root=root)            # fresh process stand-in
        assert st2.get("a" * 64, "plan") == {"v": 7}
        assert st2.stats()["disk_hits"] == 1

    def test_disk_eviction_by_size(self, tmp_path):
        st = ArtifactStore(root=tmp_path / "s", max_bytes=4096,
                           mem_entries=1)
        blob = {"pad": "x" * 1500}
        for i in range(8):
            st.put(f"{i:064x}", "k", blob)
        assert st.stats()["disk_evictions"] > 0
        assert st.disk_bytes() <= 4096
        # Newest entry survives eviction.
        st2 = ArtifactStore(root=tmp_path / "s")
        assert st2.get(f"{7:064x}", "k") == blob

    def test_corrupt_file_recovers(self, tmp_path):
        root = tmp_path / "s"
        st = ArtifactStore(root=root)
        st.put("b" * 64, "plan", {"v": 1})
        path = root / (st.key("b" * 64, "plan") + ".json")
        path.write_text("{ not json")
        st2 = ArtifactStore(root=root)
        assert st2.get("b" * 64, "plan") is None
        assert st2.stats()["corrupt"] == 1
        assert not path.exists()                  # quarantined
        st2.put("b" * 64, "plan", {"v": 2})       # and re-cacheable
        assert ArtifactStore(root=root).get("b" * 64, "plan") == {"v": 2}

    def test_truncated_file_recovers(self, tmp_path):
        root = tmp_path / "s"
        st = ArtifactStore(root=root)
        st.put("c" * 64, "plan", {"v": list(range(100))})
        path = root / (st.key("c" * 64, "plan") + ".json")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])    # torn write stand-in
        st2 = ArtifactStore(root=root)
        assert st2.get("c" * 64, "plan") is None
        assert st2.stats()["corrupt"] == 1

    def test_cross_version_invalidation(self, tmp_path):
        root = tmp_path / "s"
        st = ArtifactStore(root=root)
        st.put("d" * 64, "plan", {"v": 1})
        path = root / (st.key("d" * 64, "plan") + ".json")
        envelope = json.loads(path.read_text())
        envelope["schema"] = "repro.store/0"
        path.write_text(json.dumps(envelope))
        st2 = ArtifactStore(root=root)
        assert st2.get("d" * 64, "plan") is None  # skew = miss

    def test_wrong_fingerprint_in_envelope_is_miss(self, tmp_path):
        root = tmp_path / "s"
        st = ArtifactStore(root=root)
        st.put("e" * 64, "plan", {"v": 1})
        path = root / (st.key("e" * 64, "plan") + ".json")
        envelope = json.loads(path.read_text())
        envelope["fingerprint"] = "0" * 64
        path.write_text(json.dumps(envelope))
        assert ArtifactStore(root=root).get("e" * 64, "plan") is None

    def test_unwritable_root_is_quiet(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        st = ArtifactStore(root=blocked / "nope")
        st.put("a" * 64, "k", {"v": 1})           # must not raise
        assert st.get("a" * 64, "k") == {"v": 1}  # mem layer still works

    def test_configure_and_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(artifact_store.ENV_DIR, raising=False)
        prev = artifact_store.set_store(None)
        try:
            st = artifact_store.configure(root=tmp_path / "cfg")
            assert artifact_store.get_store() is st
            assert os.environ[artifact_store.ENV_DIR] == \
                str(tmp_path / "cfg")
        finally:
            artifact_store.set_store(prev)
            os.environ.pop(artifact_store.ENV_DIR, None)


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def _store_worker(args):
    root, fp, worker_id = args
    st = ArtifactStore(root=root)
    payload = {"worker": worker_id, "data": list(range(200))}
    for i in range(20):
        st.put(fp, "contended", payload)
        got = st.get(fp, "contended")
        if got is not None and "data" not in got:
            return f"worker {worker_id}: bad payload {got}"
    return None


class TestConcurrency:
    def test_parallel_writers_readers_same_key(self, tmp_path):
        root = str(tmp_path / "s")
        fp = "ab" * 32
        ctx = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()
        with ctx.Pool(4) as pool:
            errors = [e for e in pool.map(
                _store_worker, [(root, fp, i) for i in range(4)]) if e]
        assert errors == []
        # Whatever won the final race, the entry must parse cleanly.
        final = ArtifactStore(root=root).get(fp, "contended")
        assert final is not None and len(final["data"]) == 200


# ----------------------------------------------------------------------
# Engine rehydration
# ----------------------------------------------------------------------
def _legacy_blob(source):
    """A compiled-kernel payload field in the layout older versions
    stored (source text plus a tagged bytecode dump)."""
    return {"source": source, "filename": "<legacy>",
            "magic": "00000000", "marshal": ""}


class TestRehydration:
    def test_fastsim_rehydrate_bit_identical(self, mem_store):
        a = ripple_carry_adder(8)
        vectors = fastsim.random_packed_vectors(a.inputs, 256, seed=11)
        cold = fastsim.collect_activity(a, vectors)
        assert mem_store.stats()["misses"] >= 1
        b = ripple_carry_adder(8)                 # same structure
        warm = fastsim.collect_activity(b, vectors)
        assert mem_store.stats()["mem_hits"] >= 1
        assert warm.toggles == cold.toggles
        assert warm.ones == cold.ones
        assert warm.switched_capacitance == cold.switched_capacitance

    def test_fastsim_rehydrate_from_disk(self, tmp_path):
        root = tmp_path / "s"
        vectors = None
        results = []
        for _ in range(2):
            # A brand-new store each round: the second can only hit
            # the disk layer, as a forked worker would.
            prev = artifact_store.set_store(ArtifactStore(root=root))
            try:
                c = counter(8)
                if vectors is None:
                    vectors = fastsim.random_packed_vectors(
                        c.inputs, 128, seed=5)
                results.append(
                    fastsim.collect_activity(c, vectors).toggles)
                stats = artifact_store.get_store().stats()
            finally:
                artifact_store.set_store(prev)
        assert results[0] == results[1]
        assert stats["disk_hits"] >= 1

    def test_fastsim_rehydrate_binds_by_name(self, mem_store):
        # Same structure, different construction order: the cached
        # plan's slots must rebind to the new circuit by net name.
        def build(reverse):
            c = Circuit("bind")
            c.add_inputs(["p", "q", "r"])
            order = [("AND2", ["p", "q"], "pq"),
                     ("XOR2", ["q", "r"], "qr")]
            if reverse:
                order.reverse()
            for gt, gi, go in order:
                c.add_gate(gt, gi, output=go)
            c.add_output("pq")
            c.add_output("qr")
            return c

        a, b = build(False), build(True)
        assert a.fingerprint() == b.fingerprint()
        vectors = fastsim.random_packed_vectors(a.inputs, 64, seed=9)
        ta = fastsim.collect_activity(a, vectors).toggles
        tb = fastsim.collect_activity(b, vectors).toggles
        assert ta == tb

    def test_fasttimer_rehydrate_bit_identical(self, mem_store):
        a = ripple_carry_adder(6)
        vectors = fastsim.random_packed_vectors(a.inputs, 128, seed=2)
        cold = fasttimer.timed_activity(a, vectors)
        b = ripple_carry_adder(6)
        puts = mem_store.stats()["puts"]
        warm = fasttimer.timed_activity(b, vectors)
        assert mem_store.stats()["puts"] == puts     # nothing rebuilt
        assert warm.toggles == cold.toggles
        assert warm.events == cold.events
        assert warm.glitches == cold.glitches

    @pytest.mark.parametrize("damage", [
        "legacy_code", "slot_out_of_range", "unknown_gate_type",
        "row_length"])
    def test_fastsim_bad_payload_rebuilds(self, mem_store, damage):
        """A zero-delay payload without a valid plan table is a counted
        miss and one rebuild, never a kernel that raises or miscounts."""
        a = counter(6)
        vectors = fastsim.random_packed_vectors(a.inputs, 256, seed=4)
        cold = fastsim.collect_activity(a, vectors)
        fp = a.fingerprint()
        payload = json.loads(json.dumps(
            mem_store.get(fp, fastsim.STORE_KIND)))     # deep copy
        gate_type, rows = payload["table"][-1]
        if damage == "legacy_code":
            # The format older versions stored: a compiled straight-line
            # kernel instead of a table.  The stand-in evaluates
            # nothing, so binding it would show up as a wrong report.
            del payload["table"]
            payload["code"] = _legacy_blob(
                "def __fastsim_eval(V, M):\n    pass\n")
        elif damage == "slot_out_of_range":
            rows[-1] = len(payload["nets"])
        elif damage == "unknown_gate_type":
            payload["table"][-1][0] = "NO_SUCH_CELL"
        else:
            rows.pop()
        mem_store.put(fp, fastsim.STORE_KIND, payload)

        c = counter(6)
        assert fastsim._rehydrate_plan(c, 0, payload) is None
        puts = mem_store.stats()["puts"]
        obs.enable()
        try:
            misses = obs.registry.counter("fastsim.rehydrate_misses")
            rebuilt = fastsim.collect_activity(c, vectors)
            assert obs.registry.counter("fastsim.rehydrate_misses") \
                == misses + 1
        finally:
            obs.disable()
        assert mem_store.stats()["puts"] == puts + 1   # rebuilt, published
        assert rebuilt == cold
        again = fastsim.collect_activity(counter(6), vectors)
        assert mem_store.stats()["puts"] == puts + 1
        assert again == cold

    @pytest.mark.parametrize("damage", [
        "legacy_kernel", "legacy_kernel_be", "slot_out_of_range",
        "pending_out_of_range", "unknown_gate_type", "row_arity"])
    def test_fasttimer_bad_payload_rebuilds(self, mem_store, damage):
        """A payload the interpreter cannot trust is a counted miss and
        a rebuild, never a kernel that raises or miscounts."""
        a = ripple_carry_adder(6)
        vectors = fastsim.random_packed_vectors(a.inputs, 128, seed=2)
        cold = fasttimer.timed_activity(a, vectors)
        fp = a.fingerprint()
        good = mem_store.get(fp, fasttimer.STORE_KIND)
        payload = json.loads(json.dumps(good))       # deep copy
        if damage.startswith("legacy"):
            # The format older versions stored: a compiled kernel (and
            # sometimes a second, lane-generic one) instead of a table.
            # The stand-in kernels count nothing, so binding either
            # would show up as a wrong report.
            del payload["table"], payload["n_pending"]
            payload["kernel"] = _legacy_blob(
                "def __fasttimer_eval(C, N, T, M):\n    return 0\n")
            if damage == "legacy_kernel_be":
                payload["kernel_be"] = _legacy_blob(
                    "def __fasttimer_eval_be(C, N, T, M, ANY, PC):\n"
                    "    return 0\n")
        else:
            tick = next(t for t in payload["table"] if t[3])
            gate_type, rows = tick[3][0]
            if damage == "slot_out_of_range":
                rows[0] = len(payload["nets"])
            elif damage == "pending_out_of_range":
                rows[-1] = payload["n_pending"]
            elif damage == "unknown_gate_type":
                tick[3][0][0] = "NO_SUCH_CELL"
            else:
                rows.pop(0)
        mem_store.put(fp, fasttimer.STORE_KIND, payload)

        c = ripple_carry_adder(6)
        assert fasttimer._rehydrate_timed(c, 0, payload) is None
        puts = mem_store.stats()["puts"]
        obs.enable()
        try:
            misses = obs.registry.counter("fasttimer.rehydrate_misses")
            rebuilt = fasttimer.timed_activity(c, vectors)
            assert obs.registry.counter("fasttimer.rehydrate_misses") \
                == misses + 1
        finally:
            obs.disable()
        assert mem_store.stats()["puts"] == puts + 1   # rebuilt, published
        assert rebuilt == cold
        # The rebuild replaced the bad entry: the next circuit rehydrates.
        again = fasttimer.timed_activity(ripple_carry_adder(6), vectors)
        assert mem_store.stats()["puts"] == puts + 1
        assert again == cold

    def test_tick_grid_rehydrate(self, mem_store):
        a = parity_tree(8)
        grid_a = eventsim.tick_grid(a)
        b = parity_tree(8)
        grid_b = eventsim.tick_grid(b)
        assert grid_b.quantum == grid_a.quantum
        assert grid_b.ticks == grid_a.ticks
        assert mem_store.stats()["mem_hits"] >= 1

    def test_rehydrate_vs_reference_engine(self, mem_store):
        a = ripple_carry_adder(5)
        vectors = fastsim.random_packed_vectors(a.inputs, 64, seed=13)
        fastsim.collect_activity(a, vectors)      # populate store
        b = ripple_carry_adder(5)
        warm = fastsim.collect_activity(b, vectors)
        ref = fastsim.collect_activity(
            ripple_carry_adder(5), vectors.to_vectors())
        assert warm.toggles == ref.toggles

    def test_garbage_payload_falls_back_to_compile(self, mem_store):
        c = ripple_carry_adder(4)
        mem_store.put(c.fingerprint(), fastsim.STORE_KIND,
                      {"nets": ["bogus"], "caps": [], "code": {}})
        vectors = fastsim.random_packed_vectors(c.inputs, 32, seed=1)
        report = fastsim.collect_activity(c, vectors)   # must not raise
        ref = fastsim.collect_activity(
            ripple_carry_adder(4), vectors.to_vectors())
        assert report.toggles == ref.toggles


def _cross_process_activity(args):
    root, width, seed = args
    prev = artifact_store.set_store(ArtifactStore(root=root))
    try:
        c = ripple_carry_adder(width)
        vectors = fastsim.random_packed_vectors(c.inputs, 128,
                                                seed=seed)
        report = fastsim.collect_activity(c, vectors)
        stats = artifact_store.get_store().stats()
        return sorted(report.toggles.items()), stats["disk_hits"]
    finally:
        artifact_store.set_store(prev)


class TestCrossProcess:
    def test_plans_cross_process_boundary(self, tmp_path):
        root = str(tmp_path / "s")
        # Seed the store from this process...
        first, hits0 = _cross_process_activity((root, 7, 21))
        assert hits0 == 0
        # ...then rehydrate in real child processes.
        ctx = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()
        with ctx.Pool(2) as pool:
            results = pool.map(_cross_process_activity,
                               [(root, 7, 21)] * 2)
        for toggles, disk_hits in results:
            assert toggles == first
            assert disk_hits >= 1
