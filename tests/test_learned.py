"""Tests for the learned-macromodel subsystem
(:mod:`repro.estimation.learned`)."""

import json
import math
import tempfile

import numpy as np
import pytest

from repro import obs
from repro import store as artifact_store
from repro.core import PowerEstimator
from repro.estimation.learned import (
    FeatureConfig,
    LearnedMacroModel,
    LearnedModel,
    WindowDataset,
    characterize_circuit,
    characterize_component,
    characterize_population,
    cluster_signals,
    evaluate_component,
    fit_learned,
    holdout_streams,
    load_model,
    model_for,
    save_model,
    toggle_lanes,
    window_features,
    window_slices,
    window_truth,
    windowed_mape,
)
from repro.estimation.learned.cli import main as learn_main
from repro.estimation.macromodel import ridge_lstsq
from repro.logic import fastsim
from repro.logic.generators import ripple_carry_adder
from repro.rtl.components import circuit_cycle_energies, make_component
from repro.serve import run_job
from repro.store import ArtifactStore


# ----------------------------------------------------------------------
# Ridge guard (shared solver)
# ----------------------------------------------------------------------
class TestRidgeLstsq:
    def test_well_conditioned_matches_lstsq(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(30, 4))
        y = a @ [1.0, -2.0, 0.5, 3.0]
        coeffs = ridge_lstsq(a, y)
        assert np.allclose(coeffs, [1.0, -2.0, 0.5, 3.0], atol=1e-8)

    def test_singular_duplicate_columns_finite(self):
        col = np.arange(10.0)
        a = np.column_stack([col, col, np.ones(10)])
        y = 2.0 * col + 1.0
        coeffs = ridge_lstsq(a, y)
        assert np.all(np.isfinite(coeffs))
        assert np.allclose(a @ coeffs, y, atol=1e-3)

    def test_zero_matrix_and_empty(self):
        assert np.all(ridge_lstsq(np.zeros((5, 3)), np.zeros(5)) == 0)
        assert ridge_lstsq(np.zeros((0, 3)), np.zeros(0)).size == 3

    def test_single_sample(self):
        coeffs = ridge_lstsq(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert np.all(np.isfinite(coeffs))

    def test_explicit_l2_shrinks(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        free = ridge_lstsq(a, y)
        tight = ridge_lstsq(a, y, l2=1e6)
        assert np.linalg.norm(tight) < np.linalg.norm(free)


# ----------------------------------------------------------------------
# Features
# ----------------------------------------------------------------------
class TestFeatures:
    def test_toggle_lanes(self):
        # cycles: 0,1,1,0 -> toggles at transitions 0->1 and 2->3
        lanes = {"a": 0b0110}
        toggles = toggle_lanes(lanes, 4)
        assert toggles["a"] == 0b101

    def test_toggle_lanes_short_trace(self):
        assert toggle_lanes({"a": 1}, 1) == {"a": 0}
        assert toggle_lanes({"a": 1}, 0) == {"a": 0}

    def test_window_slices_edges(self):
        assert window_slices(0, 64) == []
        assert window_slices(10, 64) == [(0, 10)]       # partial
        assert window_slices(128, 64) == [(0, 64), (64, 64)]
        assert window_slices(130, 64) == [(0, 64), (64, 64)]

    def test_cluster_drops_constant_inputs(self):
        config = FeatureConfig(max_signals=4)
        toggles = {"a": 0b1111, "b": 0, "c": 0b1010}
        clusters = cluster_signals(toggles, 4, config)
        assert "b" in clusters.dropped
        assert "b" not in clusters.signals

    def test_cluster_respects_max_signals(self):
        config = FeatureConfig(max_signals=2,
                               cluster_threshold=0.999)
        toggles = {f"s{i}": 1 << i for i in range(6)}
        clusters = cluster_signals(toggles, 8, config)
        assert len(clusters.signals) == 2
        assert set(clusters.assignment) == set(toggles)

    def test_cluster_merges_identical_signals(self):
        config = FeatureConfig(max_signals=8)
        toggles = {"a": 0b110101, "b": 0b110101, "c": 0b001010}
        clusters = cluster_signals(toggles, 6, config)
        assert clusters.assignment["a"] == clusters.assignment["b"]

    def test_window_features_rates(self):
        config = FeatureConfig(window=4, degree=1, structural=False)
        toggles = {"a": 0b1111, "b": 0b0001}
        rows = window_features(toggles, 4, ["a", "b"], config)
        assert rows == [[1.0, 0.25]]


# ----------------------------------------------------------------------
# Characterization
# ----------------------------------------------------------------------
class TestCharacterize:
    def test_deterministic_same_seed(self):
        circuit = ripple_carry_adder(4)
        d1 = characterize_circuit(circuit, cycles=128, seed=5, runs=4)
        d2 = characterize_circuit(circuit, cycles=128, seed=5, runs=4)
        assert d1.rows == d2.rows
        assert d1.targets == d2.targets
        assert [r.seed for r in d1.runs] == [r.seed for r in d2.runs]

    def test_different_seed_differs(self):
        circuit = ripple_carry_adder(4)
        d1 = characterize_circuit(circuit, cycles=128, seed=5, runs=4)
        d3 = characterize_circuit(circuit, cycles=128, seed=6, runs=4)
        assert d1.targets != d3.targets

    def test_windows_align_with_truth(self):
        circuit = ripple_carry_adder(4)
        config = FeatureConfig(window=32)
        dataset = characterize_circuit(circuit, config, cycles=256,
                                       seed=0, runs=2)
        # 2 runs x floor(255/32) windows
        assert len(dataset) == 2 * (255 // 32)
        assert all(t >= 0.0 for t in dataset.targets)

    def test_provenance_lands_in_manifest(self):
        obs.clear_run_records()
        try:
            circuit = ripple_carry_adder(4)
            dataset = characterize_circuit(circuit, cycles=64, seed=9,
                                           runs=2)
            manifest = obs.run_manifest()
            records = manifest.get("records", {})
            assert "learned.characterization" in records
            entry = records["learned.characterization"][-1]
            assert entry["fingerprint"] == circuit.fingerprint()
            assert entry["seed"] == 9
            assert entry["run_seeds"] == [r.seed for r in dataset.runs]
        finally:
            obs.clear_run_records()

    def test_dataset_roundtrip(self):
        component = make_component("add", 4)
        dataset = characterize_component(component, cycles=128,
                                         seed=1, runs=4)
        clone = WindowDataset.from_dict(
            json.loads(json.dumps(dataset.to_dict())))
        assert clone.rows == dataset.rows
        assert clone.targets == dataset.targets
        assert clone.config == dataset.config

    def test_population_serial_matches_parallel(self):
        specs = [{"name": "add4", "component": "add", "width": 4},
                 {"name": "mux4", "component": "mux", "width": 4}]
        serial = characterize_population(specs, cycles=128, seed=3,
                                         runs=2, workers=1)
        parallel = characterize_population(specs, cycles=128, seed=3,
                                           runs=2, workers=2)
        assert [d.targets for d in serial] == \
            [d.targets for d in parallel]
        assert [d.rows for d in serial] == [d.rows for d in parallel]

    def test_population_records_each_dataset_once(self):
        # In-process datasets record themselves; the records of those
        # built in pool workers are mirrored here, and only those.
        specs = [{"name": "add4", "component": "add", "width": 4},
                 {"name": "mux4", "component": "mux", "width": 4}]
        records = {}
        for workers in (1, 2):
            obs.clear_run_records()
            obs.enable()
            pooled = obs.registry.counter("search.parallel_jobs")
            try:
                characterize_population(specs, cycles=128, seed=3,
                                        runs=2, workers=workers)
                pooled = obs.registry.counter("search.parallel_jobs") \
                    - pooled
                records[workers] = \
                    obs.run_records()["learned.characterization"]
            finally:
                obs.disable()
                obs.clear_run_records()
            assert pooled == (len(specs) if workers > 1 else 0)
        assert [r["name"] for r in records[1]] == ["add4", "mux4"]
        assert records[2] == records[1]


# ----------------------------------------------------------------------
# Fitting and prediction
# ----------------------------------------------------------------------
class TestFitPredict:
    def test_fit_tracks_truth(self):
        component = make_component("add", 4)
        config = FeatureConfig(window=32)
        dataset = characterize_component(component, config,
                                         cycles=512, seed=0, runs=8)
        model = fit_learned(dataset)
        assert model.report is not None
        assert model.report.cv_mape < 0.5
        vec = fastsim.random_packed_vectors(
            component.circuit.inputs, 512, seed=77)
        predicted = model.predict_power(vec)
        truth = (sum(circuit_cycle_energies(component.circuit, vec))
                 / 511)
        assert abs(predicted - truth) / truth < 0.25

    def test_empty_dataset_zero_model(self):
        dataset = WindowDataset(
            name="empty", fingerprint="x", config=FeatureConfig(),
            signals=[], feature_names=[], rows=[], targets=[])
        model = fit_learned(dataset)
        assert model.coeffs == [0.0]
        vec = fastsim.random_packed_vectors(["a"], 16, seed=0)
        assert model.predict_power(vec) == 0.0

    def test_single_window_dataset(self):
        dataset = WindowDataset(
            name="one", fingerprint="x", config=FeatureConfig(),
            signals=["a"], feature_names=["t:a", "t:a*t:a"],
            rows=[[0.5, 0.25]], targets=[3.0])
        model = fit_learned(dataset)
        assert all(math.isfinite(c) for c in model.coeffs)
        assert model.report.n_windows == 1

    def test_constant_stimulus_intercept_only(self):
        # Register fed a constant: no input toggles, zero power.
        component = make_component("reg", 4)
        from repro.rtl.streams import constant_stream

        training = [[constant_stream(4, 96, 9)] for _ in range(3)]
        adapter = LearnedMacroModel(FeatureConfig(window=16))
        adapter.fit(component, training)
        assert adapter.model is not None
        assert adapter.model.signals == []
        # Intercept-only model: prediction is finite and close to the
        # (tiny) gate-level truth — only the latches' initial
        # transition dissipates.
        stream = [constant_stream(4, 64, 9)]
        predicted = adapter.predict(stream)
        assert math.isfinite(predicted)
        assert 0.0 <= predicted < 0.2

    def test_width1_component(self):
        component = make_component("reg", 1)
        config = FeatureConfig(window=16)
        dataset = characterize_component(component, config,
                                         cycles=128, seed=0, runs=4)
        model = fit_learned(dataset)
        assert all(math.isfinite(c) for c in model.coeffs)

    def test_zero_power_windows_mape(self):
        assert windowed_mape([0.0, 5.0], [0.0, 5.0]) == 0.0
        assert windowed_mape([1.0], [0.0]) == 1.0     # degenerate
        assert windowed_mape([], []) == 0.0

    def test_predict_windows_clip_nonnegative(self):
        model = LearnedModel(
            fingerprint="x", name="m", config=FeatureConfig(
                window=8, structural=False),
            signals=["a"], feature_names=["t:a", "t:a*t:a"],
            coeffs=[-5.0, 1.0, 1.0])
        vec = fastsim.random_packed_vectors(["a"], 64, seed=0)
        assert all(w >= 0.0 for w in model.predict_windows(vec))

    def test_pruning_removes_dead_features(self):
        rng = np.random.default_rng(3)
        x = rng.random(40)
        rows = [[float(v), 0.0] for v in x]     # 2nd column dead
        dataset = WindowDataset(
            name="p", fingerprint="x",
            config=FeatureConfig(structural=False),
            signals=["a"], feature_names=["t:a", "t:b"],
            rows=rows, targets=[2.0 * v + 1.0 for v in x])
        model = fit_learned(dataset)
        assert "t:b" in model.report.pruned
        assert "t:b" not in model.feature_names


# ----------------------------------------------------------------------
# Persistence (ArtifactStore)
# ----------------------------------------------------------------------
class TestPersistence:
    def test_store_roundtrip_bit_identical(self):
        circuit = ripple_carry_adder(5)
        config = FeatureConfig(window=32)
        vec = fastsim.random_packed_vectors(circuit.inputs, 256,
                                            seed=11)
        with tempfile.TemporaryDirectory() as tmp:
            fitted = model_for(circuit, config, cycles=256, seed=2,
                               runs=4, store=ArtifactStore(root=tmp))
            # Fresh store instance over the same directory = the
            # cross-process rehydrate path.
            loaded = load_model(circuit.fingerprint(), config,
                                store=ArtifactStore(root=tmp))
        assert loaded is not None
        assert loaded.coeffs == fitted.coeffs
        assert loaded.predict_power(vec) == fitted.predict_power(vec)
        assert loaded.report.cv_mape == fitted.report.cv_mape

    def test_model_for_cache_hit(self):
        circuit = ripple_carry_adder(4)
        config = FeatureConfig(window=32)
        store = ArtifactStore(root=None)
        m1 = model_for(circuit, config, cycles=128, seed=0, runs=3,
                       store=store)
        m2 = model_for(circuit, config, cycles=128, seed=0, runs=3,
                       store=store)
        assert m2.coeffs == m1.coeffs

    def test_config_key_separates_models(self):
        circuit = ripple_carry_adder(4)
        store = ArtifactStore(root=None)
        a = FeatureConfig(window=32)
        b = FeatureConfig(window=16)
        model_for(circuit, a, cycles=128, seed=0, runs=3, store=store)
        assert load_model(circuit.fingerprint(), b, store=store) \
            is None

    def test_corrupt_payload_degrades_to_miss(self):
        store = ArtifactStore(root=None)
        config = FeatureConfig()
        from repro.estimation.learned.model import _store_kind

        store.put("fp", _store_kind(config), {"schema": "bogus"})
        assert load_model("fp", config, store=store) is None


# ----------------------------------------------------------------------
# Integration: estimator, serve, adapter, evaluate
# ----------------------------------------------------------------------
class TestIntegration:
    def test_estimator_learned_technique(self):
        circuit = ripple_carry_adder(4)
        vec = fastsim.random_packed_vectors(circuit.inputs, 256,
                                            seed=4)
        est = PowerEstimator()
        result = est.gate(circuit, vec, technique="learned")
        truth = est.gate(circuit, vec, technique="simulation")
        assert result.technique == "learned/windowed-ridge"
        assert result.level == "rtl"
        assert result.power == pytest.approx(truth.power, rel=0.35)

    def test_estimator_learned_needs_vectors(self):
        with pytest.raises(ValueError):
            PowerEstimator().gate(ripple_carry_adder(4),
                                  technique="learned")

    def test_estimator_learned_scales_with_vdd_freq(self):
        circuit = ripple_carry_adder(4)
        vec = fastsim.random_packed_vectors(circuit.inputs, 128,
                                            seed=4)
        base = PowerEstimator().gate(circuit, vec,
                                     technique="learned").power
        scaled = PowerEstimator(vdd=2.0, freq=3.0).gate(
            circuit, vec, technique="learned").power
        assert scaled == pytest.approx(12.0 * base)

    def test_serve_run_job_learned(self):
        job = {"circuit": {"generator": "ripple_carry_adder",
                           "params": {"width": 4}},
               "technique": "learned", "cycles": 256, "seed": 3}
        result = run_job(job)
        assert result["ok"], result
        assert result["technique"] == "learned/windowed-ridge"
        assert result["power"] > 0
        # Same job again: the fitted model comes from the store.
        again = run_job(job)
        assert again["power"] == result["power"]

    def test_macromodel_adapter_protocol(self):
        from repro.estimation.macromodel import (
            characterization_streams,
            fit_macromodel,
        )

        component = make_component("add", 4)
        adapter = fit_macromodel(LearnedMacroModel(
            FeatureConfig(window=32)), component, seed=0)
        streams = characterization_streams(component, runs=1,
                                           length=256, seed=42)[0]
        predicted = adapter.predict(streams)
        assert predicted > 0
        assert adapter.error(component, streams) < 1.0
        assert len(adapter.predict_windows(streams)) == 255 // 32

    def test_evaluate_component_shape(self):
        component = make_component("add", 4)
        report = evaluate_component(component, FeatureConfig(),
                                    runs=2, length=256,
                                    train_cycles=256, train_runs=4)
        assert set(report["techniques"]) == \
            {"learned", "dbt", "bitwise", "pfa"}
        assert report["windows"] > 0
        assert isinstance(report["learned_wins"], bool)

    def test_window_truth_matches_energies(self):
        circuit = ripple_carry_adder(4)
        config = FeatureConfig(window=32)
        vec = fastsim.random_packed_vectors(circuit.inputs, 128,
                                            seed=0)
        truth = window_truth(circuit, vec, config)
        energies = circuit_cycle_energies(circuit, vec)
        assert truth[0] == pytest.approx(sum(energies[:32]) / 32)

    def test_holdout_streams_deterministic(self):
        component = make_component("add", 4)
        a = holdout_streams(component, runs=2, length=128)
        b = holdout_streams(component, runs=2, length=128)
        assert [[s.words for s in run] for run in a] == \
            [[s.words for s in run] for run in b]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_characterize_fit_report_pipeline(self, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.setenv(artifact_store.ENV_DIR,
                           str(tmp_path / "store"))
        artifact_store.set_store(None)
        try:
            out = tmp_path / "ds.json"
            rc = learn_main(["characterize", "--component", "add8",
                             "--cycles", "128", "--runs", "2",
                             "--workers", "1", "--out", str(out)])
            assert rc == 0
            assert json.loads(out.read_text())["datasets"]

            rc = learn_main(["fit", "--dataset", str(out)])
            assert rc == 0

            rc = learn_main(["report", "--component", "add8"])
            assert rc == 0
            text = capsys.readouterr().out
            assert "cv_mape" in text
            assert "1 stored model(s)" in text
        finally:
            monkeypatch.delenv(artifact_store.ENV_DIR, raising=False)
            artifact_store.set_store(None)

    def test_evaluate_json(self, capsys):
        rc = learn_main(["evaluate", "--component", "mult4",
                         "--cycles", "256", "--runs", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["components"][0]["component"] == "mult4"

    def test_unknown_component_rejected(self):
        with pytest.raises(SystemExit):
            learn_main(["characterize", "--component", "nope"])

    def test_no_subcommand_shows_help(self, capsys):
        assert learn_main([]) == 2
