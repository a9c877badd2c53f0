"""Tests for macro-models, sampling cosimulation, quick synthesis, and
software power estimation."""

import random

import pytest

from repro.estimation.macromodel import (
    BitwiseModel,
    CycleAccurateModel,
    DualBitTypeModel,
    InputOutputModel,
    PfaModel,
    Table3DModel,
    characterization_streams,
    fit_macromodel,
)
from repro.estimation.sampling import (
    adaptive_power,
    census_power,
    gate_reference_power,
    sampler_power,
)
from repro.estimation.quicksynth import dynamic_profile, \
    quick_synthesis_estimate
from repro.estimation.software_power import (
    CharacteristicProfile,
    TiwariModel,
    profile_synthesis_experiment,
    synthesize_profile_program,
)
from repro.rtl.components import make_component
from repro.rtl.streams import (
    constant_stream,
    correlated_stream,
    random_stream,
)
from repro.software import Machine, dot_product, fir_program, random_program


@pytest.fixture(scope="module")
def adder():
    return make_component("add", 4)


@pytest.fixture(scope="module")
def adder_training(adder):
    return characterization_streams(adder, runs=16, length=80, seed=1)


def _test_streams(width, seed=77, length=100):
    return [random_stream(width, length, seed=seed),
            random_stream(width, length, seed=seed + 1)]


class TestMacroModels:
    def test_pfa_is_constant(self, adder, adder_training):
        model = fit_macromodel(PfaModel(), adder, adder_training)
        a = model.predict(_test_streams(4))
        b = model.predict([constant_stream(4, 50, 3)] * 2)
        assert a == b > 0

    def test_pfa_misses_data_dependence(self, adder, adder_training):
        """PFA errs badly on quiet data (the paper's criticism)."""
        model = fit_macromodel(PfaModel(), adder, adder_training)
        quiet = [constant_stream(4, 100, 5), constant_stream(4, 100, 9)]
        truth = adder.reference_power(quiet)
        assert truth == 0.0
        assert model.predict(quiet) > 0.05

    def test_bitwise_tracks_activity(self, adder, adder_training):
        model = fit_macromodel(BitwiseModel(), adder, adder_training)
        hot = _test_streams(4)
        cold = [random_stream(4, 100, seed=5, bit_prob=0.95),
                random_stream(4, 100, seed=6, bit_prob=0.95)]
        assert model.predict(hot) > model.predict(cold)

    def test_bitwise_accuracy_on_random(self, adder, adder_training):
        model = fit_macromodel(BitwiseModel(), adder, adder_training)
        err = model.error(adder, _test_streams(4))
        assert err < 0.25

    def test_io_model_on_multiplier(self):
        mult = make_component("mult", 4)
        training = characterization_streams(mult, runs=16, length=80,
                                            seed=2)
        io_model = fit_macromodel(InputOutputModel(), mult, training)
        err = io_model.error(mult, _test_streams(4, seed=30))
        assert err < 0.35

    def test_dbt_beats_pfa_on_correlated(self):
        mult = make_component("mult", 6)
        training = characterization_streams(mult, runs=20, length=80,
                                            seed=3)
        pfa = fit_macromodel(PfaModel(), mult, training)
        dbt = fit_macromodel(DualBitTypeModel(), mult, training)
        corr = [correlated_stream(6, 120, rho=0.97, seed=8),
                correlated_stream(6, 120, rho=0.97, seed=9)]
        assert dbt.error(mult, corr) < pfa.error(mult, corr)

    def test_table3d_predicts(self, adder, adder_training):
        model = fit_macromodel(Table3DModel(bins=4), adder, adder_training)
        value = model.predict(_test_streams(4))
        truth = adder.reference_power(_test_streams(4))
        assert value == pytest.approx(truth, rel=0.6)

    def test_cycle_accurate_selects_few_variables(self, adder,
                                                  adder_training):
        model = CycleAccurateModel(max_variables=8)
        model.fit(adder, adder_training)
        assert 1 <= len(model.selected) <= 8

    def test_cycle_accurate_average_error(self, adder, adder_training):
        model = CycleAccurateModel(max_variables=8)
        model.fit(adder, adder_training)
        streams = _test_streams(4, seed=55, length=150)
        assert model.error(adder, streams) < 0.20

    def test_cycle_accurate_cycle_error_larger_than_average(
            self, adder, adder_training):
        """Cycle error (10-20% in the paper) exceeds average error."""
        model = CycleAccurateModel(max_variables=8)
        model.fit(adder, adder_training)
        streams = _test_streams(4, seed=56, length=150)
        assert model.cycle_error(adder, streams) >= \
            model.error(adder, streams)


class TestDegenerateTraining:
    """The fixed ladder must stay finite on pathological training
    inputs — constant streams (singular design matrices), one-run
    training sets, width-1 components (the ridge-guard satellite)."""

    MODELS = [PfaModel, DualBitTypeModel, BitwiseModel,
              InputOutputModel, Table3DModel, CycleAccurateModel]

    @pytest.mark.parametrize("factory", MODELS)
    def test_constant_stream_training(self, factory):
        import math

        component = make_component("add", 4)
        training = [[constant_stream(4, 60, 5),
                     constant_stream(4, 60, 9)] for _ in range(4)]
        model = fit_macromodel(factory(), component, training=training)
        predicted = model.predict(_test_streams(4))
        assert math.isfinite(predicted)

    @pytest.mark.parametrize("factory", MODELS)
    def test_single_sample_training(self, factory):
        import math

        component = make_component("add", 4)
        training = characterization_streams(component, runs=1,
                                            length=60, seed=3)
        model = fit_macromodel(factory(), component, training=training)
        assert math.isfinite(model.predict(_test_streams(4)))

    @pytest.mark.parametrize("factory",
                             [PfaModel, BitwiseModel,
                              InputOutputModel, CycleAccurateModel])
    def test_width1_component(self, factory):
        import math

        component = make_component("reg", 1)
        training = characterization_streams(component, runs=6,
                                            length=60, seed=2)
        model = fit_macromodel(factory(), component, training=training)
        assert math.isfinite(model.predict(
            [random_stream(1, 80, seed=11)]))

    def test_zero_activity_training_predicts_training_mean(self):
        # A register fed constants: every activity feature is zero,
        # so the design matrix is singular — the ridge guard must
        # still recover the intercept (= the training-mean power)
        # instead of returning garbage.
        import math

        component = make_component("reg", 4)
        streams = [constant_stream(4, 60, 7)]
        training = [streams for _ in range(3)]
        truth = component.reference_power(streams)
        model = fit_macromodel(BitwiseModel(), component,
                               training=training)
        predicted = model.predict(streams)
        assert math.isfinite(predicted)
        assert predicted == pytest.approx(truth, rel=1e-6)


class TestSampling:
    @pytest.fixture(scope="class")
    def fitted(self):
        comp = make_component("add", 4)
        training = characterization_streams(comp, runs=16, length=80,
                                            seed=4)
        model = fit_macromodel(BitwiseModel(), comp, training)
        return comp, model

    def test_census_matches_model_average(self, fitted):
        comp, model = fitted
        streams = _test_streams(4, seed=60, length=400)
        census = census_power(model, streams)
        assert census.model_evaluations == 399
        assert census.estimate == pytest.approx(
            comp.reference_power(streams), rel=0.25)

    def test_sampler_much_cheaper_similar_answer(self, fitted):
        comp, model = fitted
        streams = _test_streams(4, seed=61, length=4000)
        census = census_power(model, streams)
        sampled = sampler_power(model, streams, n_samples=4,
                                sample_size=30, seed=1)
        assert sampled.model_evaluations == 120
        assert census.model_evaluations == 3999
        # ~33x fewer evaluations, small error:
        assert census.model_evaluations / sampled.model_evaluations > 30
        assert sampled.estimate == pytest.approx(census.estimate, rel=0.15)

    def test_sampler_fixed_seed_is_deterministic(self, fitted):
        _comp, model = fitted
        streams = _test_streams(4, seed=63, length=4000)
        first = sampler_power(model, streams, n_samples=4,
                              sample_size=30, seed=9)
        second = sampler_power(model, streams, n_samples=4,
                               sample_size=30, seed=9)
        assert first.estimate == second.estimate
        assert first.std_error == second.std_error

    def test_sampler_draws_without_cross_sample_replacement(self,
                                                            fitted):
        """One rng.sample covers all samples, so the marked cycles are
        pairwise distinct and the evaluation count is exact."""
        _comp, model = fitted
        streams = _test_streams(4, seed=64, length=4000)
        length = min(len(s) for s in streams)
        rng = random.Random(5)
        marked = rng.sample(list(range(1, length)), 4 * 30)
        assert len(set(marked)) == 120     # the draw itself is distinct
        result = sampler_power(model, streams, n_samples=4,
                               sample_size=30, seed=5)
        assert result.model_evaluations == 120

    def test_sampler_reports_standard_error(self, fitted):
        _comp, model = fitted
        streams = _test_streams(4, seed=65, length=4000)
        result = sampler_power(model, streams, n_samples=4,
                               sample_size=30, seed=2)
        census = census_power(model, streams)
        assert result.std_error is not None and result.std_error > 0.0
        # The paper's normality argument: the census mean should land
        # within a few standard errors of the sampled estimate.
        assert abs(result.estimate - census.estimate) \
            < 6.0 * result.std_error
        assert census.std_error is None    # census draws no samples

    def test_adaptive_scales_standard_error(self, fitted):
        comp, model = fitted
        streams = _test_streams(4, seed=66, length=4000)
        result = adaptive_power(model, comp, streams, n_samples=4,
                                sample_size=30, seed=3)
        assert result.std_error is not None and result.std_error > 0.0

    def test_gate_reference_timed_captures_glitches(self, fitted):
        comp, _model = fitted
        streams = _test_streams(4, seed=67, length=1200)
        plain = gate_reference_power(comp, streams)
        timed = gate_reference_power(comp, streams, timed=True)
        # Glitching only adds transitions.
        assert timed.estimate >= plain.estimate

    def test_sampler_enforces_minimum_units(self, fitted):
        _comp, model = fitted
        with pytest.raises(ValueError):
            sampler_power(model, _test_streams(4), sample_size=10)

    def test_sampler_small_population_falls_back(self, fitted):
        _comp, model = fitted
        streams = _test_streams(4, seed=62, length=50)
        result = sampler_power(model, streams)
        census = census_power(model, streams)
        assert result.estimate == census.estimate

    def test_adaptive_debiases(self, fitted):
        """A model trained on random data is biased on correlated
        data; the ratio estimator removes most of the bias."""
        comp = make_component("mult", 6)
        # Deliberately biased training: random data only.
        biased_training = [
            [random_stream(6, 80, seed=k), random_stream(6, 80, seed=k + 50)]
            for k in range(10)
        ]
        model = fit_macromodel(PfaModel(), comp, biased_training)
        streams = [correlated_stream(6, 2000, rho=0.98, seed=70),
                   correlated_stream(6, 2000, rho=0.98, seed=71)]
        truth = gate_reference_power(comp, streams).estimate
        census_err = abs(census_power(model, streams).estimate - truth) \
            / truth
        adaptive = adaptive_power(model, comp, streams,
                                  gate_sample_size=40, seed=2)
        adaptive_err = abs(adaptive.estimate - truth) / truth
        assert adaptive_err < census_err
        assert adaptive_err < 0.25
        # Way cheaper than full gate-level simulation.
        assert adaptive.gate_cycles < 0.05 * len(streams[0])


class TestQuickSynthesis:
    def test_estimate_structure(self):
        from repro.cdfg.transforms import fir_filter

        cdfg = fir_filter([3, 5, 7], width=8)
        est = quick_synthesis_estimate(cdfg, seed=0)
        assert est.total > 0
        assert est.total == pytest.approx(
            est.functional_units + est.registers + est.interconnect
            + est.control)
        assert est.latency >= 1

    def test_bigger_graph_costs_more(self):
        from repro.cdfg.transforms import fir_filter

        small = quick_synthesis_estimate(fir_filter([3, 5], width=8))
        large = quick_synthesis_estimate(fir_filter([3, 5, 7, 9, 11],
                                                    width=8))
        assert large.total > small.total

    def test_dynamic_profile_tracks_data(self):
        from repro.cdfg.transforms import fir_filter

        cdfg = fir_filter([3, 5], width=8)
        hot = {f"x{i}": [k * 37 % 256 for k in range(40)] for i in range(2)}
        cold = {f"x{i}": [7] * 40 for i in range(2)}
        p_hot = dynamic_profile(cdfg, hot)
        p_cold = dynamic_profile(cdfg, cold)
        assert p_hot["mult"] > p_cold["mult"]


class TestTiwariModel:
    @pytest.fixture(scope="class")
    def model(self):
        return TiwariModel.characterize(
            opcodes=["ADD", "SUB", "MUL", "ADDI", "LD", "ST", "NOP"],
            loop_length=200)

    def test_base_costs_ordered(self, model):
        assert model.base_costs["MUL"] > model.base_costs["ADD"]
        assert model.base_costs["ADD"] > model.base_costs["NOP"]

    def test_pair_costs_nonnegative_symmetric(self, model):
        for (a, b), cost in model.pair_costs.items():
            assert cost >= 0
            assert model.pair_costs[(b, a)] == cost

    def test_estimates_random_programs(self, model):
        for seed in range(3):
            program = random_program(600, seed=seed)
            stats = Machine().run(program)
            assert model.relative_error(stats) < 0.12, seed

    def test_estimates_kernels(self, model):
        m = Machine()
        m.load_memory(0, list(range(64)))
        m.load_memory(1024, list(range(64)))
        stats = m.run(dot_product(64))
        # Kernels include branches the model was not characterized on;
        # error stays moderate.
        assert model.relative_error(stats) < 0.30


class TestProfileSynthesis:
    def test_profile_extraction(self):
        stats = Machine().run(random_program(500, seed=3))
        profile = CharacteristicProfile.from_stats(stats)
        assert profile.instructions == 501
        assert abs(sum(profile.instruction_mix.values()) - 1.0) < 1e-9

    def test_synthesized_program_matches_mix(self):
        stats = Machine().run(random_program(3000, seed=4))
        profile = CharacteristicProfile.from_stats(stats)
        short = synthesize_profile_program(profile, length=400, seed=1)
        short_stats = Machine().run(short)
        long_mix = profile.instruction_mix
        short_mix = short_stats.instruction_mix()
        for klass, frac in long_mix.items():
            if frac > 0.05:
                assert short_mix.get(klass, 0) == pytest.approx(
                    frac, abs=0.12), klass

    def test_experiment_compaction_and_error(self):
        m = Machine()
        m.load_memory(0, [k % 97 for k in range(200)])
        m.load_memory(3000, [2, 3, 1])
        program = fir_program([2, 3, 1], 150)
        report = profile_synthesis_experiment(program,
                                              synthesized_length=300,
                                              seed=0)
        assert report.compaction > 5
        assert report.epi_error < 0.25
