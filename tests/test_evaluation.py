import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast import evaluation, fkkf, spectral, synth
from flowcast.errors import InsufficientGroup, NumericalFailure, UndefinedError
from flowcast.evaluation import (ExperimentConfig, GroupReport, SplitResult,
                                 ar_baseline, build_group_report,
                                 chunk_length_sweep, constant_error,
                                 evaluate_split, forecast_flow,
                                 locate_peak_rise, peak_prediction_error,
                                 quality_label, run_group_experiment,
                                 split_learner, write_report_csv)
from flowcast.synth import BurstTemplate, generate_group
from oracles import ar2_ramp_forecast

TEMPLATE = BurstTemplate(rise_duration_s=0.5, body_duration_s=0.7, peak_kbit=100.0,
                         impulse_period_s=0.03, impulse_jitter=0.1,
                         amplitude_jitter=0.1, inter_burst_gap_s=1.8)
HYPER = fkkf.FkkfHyperparams(lambda_t=0.05, lambda_o=1e-3, state_bw_scale=1.0,
                             obs_bw_scale=1.0, kappa=1e-3)
CFG = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.6,), subspace_size=200,
                       kept_dim=40, peak_window_s=0.15)


class TestPeakError:
    def test_two_percent_under(self):
        assert peak_prediction_error([98.0], [100.0]) == pytest.approx(-0.02)

    def test_exact_match(self):
        assert peak_prediction_error([5.0, 7.0], [7.0, 3.0]) == 0.0

    def test_total_miss(self):
        assert peak_prediction_error([0.0], [50.0]) == pytest.approx(-1.0)

    def test_no_peak_is_undefined(self):
        with pytest.raises(UndefinedError):
            peak_prediction_error([1.0], [0.0])

    def test_randomized_against_independent_computation(self):
        # oracle: spreadsheet-style arithmetic with python floats
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = rng.uniform(0, 200, size=17)
            actual = rng.uniform(1, 200, size=23)
            expected = (max(pred.tolist()) - max(actual.tolist())) / max(actual.tolist())
            assert abs(peak_prediction_error(pred, actual) - expected) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 10, size=9)
        actual = rng.uniform(1, 10, size=9)
        a = peak_prediction_error(pred, actual)
        # power-of-two factor scales exactly in binary floating point
        assert peak_prediction_error(4.0 * pred, 4.0 * actual) == a
        assert peak_prediction_error(3.7 * pred, 3.7 * actual) == pytest.approx(
            a, abs=1e-15)


class TestConstantError:
    def test_seventy_percent_under(self):
        assert constant_error([30.0], [100.0]) == pytest.approx(-0.70)

    def test_equal_maxima(self):
        assert constant_error([4.0, 9.0], [9.0]) == 0.0

    def test_rising_peak_strictly_negative(self):
        prefix = np.linspace(0, 40, 10)
        horizon = np.linspace(45, 100, 10)
        assert constant_error(prefix, horizon) < 0


class TestQualityRule:
    @pytest.mark.parametrize("pred,const,expected", [
        (-0.10, -0.60, "good"),
        (-0.19999, -0.60, "good"),
        (-0.20, -0.60, "moderate"),
        (-0.35, -0.60, "moderate"),
        (-0.50, -0.60, "moderate"),   # 'above 50%' is strict
        (-0.501, -0.60, "bad"),
        (-0.30, -0.25, "bad"),        # no better than constant
        (-0.30, -0.30, "bad"),        # equally bad as constant
        (0.10, -0.60, "good"),
        (0.55, -0.90, "bad"),
    ])
    def test_thresholds(self, pred, const, expected):
        assert quality_label(pred, const) == expected


class TestPeakLocalization:
    def test_finds_rise_start(self):
        flows = generate_group(TEMPLATE, 2, 8.0, 0.01, seed=1)
        idx = locate_peak_rise(flows[0].samples, 0.05, 0.01, window_s=0.15,
                               factor=5.0)
        # rise begins at 1.8 s = chunk 36; the forward window fires just before
        assert idx is not None
        assert 30 <= idx <= 36

    def test_flat_flow_has_no_peak(self):
        idx = locate_peak_rise(np.ones(1000), 0.05, 0.01)
        assert idx is None

    def test_too_short_flow(self):
        assert locate_peak_rise(np.ones(20), 0.05, 0.01, window_s=1.0) is None


class TestExperimentConfig:
    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf"), float("nan")])
    def test_peak_factor_positive_and_finite(self, factor):
        # an infinite factor would find no peak rise in any fold
        with pytest.raises(ValueError, match="peak_factor must be positive and finite"):
            dataclasses.replace(CFG, peak_factor=factor)


class TestArBaseline:
    def test_constant_series_exact(self):
        out = ar_baseline(np.full(50, 7.5), horizon_steps=10, order=4)
        np.testing.assert_array_equal(out, np.full(10, 7.5))

    def test_linear_ramp_ar2(self):
        # oracle: closed-form continuation of the ramp recurrence
        series = 2.0 + 0.5 * np.arange(40)
        out = ar_baseline(series, horizon_steps=10, order=2)
        expected = ar2_ramp_forecast(series[-1], 0.5, 10)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_clamped_at_zero(self):
        series = 100.0 - 10.0 * np.arange(15)  # heads below zero
        series = np.clip(series, 0, None) + 1e-9 * np.arange(15)
        out = ar_baseline(100.0 - 10.0 * np.arange(12), horizon_steps=8, order=2)
        assert np.all(out >= 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ar_baseline(np.ones(5), 3, order=8)

    def test_explosive_fit_falls_back_to_persistence(self):
        # the 20-sample observed prefix of a criterion-6 fold (group 0, flow 0)
        flow = generate_group(synth.default_templates(10)[0], 8, 10.0, 0.01,
                              seed=100, group_id=0)[0]
        start = locate_peak_rise(flow.samples, 0.05, 0.01, window_s=0.15)
        prefix = flow.samples[start * 5:(start + 4) * 5]
        # oracle: the least-squares AR(8) fit of that prefix is explosive
        design = np.column_stack([prefix[7 - k:prefix.size - k - 1] for k in range(8)])
        coef = np.linalg.lstsq(design, prefix[8:], rcond=None)[0]
        assert np.abs(np.roots(np.r_[1.0, -coef])).max() > 1.01
        out = ar_baseline(prefix, horizon_steps=100, order=8)
        np.testing.assert_array_equal(out, np.full(100, prefix[-1]))


@pytest.fixture(scope="module")
def group_flows():
    return generate_group(TEMPLATE, 4, 8.0, 0.01, seed=3)


class TestGroupExperiment:
    def test_near_identical_group_is_good(self, group_flows):
        # oracle: ground-truth continuation of each held-out flow
        result = run_group_experiment(group_flows, HYPER, CFG, 0.6)
        assert len(result.splits) == 4
        assert abs(result.pred_error) < 0.20
        assert abs(result.constant_error) >= 2 * abs(result.pred_error)
        assert quality_label(result.pred_error, result.constant_error) == "good"

    def test_unrelated_test_flow_is_bad(self, group_flows):
        # oracle: comparison against the constant baseline -- a model trained
        # on ~100 kbit flows grossly underestimates a 900 kbit alien
        alien_template = BurstTemplate(rise_duration_s=0.3, body_duration_s=0.5,
                                       peak_kbit=900.0, impulse_period_s=0.06,
                                       impulse_jitter=0.3, amplitude_jitter=0.3,
                                       inter_burst_gap_s=2.2)
        alien = generate_group(alien_template, 2, 8.0, 0.01, seed=9)[0]
        split = evaluate_split(group_flows, alien, HYPER, CFG, 0.6)
        label = quality_label(split.pred_error, split.constant_error)
        assert abs(split.pred_error) > 0.2 or label != "good"

    def test_memorization_bound(self, group_flows):
        # predicting a training flow itself is rarely worse than the
        # proper leave-one-out error
        loo = run_group_experiment(group_flows, HYPER, CFG, 0.6)
        self_errors, loo_errors = [], []
        for split, (train, test) in zip(
                loo.splits,
                [(group_flows[:i] + group_flows[i + 1:], group_flows[i])
                 for i in range(len(group_flows))]):
            degenerate = evaluate_split([test] + train[:2], test, HYPER, CFG, 0.6)
            self_errors.append(abs(degenerate.pred_error))
            loo_errors.append(abs(split.pred_error))
        wins = sum(s <= l + 0.05 for s, l in zip(self_errors, loo_errors))
        assert wins >= 0.75 * len(self_errors)

    def test_shared_learner_scores_as_fresh_learning(self, group_flows):
        train, test = group_flows[1:], group_flows[0]
        learner = split_learner(train, CFG, 0.6)
        for hyper in (HYPER, dataclasses.replace(HYPER, kappa=1e-2), HYPER):
            shared = evaluate_split(train, test, hyper, CFG, 0.6, learner=learner)
            assert shared == evaluate_split(train, test, hyper, CFG, 0.6)

    def test_learner_from_other_flows_or_settings_refused(self, group_flows):
        train, test = group_flows[1:], group_flows[0]
        with pytest.raises(ValueError, match="other training flows"):
            evaluate_split(train, test, HYPER, CFG, 0.6,
                           learner=split_learner(group_flows[:3], CFG, 0.6))
        with pytest.raises(ValueError, match="other training flows"):
            evaluate_split(train, test, HYPER, CFG, 0.6,
                           learner=split_learner(train, CFG, 0.4))
        evaluate_split(list(train), test, HYPER, CFG, 0.6,
                       learner=split_learner(train, CFG, 0.6))

    def test_split_is_forecast_flow_then_scoring(self, group_flows):
        train, test = group_flows[1:], group_flows[0]
        split = evaluate_split(train, test, HYPER, CFG, 0.6)
        model = fkkf.learn(train, HYPER, CFG.subspace_size, CFG.chunk_config(0.6),
                           CFG.window_config(0.6), kept_dim=CFG.kept_dim)
        start, _, prediction = forecast_flow(model, test.samples, CFG)
        hop = CFG.chunk_config(0.6).hop_samples
        first = (start + CFG.observe_steps) * hop
        actual = test.samples[first:first + CFG.horizon_steps * hop]
        prefix = test.samples[start * hop:first]
        assert split.pred_error == peak_prediction_error(prediction.mean_kbit, actual)
        assert split.constant_error == constant_error(prefix, actual)
        assert split.ar_error == peak_prediction_error(
            ar_baseline(prefix, actual.size, CFG.ar_order), actual)

    @pytest.mark.parametrize("error, reason", [
        (UndefinedError("no peak rise"), "UndefinedError"),
        (NumericalFailure("innovation_gain"), "NumericalFailure.innovation_gain"),
        (NumericalFailure("posterior_covariance"),
         "NumericalFailure.posterior_covariance"),
    ])
    def test_skips_counted_per_reason(self, group_flows, monkeypatch, error, reason):
        def first_two_folds_fail(train, test, *args, **kwargs):
            if test is group_flows[0] or test is group_flows[2]:
                raise error
            return SplitResult(pred_error=0.1, constant_error=-0.5, ar_error=-0.5,
                               pca_cum_variance=0.9)

        monkeypatch.setattr(evaluation, "evaluate_split", first_two_folds_fail)
        result = run_group_experiment(group_flows, HYPER, CFG, 0.6)
        assert result.skips == {reason: 2}
        assert result.skipped == 2
        assert len(result.splits) == 2

    def test_flow_shorter_than_the_lookahead_skipped(self, group_flows):
        # at 0.6 s the state looks 1.8 s (180 samples) ahead: a 150-sample
        # flow is left out of every training set and its own fold is skipped
        cut = dataclasses.replace(group_flows[0], samples=group_flows[0].samples[:150])
        result = run_group_experiment(group_flows[:2] + [cut] + group_flows[2:],
                                      HYPER, CFG, 0.6)
        whole = run_group_experiment(group_flows, HYPER, CFG, 0.6)
        assert result.splits == whole.splits
        assert result.skips == {"UndefinedError": 1}
        # the learners of the four folds that train on it record it left out
        assert (result.flows_left_out, whole.flows_left_out) == (1, 0)

    def test_every_fold_skipped_gives_no_splits(self, group_flows, monkeypatch):
        def no_peak(*args, **kwargs):
            raise UndefinedError("no peak rise")

        monkeypatch.setattr(evaluation, "evaluate_split", no_peak)
        result = run_group_experiment(group_flows, HYPER, CFG, 0.6)
        assert result.splits == [] and result.skips == {"UndefinedError": 4}
        assert np.isnan(result.pred_error)

    def test_too_small_group(self):
        with pytest.raises(InsufficientGroup):
            run_group_experiment([generate_group(TEMPLATE, 2, 8.0, 0.01, seed=4)[0]],
                                 HYPER, CFG, 0.6)


@pytest.fixture(scope="module")
def group_model(group_flows):
    return split_learner(group_flows[1:], CFG, 0.6).model(HYPER)


class TestForecastFlow:
    def test_start_defaults_to_the_located_peak(self, group_flows, group_model):
        samples = group_flows[0].samples
        start, horizon, prediction = forecast_flow(group_model, samples, CFG)
        assert start == locate_peak_rise(samples, CFG.chunk_interval_s,
                                         CFG.sample_interval_s, CFG.peak_window_s,
                                         CFG.peak_factor)
        again = forecast_flow(group_model, samples, CFG, start)
        assert again[:2] == (start, horizon)
        np.testing.assert_array_equal(again[2].mean_kbit, prediction.mean_kbit)
        assert prediction.mean_kbit.size == CFG.horizon_steps * 5

    def test_filters_the_observed_frames_after_start(self, group_flows, group_model):
        # oracle: the observed frames and horizon rebuilt by hand
        samples = group_flows[0].samples
        start = locate_peak_rise(samples, CFG.chunk_interval_s, CFG.sample_interval_s,
                                 CFG.peak_window_s, CFG.peak_factor) - 1
        fe = group_model.frontend
        raw = fkkf.observation_frames(samples, fe.chunk_cfg, fe.chunk_cfg.chunk_length_s)
        expected = fkkf.run_filter(
            group_model, fe.reduce_observations(raw[start:start + CFG.observe_steps]),
            CFG.horizon_steps)
        got_start, horizon, prediction = forecast_flow(group_model, samples, CFG, start)
        assert got_start == start
        first = (start + CFG.observe_steps) * 5
        assert horizon == slice(first, first + CFG.horizon_steps * 5)
        np.testing.assert_array_equal(prediction.mean_kbit, expected.mean_kbit)
        np.testing.assert_array_equal(prediction.filtered_state.n_t,
                                      expected.filtered_state.n_t)
        np.testing.assert_array_equal(prediction.filtered_cov, expected.filtered_cov)

    def test_counts_of_kept_configs_not_converted_again(self, group_flows, group_model,
                                                         monkeypatch):
        # hop_samples, chunk_samples and horizon_steps are converted once, by
        # their config's validation; a forecast converts only the durations
        # passed to locate_peak_rise and observation_frames
        calls, real = [], spectral.whole_multiple
        monkeypatch.setattr(spectral, "whole_multiple",
                            lambda *args: calls.append(args[2]) or real(*args))
        forecast_flow(group_model, group_flows[0].samples, CFG)
        assert sorted(calls) == ["chunk_interval_s", "horizon_s", "window_s"]

    def test_negative_start_refused(self, group_flows, group_model):
        with pytest.raises(UndefinedError, match="start step -1 is negative"):
            forecast_flow(group_model, group_flows[0].samples, CFG, -1)

    def test_flat_flow_has_no_peak(self, group_model):
        with pytest.raises(UndefinedError, match="no peak rise"):
            forecast_flow(group_model, np.ones(800), CFG)

    def test_flow_shorter_than_one_window(self, group_model):
        # a 0.6 s observation window is 60 samples
        with pytest.raises(UndefinedError, match="59 samples shorter than one window"):
            forecast_flow(group_model, np.ones(59), CFG, 0)

    def test_observed_frames_past_the_end(self, group_flows, group_model):
        samples = group_flows[0].samples
        last_chunk = samples.size // 5 - 1
        with pytest.raises(UndefinedError, match="past the flow end"):
            forecast_flow(group_model, samples, CFG, last_chunk)


class TestSweep:
    def test_single_element_sweep(self, group_flows):
        optimal, per_length = chunk_length_sweep(group_flows, HYPER, CFG, [0.6])
        assert optimal == 0.6
        assert set(per_length) == {0.6}

    def test_optimal_minimizes_abs_error(self, group_flows):
        optimal, per_length = chunk_length_sweep(group_flows, HYPER, CFG,
                                                 [0.4, 0.6])
        best = min(per_length.values(), key=lambda r: abs(r.pred_error))
        assert abs(per_length[optimal].pred_error) == abs(best.pred_error)

    def test_length_with_every_fold_skipped_kept_but_never_optimal(self, group_flows,
                                                                   monkeypatch):
        def short_lengths_undefined(train, test, hyper, cfg, chunk_length_s, **kwargs):
            if chunk_length_s < 0.5:
                raise UndefinedError("no peak rise")
            return SplitResult(pred_error=0.3, constant_error=-0.5, ar_error=-0.5,
                               pca_cum_variance=0.9)

        monkeypatch.setattr(evaluation, "evaluate_split", short_lengths_undefined)
        optimal, per_length = chunk_length_sweep(group_flows, HYPER, CFG, [0.4, 0.6])
        assert optimal == 0.6
        assert per_length[0.4].skips == {"UndefinedError": 4}
        assert per_length[0.4].splits == []
        assert np.isnan(per_length[0.4].pred_error)
        with pytest.raises(InsufficientGroup):
            chunk_length_sweep(group_flows, HYPER, CFG, [0.4])


class TestReportCsv:
    def test_columns_and_determinism(self, tmp_path):
        report = GroupReport(group_id=1, flow_count=4, pca_cum_variance_at_80=0.97,
                             constant_error=-0.7, optimal_chunk_len_s=0.6,
                             pred_error_chunk_1s=-0.45, pred_error_optimal=-0.08,
                             quality="good")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv([report], p1, {"config_hash": "abc", "seed": 0})
        write_report_csv([report], p2, {"config_hash": "abc", "seed": 0})
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[2] == ",".join(GroupReport.COLUMNS)
        assert lines[3].startswith("1,4,0.97,-0.7,0.6,-0.45,-0.08,good")


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.01, max_value=2.0))
def test_quality_rule_boundary_properties(p_abs, c_abs):
    label = quality_label(-p_abs, -c_abs)
    if p_abs > 0.5 or p_abs >= c_abs:
        assert label == "bad"
    elif p_abs < 0.2:
        assert label == "good"
    else:
        assert label == "moderate"
