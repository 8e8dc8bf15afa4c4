"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The source traces behind the published numbers are
not redistributable at 10 ms granularity, so criterion 1 records that the
property/oracle suite below (criteria 2-9) stands in for them.
"""

import time

import numpy as np
import pytest

from flowcast import fkkf, reduction, synth
from flowcast.evaluation import (ExperimentConfig, chunk_length_sweep,
                                 constant_error, peak_prediction_error,
                                 quality_label)
from flowcast.spectral import ChunkConfig, reassemble, transform
from flowcast.synth import BurstTemplate, generate_group
from oracles import (DampedRotation, FullSpaceFilter, TextbookKalman,
                     distinct_rows, state_kernel, sum_per_centre)


def _report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS -- {message}")


def test_criterion_1_substitution_note():
    """The published per-group error table cannot be regenerated bit-for-bit
    (non-redistributable packet traces); criteria 2-9 are the substituted
    property/oracle suite."""
    _report(1, "published-table reproduction substituted by oracle suite "
               "(criteria 2-9); source traces not redistributable")


def test_criterion_2_subspace_equals_full_space():
    """Sub-space filter with n = m matches the direct full-sample recursion."""
    start = time.time()
    template = BurstTemplate(rise_duration_s=0.4, body_duration_s=0.5,
                             peak_kbit=100.0, impulse_period_s=0.03,
                             impulse_jitter=0.15, amplitude_jitter=0.15,
                             inter_burst_gap_s=0.5)
    flows = generate_group(template, 4, 3.0, 0.01, seed=11)
    chunk_cfg = ChunkConfig(0.01, 0.05, 0.2)
    window_cfg = fkkf.StateWindowConfig(horizons_s=(0.2, 0.4, 0.6))
    hyper = fkkf.FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2,
                                 state_bw_scale=0.25, obs_bw_scale=0.5,
                                 kappa=1e-3)
    learner = fkkf.StagedLearner(flows, 10 ** 6, chunk_cfg, window_cfg, kept_dim=30)
    model = learner.model(hyper)
    # the training pairs the learner reduced the flows to; the model's
    # kernel centres must be their distinct observations before the states
    # are trusted
    x_pred, x_succ, y = learner.x_pred, learner.x_succ, learner.y_train
    m = x_pred.shape[0]
    assert m <= 300
    assert model.subspace_size == m
    assert np.array_equal(distinct_rows(y), model.y_train)

    test_flow = generate_group(template, 2, 3.0, 0.01, seed=99)[0]
    raw = fkkf.observation_frames(test_flow.samples, chunk_cfg, 0.2)
    observed = model.frontend.reduce_observations(raw[:15])

    oracle = FullSpaceFilter(model, x_pred, x_succ, y, hyper)
    o_means, o_covs, o_gains, _ = oracle.run(observed, 0)
    # run_filter's steps: the means move, the gain roots Z are projected,
    # each gain factor is W = Z'Z and each posterior kappa W; the responses
    # O'k_y of all frames are run_filter's one block
    gains = fkkf.project(model, len(observed))
    responses = fkkf._responses(model, observed)
    state = model.initial_state()
    worst = 0.0
    for i in range(len(observed)):
        if i:
            state = fkkf.prediction_update(state, model)
        state = fkkf.FilterState(
            n_t=fkkf._innovated(state.n_t, responses[:, i], gains[i], model), step=i)
        worst = max(worst,
                    float(np.max(np.abs(state.n_t - o_means[i]))),
                    float(np.max(np.abs(model.kappa * (gains[i].T @ gains[i])
                                        - o_covs[i]))),
                    float(np.max(np.abs(gains[i].T @ (gains[i] @ model.o_sub.T)
                                        - sum_per_centre(o_gains[i], y,
                                                         model.y_train)))))
    filtered = fkkf.run_filter(model, observed, 0, gains=gains).filtered_state
    assert np.array_equal(filtered.n_t, state.n_t)
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    _report(2, f"n=m={m} ({model.n_centres} centres) filter matches full-space recursion, "
               f"max |diff| {worst:.2e} <= 1e-8 in {elapsed:.1f}s < 30s")


def test_criterion_3_classical_kalman_oracle():
    """Linear regime (huge bandwidth, tiny ridge) tracks a textbook KF."""
    start = time.time()
    system = DampedRotation()
    x_pred, x_succ, y_train = system.training_pairs()

    hyper = fkkf.FkkfHyperparams(lambda_t=1e-8, lambda_o=1e-8,
                                 state_bw_scale=30.0, obs_bw_scale=30.0,
                                 kappa=1e-5)
    model = fkkf.learn_core(x_pred, x_succ, y_train, hyper,
                            subspace_size=len(x_pred))
    # bandwidth >> data diameter
    diameter = np.linalg.norm(x_pred.max(axis=0) - x_pred.min(axis=0))
    assert state_kernel(x_pred, hyper).effective_bandwidth > 5 * diameter

    xs_test, ys_test = system.simulate(200, np.random.default_rng(777),
                                       np.array([1.2, -0.4]))
    observed = ys_test[:200]
    gains = fkkf.project(model, len(observed))
    state = model.initial_state()
    recon = []
    for i, frame in enumerate(observed):
        if i:
            state = fkkf.prediction_update(state, model)
        state = fkkf.innovation_update(state, frame, gains, model)
        recon.append(fkkf.reconstruct(state, model))
    recon = np.array(recon)

    kf = TextbookKalman(system.a, system.c, system.process_cov, system.obs_cov,
                        np.zeros(2), np.eye(2))
    kf_means = np.array([kf.step(y) for y in observed])

    amplitude = float(np.abs(xs_test).max())
    rmse = float(np.sqrt(np.mean((recon - kf_means) ** 2)))
    elapsed = time.time() - start
    assert rmse <= 0.02 * amplitude
    assert elapsed < 10.0
    _report(3, f"filtered means track the textbook KF at "
               f"{100 * rmse / amplitude:.2f}% of amplitude <= 2% over 200 "
               f"steps in {elapsed:.1f}s < 10s")


def test_criterion_4_spectral_roundtrip_and_dimensionality():
    start = time.time()
    rng = np.random.default_rng(4)
    flow = rng.uniform(0.0, 120.0, size=1000)  # 10 s at T_S = 0.01
    cfg = ChunkConfig(sample_interval_s=0.01, chunk_interval_s=0.05,
                      chunk_length_s=1.0)
    frames = transform(flow, cfg)
    assert frames.shape == (200, 102)
    back = reassemble(frames, cfg, flow.size)
    rel = np.linalg.norm(back - flow) / np.linalg.norm(flow)
    elapsed = time.time() - start
    assert rel <= 1e-6
    assert elapsed < 5.0
    _report(4, f"chunk/transform/reassemble roundtrip at relative L2 error "
               f"{rel:.2e} <= 1e-6; preprocessing shape 200 x 102 "
               f"in {elapsed:.1f}s < 5s")


def test_criterion_5_pca_contract():
    start = time.time()
    rng = np.random.default_rng(5)
    # full-dimension basis: everything explained, exact reconstruction
    data = rng.normal(size=(240, 40))
    std = reduction.fit_standardizer(data)
    standardized = std.apply(data)
    full = reduction.fit_pca(standardized, 40)
    assert abs(full.cumulative_explained_variance - 1.0) <= 1e-9
    back = reduction.inverse_project(full, std,
                                     reduction.project(full, std, data))
    assert np.max(np.abs(back - data)) <= 1e-8

    # synthetic flow group frames: 80 of 102 dims keep >= 95% variance
    template = BurstTemplate(rise_duration_s=0.5, body_duration_s=0.7,
                             peak_kbit=100.0, impulse_period_s=0.03,
                             impulse_jitter=0.1, amplitude_jitter=0.1,
                             inter_burst_gap_s=1.8)
    flows = generate_group(template, 8, 10.0, 0.01, seed=500)
    cfg = ChunkConfig(0.01, 0.05, 1.0)
    frames = np.vstack([transform(f.samples, cfg) for f in flows])
    g_std = reduction.fit_standardizer(frames)
    basis = reduction.fit_pca(g_std.apply(frames), 80)
    cum = basis.cumulative_explained_variance
    elapsed = time.time() - start
    assert frames.shape[1] == 102
    assert cum >= 0.95
    assert elapsed < 5.0
    _report(5, f"full-dim basis exact (cum var 1.0, recon <= 1e-8); group "
               f"frames keep {100 * cum:.1f}% >= 95% variance at 80 of 102 "
               f"dims in {elapsed:.1f}s < 5s")


@pytest.mark.slow
def test_criterion_6_end_to_end_prediction_quality():
    """Leave-one-out peak-rise prediction across ten synthetic groups."""
    start = time.time()
    templates = synth.default_templates(10)
    hyper = fkkf.FkkfHyperparams(lambda_t=0.05, lambda_o=1e-3,
                                 state_bw_scale=1.0, obs_bw_scale=1.0,
                                 kappa=1e-3)
    cfg = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.4, 0.6, 0.8),
                           subspace_size=250, kept_dim=50, peak_window_s=0.15)
    good = both = ar_worse = 0
    rows = []
    for g, template in enumerate(templates):
        flows = generate_group(template, 8, 10.0, 0.01, seed=100 + g,
                               group_id=g)
        optimal, per_length = chunk_length_sweep(flows, hyper, cfg)
        best = per_length[optimal]
        label = quality_label(best.pred_error, best.constant_error)
        good += label == "good"
        both += abs(best.constant_error) >= 2 * abs(best.pred_error)
        ar_worse += abs(best.ar_error) > abs(best.pred_error)
        rows.append(f"g{g}:{best.pred_error:+.3f}@{optimal}s[{label}]")
    elapsed = time.time() - start
    assert good >= 8, rows
    assert both == 10, rows
    assert ar_worse >= 9, rows
    assert elapsed < 900.0
    _report(6, f"{good}/10 groups good (|error| < 20%), constant baseline "
               f"beaten >= 2x in {both}/10, AR baseline worse in "
               f"{ar_worse}/10, in {elapsed:.0f}s < 15min; {' '.join(rows)}")


@pytest.mark.slow
def test_criterion_7_latency_budget():
    """Single filter step and 1000-step rollout timing at m=2000, n=200."""
    rng = np.random.default_rng(7)
    m, d = 2000, 102
    chain = np.cumsum(rng.normal(size=(m + 1, d)), axis=0) * 0.05
    x_pred, x_succ = chain[:-1], chain[1:]
    y_train = chain[:-1] + 0.01 * rng.normal(size=(m, d))
    hyper = fkkf.FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2,
                                 state_bw_scale=1.0, obs_bw_scale=1.0,
                                 kappa=1e-2)
    model = fkkf.learn_core(x_pred, x_succ, y_train, hyper, subspace_size=200)
    assert model.subspace_size == 200
    steps = 25
    gains = fkkf.project(model, steps)

    # median single-step latency: innovation + prediction + readout, the
    # steps run_filter takes
    timings = []
    for rep in range(4):
        state = model.initial_state()
        for i in range(steps):
            frame = y_train[(rep * steps + i) % m]
            tic = time.perf_counter()
            state = fkkf.innovation_update(state, frame, gains, model)
            state = fkkf.prediction_update(state, model)
            fkkf.reconstruct(state, model)
            timings.append(time.perf_counter() - tic)
    median_ms = 1000.0 * float(np.median(timings))
    assert median_ms <= 10.0

    # 1000 consecutive predictions: run_filter's open-loop rollout after one
    # observed frame (forecast_variance would hold 1001 x d x n rows)
    tic = time.perf_counter()
    prediction = fkkf.run_filter(model, y_train[:1], 1000, gains=gains)
    rollout_s = time.perf_counter() - tic
    assert prediction.mean_frames.shape == (1000, d)
    assert rollout_s <= 10.0
    _report(7, f"median filter step {median_ms:.2f}ms <= 10ms at m=2000 "
               f"n=200 d=102; 1000 consecutive predictions in "
               f"{rollout_s:.2f}s <= 10s")


@pytest.mark.slow
def test_criterion_8_deterministic_reports(tmp_path):
    """Two `evaluate` runs with identical config produce identical bytes."""
    from click.testing import CliRunner
    from flowcast.cli import main

    config = tmp_path / "config.yaml"
    config.write_text(
        "experiment:\n"
        "  observe_steps: 4\n"
        "  chunk_lengths_s: [0.6]\n"
        "  subspace_size: 120\n"
        "  kept_dim: 30\n"
        "  peak_window_s: 0.15\n"
        "clustering:\n"
        "  max_groups: 5\n"
        "  distance_threshold: 400.0\n"
        "  signature_chunk_length_s: 0.6\n"
        "synth:\n"
        "  n_groups: 2\n"
        "  flows_per_group: 3\n"
        "  duration_s: 8.0\n"
        "hyper:\n"
        "  source: fixed\n"
        "  fixed: {lambda_t: 0.05, lambda_o: 1.0e-3, state_bw_scale: 1.0,"
        " obs_bw_scale: 1.0, kappa: 1.0e-3}\n"
        "seed: 9\n")
    runner = CliRunner()
    reports = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        for args in (["synth"],
                     ["cluster", str(out / "traces.csv")],
                     ["evaluate", str(out / "traces.csv"),
                      "--groups", str(out / "groups.csv")]):
            result = runner.invoke(main, ["--config", str(config),
                                          "--out", str(out)] + args)
            assert result.exit_code == 0, result.output
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    lines = reports[0].decode().splitlines()
    n_groups = sum(1 for line in lines
                   if line and not line.startswith("#")) - 1  # minus header
    assert n_groups == 2
    _report(8, f"two evaluate runs byte-identical ({len(reports[0])} bytes, "
               f"{n_groups} group rows)")


def test_criterion_9_metric_arithmetic():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        pred = rng.uniform(0.0, 500.0, size=rng.integers(3, 40))
        actual = rng.uniform(1.0, 500.0, size=rng.integers(3, 40))
        prefix = rng.uniform(0.0, 300.0, size=rng.integers(3, 40))
        # oracle: spreadsheet-style arithmetic on python floats
        expected_pred = (max(pred.tolist()) - max(actual.tolist())) \
            / max(actual.tolist())
        expected_const = (max(prefix.tolist()) - max(actual.tolist())) \
            / max(actual.tolist())
        worst = max(worst,
                    abs(peak_prediction_error(pred, actual) - expected_pred),
                    abs(constant_error(prefix, actual) - expected_const))
    # sign convention: underestimates are negative
    assert peak_prediction_error([10.0], [100.0]) < 0
    assert constant_error([30.0], [100.0]) == pytest.approx(-0.70)
    assert worst <= 1e-12
    _report(9, f"peak/constant error match independent arithmetic on 20 "
               f"randomized cases, worst |diff| {worst:.2e} <= 1e-12; "
               f"underestimates negative")
