import dataclasses
import json
import multiprocessing
import sys
import threading
import time
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
import scipy.linalg

from flowcast import fkkf, hyperopt
from flowcast.errors import (BadDimension, FlowTooShort, InsufficientData,
                             ModelFileError)
from flowcast.evaluation import (ExperimentConfig, evaluate_split,
                                 leave_one_out_splits, locate_peak_rise)
from flowcast.fkkf import (FilterState, FkkfHyperparams, StateWindowConfig,
                           forecast_variance, innovation_update, learn,
                           learn_core, load_model,
                           observation_frames, prediction_update, project,
                           reconstruct, run_filter, save_model, window_frames)
from flowcast.hyperopt import SearchSpace
from flowcast.kernelcore import KernelSpec, gram
from flowcast.spectral import ChunkConfig
from flowcast.synth import BurstTemplate, default_templates, generate_group
from oracles import (DampedRotation, FullSpaceFilter, distinct_rows,
                     mxm_kalman_gain, state_kernel, sum_per_centre)

CHUNK = ChunkConfig(sample_interval_s=0.01, chunk_interval_s=0.05, chunk_length_s=0.2)
WINDOW = StateWindowConfig(horizons_s=(0.2, 0.4, 0.6))
HYPER = FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2, state_bw_scale=0.5,
                        obs_bw_scale=0.5, kappa=1e-3)

TEMPLATE = BurstTemplate(rise_duration_s=0.4, body_duration_s=0.5, peak_kbit=100.0,
                         impulse_period_s=0.03, impulse_jitter=0.15,
                         amplitude_jitter=0.15, inter_burst_gap_s=0.5)


def _gain(gains, model, i):
    """The n x m Kalman gain of step i, Q_i = W_i O' = Z_i' (Z_i O')."""
    return gains[i].T @ (gains[i] @ model.o_sub.T)


def _chain_data(m=120, dim=3, noise=0.5, seed=7):
    """Noisy damped-rotation trajectory; noisy enough for a well-conditioned Gram."""
    rng = np.random.default_rng(seed)
    theta = 0.35
    a = 0.97 * np.eye(dim)
    a[0, 0] = a[1, 1] = 0.97 * np.cos(theta)
    a[0, 1], a[1, 0] = -0.97 * np.sin(theta), 0.97 * np.sin(theta)
    states = np.zeros((m + 1, dim))
    states[0, 0] = 2.0
    for t in range(m):
        states[t + 1] = a @ states[t] + noise * rng.standard_normal(dim)
    obs = states[:, :2] + 0.05 * rng.standard_normal((m + 1, 2))
    return states[:-1], states[1:], obs[:-1]


def _states_and_observations(series, window_cfg, chunk_cfg):
    """Raw (states, observations) rows: the horizon blocks side by side,
    and the first block alone."""
    blocks = window_frames(series, chunk_cfg, window_cfg)
    return np.hstack(blocks), blocks[0]


def _posteriors(model, gains):
    """The posterior kappa Z'Z of each projected step."""
    return [model.kappa * (z.T @ z) for z in gains]


def _priors(model, gains):
    """The prior of each projected step: P1, then T P_post T' + V."""
    priors = [model.p1_prior]
    for p_post in _posteriors(model, gains)[:-1]:
        p = model.t_sub @ p_post @ model.t_sub.T + model.v
        priors.append(0.5 * (p + p.T))
    return priors


def _core_oracle(model, hyper):
    """The full-space oracle of a model learned on the default _chain_data."""
    return FullSpaceFilter(model, *_chain_data(), hyper)


@pytest.fixture(scope="module")
def core_model():
    x_pred, x_succ, y = _chain_data()
    return fkkf.learn_core(x_pred, x_succ, y, HYPER, subspace_size=len(x_pred))


@pytest.fixture(scope="module")
def traffic_model():
    flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
    return learn(flows, HYPER, subspace_size=10_000, chunk_cfg=CHUNK,
                 window_cfg=WINDOW, kept_dim=30)


class TestStateWindows:
    def test_ten_second_flow_gives_140_pairs(self):
        # oracle: index arithmetic, (10 - 3) / 0.05 = 140 aligned rows
        cfg = ChunkConfig(0.01, 0.05, 1.0)
        window = StateWindowConfig(horizons_s=(1.0, 2.0, 3.0))
        series = np.random.default_rng(0).uniform(0, 10, size=1000)
        states, obs = _states_and_observations(series, window, cfg)
        assert states.shape[0] == 140
        assert obs.shape[0] == 140
        assert states.shape[1] == 102 + 202 + 302
        assert obs.shape[1] == 102

    def test_single_horizon_state_equals_observation(self):
        cfg = ChunkConfig(0.01, 0.05, 0.2)
        window = StateWindowConfig(horizons_s=(0.2,))
        series = np.random.default_rng(1).uniform(0, 10, size=300)
        states, obs = _states_and_observations(series, window, cfg)
        np.testing.assert_array_equal(states, obs)

    def test_all_zero_flow(self):
        states, obs = _states_and_observations(np.zeros(500), WINDOW, CHUNK)
        np.testing.assert_array_equal(states, 0.0)
        np.testing.assert_array_equal(obs, 0.0)

    def test_too_short(self):
        with pytest.raises(FlowTooShort):
            window_frames(np.ones(50), CHUNK, WINDOW)

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            StateWindowConfig(horizons_s=(2.0, 1.0))

    def test_scaled_keeps_pattern(self):
        window = StateWindowConfig(horizons_s=(1.0, 2.0, 3.0))
        scaled = window.scaled(0.4)
        assert scaled.horizons_s == pytest.approx((0.4, 0.8, 1.2))

    def test_observation_frames_count(self):
        frames = observation_frames(np.ones(1000), ChunkConfig(0.01, 0.05, 1.0), 1.0)
        assert frames.shape == (181, 102)  # (1000 - 100)//5 + 1 full windows


class TestLearnCore:
    def test_shapes(self, core_model):
        m = core_model.n_centres
        n = core_model.subspace_size
        assert core_model.ogo.shape == (n, n)
        o_sub = core_model.o_sub
        np.testing.assert_allclose(
            core_model.ogo, o_sub.T @ _core_oracle(core_model, HYPER).g_yy @ o_sub,
            rtol=1e-9, atol=1e-9 * np.abs(core_model.ogo).max())
        assert core_model.xo.shape == (core_model.obs_dim, n)
        assert core_model.t_sub.shape == (n, n)
        assert core_model.o_sub.shape == (m, n)
        assert core_model.v.shape == (n, n)
        assert core_model.p1_prior.shape == (n, n)

    def test_prior_covariance_psd(self, core_model):
        eig = np.linalg.eigvalsh(core_model.p1_prior)
        assert eig[0] >= -1e-8
        np.testing.assert_allclose(core_model.p1_prior, core_model.p1_prior.T,
                                   atol=1e-8)

    def test_subspace_too_large(self):
        # subspace_size is a cap: asking for more inducing pairs than exist
        # keeps all m, the same model as asking for exactly m
        x_pred, x_succ, y = _chain_data(m=20)
        capped = learn_core(x_pred, x_succ, y, HYPER, subspace_size=40)
        assert capped.subspace_size == len(x_pred) == 20
        exact = learn_core(x_pred, x_succ, y, HYPER, subspace_size=20)
        for name in fkkf._ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(capped, name), getattr(exact, name))

    def test_subspace_size_below_one_refused(self):
        x_pred, x_succ, y = _chain_data(m=20)
        with pytest.raises(ValueError, match="subspace_size"):
            learn_core(x_pred, x_succ, y, HYPER, subspace_size=0)

    def test_observation_wider_than_state_refused(self):
        # the readout rows are the first q state columns
        x_pred, x_succ, y = _chain_data()
        with pytest.raises(BadDimension, match="wider than the state"):
            learn_core(x_pred[:, :1], x_succ[:, :1], y, HYPER, subspace_size=10)

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientData):
            learn_core(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 1)),
                       HYPER, subspace_size=1)

    def test_stride_subspace_selection(self):
        np.testing.assert_array_equal(fkkf._subspace_stride_indices(100, 25),
                                      np.arange(0, 100, 4))
        x_pred, x_succ, y = _chain_data(m=100)
        assert learn_core(x_pred, x_succ, y, HYPER, subspace_size=25).subspace_size == 25

    def test_observation_gram_after_window_truncation(self):
        # one 10 s flow: 200 chunk positions on the grid, 140 with a full
        # 3 s lookahead, hence 139 transition pairs behind G_yy
        cfg = ChunkConfig(0.01, 0.05, 1.0)
        window = StateWindowConfig(horizons_s=(1.0, 2.0, 3.0))
        flow = generate_group(TEMPLATE, 2, 10.0, 0.01, seed=13)[0]
        from flowcast.spectral import transform
        assert transform(flow.samples, cfg).shape[0] == 200
        learner = fkkf.StagedLearner([flow], 50, cfg, window, kept_dim=20)
        model = learner.model(HYPER)
        y = learner.y_train
        assert learner.x_pred.shape[0] == y.shape[0] == 139
        assert model.n_centres == len(distinct_rows(y)) <= 139
        assert model.o_sub.shape == (model.n_centres, model.subspace_size)

    def test_training_flow_one_step_prediction(self):
        # single noiseless periodic signal: one-step self-prediction is sharp.
        # oracle: the ground-truth next frame.
        t = np.arange(600) * 0.01
        series = 50.0 * (1.0 + np.sin(2 * np.pi * 2.0 * t))
        states, obs = _states_and_observations(series, WINDOW, CHUNK)
        x_pred, x_succ, y = states[:-1], states[1:], obs[:-1]
        hyper = FkkfHyperparams(lambda_t=1e-4, lambda_o=1e-4, state_bw_scale=1.0,
                                obs_bw_scale=1.0, kappa=1e-4)
        model = learn_core(x_pred, x_succ, y, hyper, subspace_size=len(x_pred))
        gains = project(model, 30)
        state = model.initial_state()
        errors = []
        for i in range(30):
            state = innovation_update(state, y[i], gains, model)
            state = prediction_update(state, model)
            # the readout is the observation block, the first q state columns
            truth = x_succ[i, :y.shape[1]]
            errors.append(np.linalg.norm(reconstruct(state, model) - truth))
        rmse = np.mean(errors[5:])
        amplitude = np.abs(states).max()
        assert rmse < 0.01 * amplitude


def _one_centre_per_pair(rows):
    """_distinct_rows for a learner that keeps every training observation."""
    every = np.arange(len(rows))
    return every, every


@pytest.fixture(scope="module")
def centred_models():
    """(observations, model, model with one centre per pair) of bursty flows
    whose idle gaps repeat observation windows exactly."""
    flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
    learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=30)
    model = learner.model(HYPER)
    y = learner.y_train
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fkkf, "_distinct_rows", _one_centre_per_pair)
        unmerged = learn(flows, HYPER, 40, CHUNK, WINDOW, kept_dim=30)
    return y, model, unmerged


class TestKernelCentres:
    def test_centres_are_the_distinct_observations(self, centred_models):
        y, model, unmerged = centred_models
        assert np.array_equal(model.y_train, distinct_rows(y))
        assert model.n_centres < 0.8 * len(y)
        assert len({row.tobytes() for row in model.y_train}) == model.n_centres
        assert np.array_equal(unmerged.y_train, y)

    def test_observation_rows_summed_per_centre(self, centred_models):
        # oracle: a loop over the pairs adding each row of O to its centre
        y, model, unmerged = centred_models
        assert model.o_sub.shape == (model.n_centres, model.subspace_size)
        np.testing.assert_array_equal(
            model.o_sub, sum_per_centre(unmerged.o_sub.T, y, model.y_train).T)

    def test_gains_and_covariances_bit_identical(self, centred_models):
        # T and C never see a merged row.  M is summed per centre, and V and
        # the prior take each distinct state's coordinates once, so these
        # and the gains built on M agree with one centre per pair to roundoff
        _, model, unmerged = centred_models
        for name in ("t_sub", "xo"):
            assert np.array_equal(getattr(model, name), getattr(unmerged, name)), name
        for name in ("ogo", "v", "n1_prior", "p1_prior"):
            _assert_relative(getattr(model, name), getattr(unmerged, name), 1e-12)
        # the posteriors are kappa W, so comparing W = Z'Z covers them
        for a, b in zip(project(model, 4), project(unmerged, 4)):
            _assert_relative(a.T @ a, b.T @ b, GAIN_RTOL)

    def test_innovation_matches_unmerged_response(self, centred_models):
        # only the summation order of the response O' k_y differs; the
        # posterior sees that roundoff through the gain W
        y, model, unmerged = centred_models
        flow = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)[0]
        frames = model.frontend.reduce_observations(
            observation_frames(flow.samples, CHUNK, 0.2))
        gains = project(model, 1)
        w_norm = np.abs(gains[0].T @ gains[0]).sum(axis=1).max()
        state = model.initial_state()
        for frame in np.vstack([frames, y[::7]]):
            responses = [m.o_sub.T @ fkkf.kernel_vector(m.y_train, frame, m.obs_spec)
                         for m in (model, unmerged)]
            scale = np.max(np.abs(responses[1]))
            assert np.max(np.abs(responses[0] - responses[1])) <= 1e-12 * scale
            a = innovation_update(state, frame, gains, model).n_t
            b = innovation_update(state, frame, gains, unmerged).n_t
            assert np.max(np.abs(a - b)) <= 1e-12 * w_norm * scale

    def test_centre_map_built_once_per_training_set(self, monkeypatch):
        # the centre map and the distinct-state map, never per hyperparameter
        calls = []
        real = fkkf._distinct_rows
        monkeypatch.setattr(fkkf, "_distinct_rows",
                            lambda rows: calls.append(len(rows)) or real(rows))
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=20)
        for hyper in (HYPER, dataclasses.replace(HYPER, lambda_o=1e-1),
                      dataclasses.replace(HYPER, obs_bw_scale=2.0),
                      dataclasses.replace(HYPER, state_bw_scale=2.0)):
            learner.model(hyper)
        m = len(learner.x_pred)
        assert calls == [m, 2 * m]

    def test_rows_compared_bit_for_bit(self):
        rows = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [-0.0, 0.0], [0.0, 0.0]])
        first, centre_of = fkkf._distinct_rows(rows)
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(centre_of, [0, 1, 0, 2, 1])


def _assert_relative(actual, expected, rtol):
    """max |actual - expected| <= rtol * max |expected|."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


# M summed per centre moves by 2.2e-15 relative on the idle-gap flows, and
# their 4-step gains and posteriors by 3.4e-13: each W solves with
# L' M L + kappa I at kappa = 1e-3
GAIN_RTOL = 1e-10


def _explicit_dual(solver, lam):
    """The n x m ridge operator D(lam) = R W diag(s / (s^2 + lam)) U'."""
    return solver.weights(lam) @ solver.u.T


def _mxm_reference(x_pred, x_succ, y, hyper, subspace_size):
    """The learned arrays computed from m x m Grams over every training pair.

    The subspace solvers are built as the learner builds them, and each
    ridge solution here goes through its explicit n x m D(lam); everything
    built on them uses G_yy over all m observations, M = O' G_yy O on the
    unmerged O, and the coordinates of K(x_succ, x_pred) and
    K(x_succ, x_succ).
    """
    core = _rows_learner(x_pred, x_succ, y, subspace_size)
    spec = KernelSpec(bandwidth=core.state_bw, scale_factor=hyper.state_bw_scale)
    obs_spec = KernelSpec(bandwidth=core.obs_bw, scale_factor=hyper.obs_bw_scale)
    idx = core.idx
    n = idx.size
    kbar = gram(x_pred, x_pred[idx], spec)
    kbar_prime = gram(x_pred, x_succ[idx], spec)
    k_succ = gram(x_succ, core.states, spec)[:, core.succ_col[idx]]
    solver = fkkf._SubspaceSolver.of_gram(kbar, idx)
    succ_solver = fkkf._SubspaceSolver.of_gram(k_succ, idx)
    t_sub = fkkf._clip_unstable_modes(_explicit_dual(solver, hyper.lambda_t) @ kbar_prime)
    coord_map = _explicit_dual(succ_solver, hyper.lambda_t)
    coords_pred = coord_map @ gram(x_succ, x_pred, spec)
    coords_succ = coord_map @ gram(x_succ, x_succ, spec)
    resid = coords_succ - t_sub @ coords_pred
    o_full = _explicit_dual(solver, hyper.lambda_o).T @ kbar_prime[idx]
    jitter = fkkf._COV_JITTER * np.eye(n)
    return {"t_sub": t_sub,
            "o_sub": sum_per_centre(o_full.T, y, distinct_rows(y)).T,
            "xo": (x_pred.T @ o_full)[:y.shape[1]],
            "ogo": fkkf._sym(o_full.T @ (gram(y, y, obs_spec) @ o_full)),
            "v": fkkf._sym(np.cov(resid)) + jitter,
            "n1_prior": coords_pred.mean(axis=1),
            "p1_prior": fkkf._sym(np.cov(coords_pred)) + jitter}


@pytest.fixture(scope="module", params=["chain", "idle_gaps"])
def distinct_row_data(request):
    """(x_pred, x_succ, y, model, m x m reference) of _chain_data and of
    bursty flows whose idle gaps repeat rows exactly."""
    if request.param == "chain":
        x_pred, x_succ, y = _chain_data()
    else:
        x_pred, x_succ, y = _idle_gap_rows()
        assert len(distinct_rows(y)) < len(y)
    assert len(distinct_rows(np.vstack([x_pred, x_succ]))) < 2 * len(x_pred)
    model = learn_core(x_pred, x_succ, y, HYPER, subspace_size=40)
    return x_pred, x_succ, y, model, _mxm_reference(x_pred, x_succ, y, HYPER, 40)


class TestDistinctRowGrams:
    """The learner's Grams over distinct rows against m x m Grams built here."""

    def test_innovation_matrix_equals_full_observation_gram(self, distinct_row_data):
        *_, model, reference = distinct_row_data
        _assert_relative(model.ogo, reference["ogo"], 1e-12)

    def test_noise_and_prior_equal_mxm_coordinates(self, distinct_row_data):
        *_, model, reference = distinct_row_data
        for name in ("v", "n1_prior", "p1_prior"):
            _assert_relative(getattr(model, name), reference[name], 1e-12)

    def test_transition_and_observation_bit_identical(self, distinct_row_data):
        # the learner never forms D(lam); through the reference's explicit
        # D(lam) the products associate differently (<= 2.7e-14 measured)
        *_, model, reference = distinct_row_data
        for name in ("t_sub", "o_sub", "xo"):
            _assert_relative(getattr(model, name), reference[name], 1e-12)

    def test_states_are_the_distinct_rows(self, distinct_row_data):
        x_pred, x_succ, y, _, _ = distinct_row_data
        core = _rows_learner(x_pred, x_succ, y, 40)
        stacked = np.vstack([x_pred, x_succ])
        np.testing.assert_array_equal(core.states, distinct_rows(stacked))
        np.testing.assert_array_equal(core.states[core.pred_col], x_pred)
        np.testing.assert_array_equal(core.states[core.succ_col], x_succ)


def _stacked_ridge(kbar, knn, lam):
    """(Q_top, R) of the QR factorization of [Kbar; sqrt(lam) K_nn^1/2].

    R'R = Kbar'Kbar + lam K_nn, so D(lam) = R^-1 Q_top' and
    D(lam)' = Q_top R^-T.  K_nn's eigenvalues get the solver's floor, which
    is part of the ridge metric.
    """
    evals, evecs = np.linalg.eigh(fkkf._sym(knn))
    evals = np.maximum(evals, max(evals.max(), 0.0) * fkkf._EIG_FLOOR + 1e-300)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    q, r = scipy.linalg.qr(np.vstack([kbar, np.sqrt(lam) * root]), mode="economic")
    return q[:kbar.shape[0]], r


# max |stage - QR solve| / max |QR solve| on criterion 3's data, where 170
# of K_nn's 180 eigenvalues sit on the floor and lam = 1e-8: T 9.8e-2,
# coordinates 8.3e-2, Obar 5.3e-6, C 1.0e-8 (2.3e1 and 1.6e1 for T and the
# coordinates when U comes from the eigh of the squared (Kbar R)'(Kbar R));
# on _chain_data every stage agrees to <= 7.5e-14
STAGE_RTOL = {"linear_regime": {"t": 0.5, "coords": 0.5, "obar": 1e-4, "c": 1e-6},
              "chain": {"t": 1e-12, "coords": 1e-12, "obar": 1e-12, "c": 1e-12}}


@pytest.fixture(scope="module", params=["linear_regime", "chain"])
def ridge_stages(request):
    """(tolerances, learner stages, QR ridge solves) at one hyperparameter set."""
    if request.param == "linear_regime":
        x_pred, x_succ, y = DampedRotation().training_pairs()
        hyper = FkkfHyperparams(lambda_t=1e-8, lambda_o=1e-8, state_bw_scale=30.0,
                                obs_bw_scale=30.0, kappa=1e-5)
        subspace_size = len(x_pred)
    else:
        (x_pred, x_succ, y), hyper, subspace_size = _chain_data(), HYPER, 40
    core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, subspace_size)
    core.model(hyper)
    state = core._state
    o_bar, _, xo = core._observation[hyper.lambda_o]
    # T before the mode clip
    stages = {"t": state.pred.transition(hyper.lambda_t),
              "coords": state.succ.state_coordinates(hyper.lambda_t), "obar": o_bar, "c": xo}
    idx = core.idx
    kbar = gram(x_pred, x_pred[idx], state.spec)
    kbar_prime = gram(x_pred, x_succ[idx], state.spec)
    k_states = gram(x_succ, core.states, state.spec)
    k_succ = gram(x_succ, x_succ[idx], state.spec)
    q_top, r = _stacked_ridge(kbar, kbar[idx], hyper.lambda_t)
    q_succ, r_succ = _stacked_ridge(k_succ, k_succ[idx], hyper.lambda_t)
    q_obs, r_obs = _stacked_ridge(kbar, kbar[idx], hyper.lambda_o)
    o_ref = q_obs @ scipy.linalg.solve_triangular(r_obs, kbar_prime[idx], trans="T")
    reference = {"t": scipy.linalg.solve_triangular(r, q_top.T @ kbar_prime),
                 "coords": scipy.linalg.solve_triangular(r_succ, q_succ.T @ k_states),
                 "obar": sum_per_centre(o_ref.T, y, core.centres).T,
                 "c": (x_pred.T @ o_ref)[:y.shape[1]]}
    return STAGE_RTOL[request.param], stages, reference


class TestRidgeStages:
    """Each ridge solution against a QR solve of the stacked system built here."""

    @pytest.mark.parametrize("name", ["t", "coords", "obar", "c"])
    def test_stage_equals_stacked_ridge_solve(self, ridge_stages, name):
        rtol, stages, reference = ridge_stages
        _assert_relative(stages[name], reference[name], rtol[name])


def _held_arrays(obj, seen=None):
    """Every numpy array reachable from obj's attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__") and type(obj).__module__ == fkkf.__name__:
        children = list(vars(obj).values())
    else:
        return []
    return [a for child in children for a in _held_arrays(child, seen)]


class TestLearnerMemory:
    def test_no_stage_holds_an_mxm_array(self):
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=30)
        learner.model(HYPER)
        learner.model(dataclasses.replace(HYPER, lambda_t=1e-1, lambda_o=1e-1))
        m = len(learner.x_pred)
        held = _held_arrays(learner)
        assert len(held) > 10
        assert not [a.shape for a in held if a.shape == (m, m)]

    def test_criterion6_fold_peak_allocation(self):
        # g2 fold 0 at 0.4 s: m = 1225 pairs, c = 491 centres, s = 834
        # states.  The m x m Grams peaked at 62 MB; over distinct rows the
        # split peaked at 35 MB, and without the n x m ridge operators and
        # the N x D PCA factors at 28 MB
        cfg = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.4,),
                               subspace_size=250, kept_dim=50, peak_window_s=0.15)
        hyper = FkkfHyperparams(lambda_t=0.05, lambda_o=1e-3, state_bw_scale=1.0,
                                obs_bw_scale=1.0, kappa=1e-3)
        flows = generate_group(default_templates(10)[2], 8, 10.0, 0.01, seed=102,
                               group_id=2)
        train, test = next(iter(leave_one_out_splits(flows)))
        tracemalloc.start()
        try:
            evaluate_split(train, test, hyper, cfg, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48e6, f"{peak / 1e6:.1f} MB"


# bandwidth scale chosen so the state Gram stays well-conditioned: the
# n = m comparison is then dominated by algebra, not roundoff
EXACT_HYPER = FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2, state_bw_scale=0.35,
                              obs_bw_scale=0.5, kappa=1e-3)


@pytest.fixture(scope="module")
def exact_model():
    x_pred, x_succ, y = _chain_data()
    model = learn_core(x_pred, x_succ, y, EXACT_HYPER, subspace_size=len(x_pred))
    # already inside the unit disk, so the mode clip returned T unchanged
    assert np.abs(np.linalg.eigvals(model.t_sub)).max() <= 1.0
    return model


class TestSubspaceFullSpaceEquivalence:
    """n = m must reproduce the direct full-sample recursion exactly.

    The model here is stable as estimated, so the unstable-mode clip
    leaves T bit-identical and the raw estimation is what gets compared; a
    separate test pins the clip's no-op contract.
    """

    def test_filter_states_match_oracle(self, exact_model):
        _, _, y = _chain_data()
        rng = np.random.default_rng(3)
        observed = y[10:30] + 0.01 * rng.standard_normal((20, 2))
        oracle = _core_oracle(exact_model, EXACT_HYPER)
        o_means, o_covs, o_gains, _ = oracle.run(observed, 0)
        gains = project(exact_model, len(observed))
        state = exact_model.initial_state()
        for i, frame in enumerate(observed):
            if i:
                state = prediction_update(state, exact_model)
            state = innovation_update(state, frame, gains, exact_model)
            assert np.max(np.abs(state.n_t - o_means[i])) <= 1e-8
            assert np.max(np.abs(_posteriors(exact_model, gains)[i] - o_covs[i])) <= 1e-8
            assert np.max(np.abs(_gain(gains, exact_model, i) - o_gains[i])) <= 1e-8

    def test_learned_matrices_match_full_space(self, exact_model):
        oracle = _core_oracle(exact_model, EXACT_HYPER)
        assert np.max(np.abs(exact_model.t_sub - oracle.t_mat)) <= 1e-8
        assert np.max(np.abs(exact_model.o_sub - oracle.o_mat)) <= 1e-8

    def test_clip_noop_when_already_stable(self):
        rng = np.random.default_rng(12)
        stable = rng.normal(size=(20, 20))
        stable *= 0.8 / np.abs(np.linalg.eigvals(stable)).max()
        assert fkkf._clip_unstable_modes(stable) is stable
        unstable = 2.0 * stable
        clipped = fkkf._clip_unstable_modes(unstable)
        assert np.abs(np.linalg.eigvals(clipped)).max() <= 1.0 + 1e-6


class TestProject:
    def test_gains_observation_independent(self, core_model):
        a = project(core_model, 5)
        b = project(core_model, 5)
        for i in range(5):
            np.testing.assert_array_equal(_gain(a, core_model, i),
                                          _gain(b, core_model, i))

    def test_prefix_property(self, core_model):
        # W = Z'Z and the posterior kappa Z'Z, so the Z comparison covers both
        one = project(core_model, 1)
        many = project(core_model, 6)
        np.testing.assert_array_equal(one[0], many[0])

    def test_holds_one_gain_factor_per_step(self, core_model):
        # the gain roots Z; W = Z'Z and the posteriors kappa Z'Z are formed
        # where they are read
        gains = project(core_model, 5)
        n = core_model.subspace_size
        assert [a.shape for a in _held_arrays(gains)] == [(n, n)] * 5

    def test_huge_kappa_kills_gain(self):
        x_pred, x_succ, y = _chain_data(m=60)
        hyper = FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2, state_bw_scale=0.5,
                                obs_bw_scale=0.5, kappa=1e12)
        model = learn_core(x_pred, x_succ, y, hyper, subspace_size=60)
        gains = project(model, 3)
        assert max(np.abs(_gain(gains, model, i)).max() for i in range(3)) < 1e-6

    def test_gain_sequence_converges(self, core_model):
        # oracle: long-run iteration approaches a fixed point, so consecutive
        # gain differences shrink after burn-in
        gains = project(core_model, 40)
        diffs = [np.linalg.norm(_gain(gains, core_model, i + 1)
                                - _gain(gains, core_model, i))
                 for i in range(39)]
        assert diffs[-1] < diffs[2]
        assert diffs[-1] < 1e-3 * max(diffs)

    def test_no_prior_formed_after_the_last_innovation(self, core_model, monkeypatch):
        calls = []
        real = fkkf._prediction_cov
        monkeypatch.setattr(fkkf, "_prediction_cov",
                            lambda *args: calls.append(1) or real(*args))
        project(core_model, 5)
        assert len(calls) == 4

    def test_each_prior_from_one_product_with_the_previous_root(self, core_model,
                                                                monkeypatch):
        # P-_{t+1} = kappa Y'Y + V with Y = Z_t T', one product and one
        # rank-k update: no T P T' product and no _sym copy
        def no_sym(mat):
            raise AssertionError("project symmetrized a matrix")

        monkeypatch.setattr(fkkf, "_sym", no_sym)
        products = []
        real = fkkf._matmul
        monkeypatch.setattr(fkkf, "_matmul",
                            lambda a, b: products.append((a, b)) or real(a, b))
        gains = project(core_model, 5)
        t_sub = core_model.t_sub
        with_t = [(a, b) for a, b in products
                  if any(x is t_sub or x.base is t_sub for x in (a, b))]
        assert len(with_t) == 4
        for (a, b), z in zip(with_t, gains):
            assert a is z
            assert b.base is t_sub and np.array_equal(b, t_sub.T)

    def test_covariances_stay_psd(self, core_model):
        gains = project(core_model, 25)
        for p in _posteriors(core_model, gains) + _priors(core_model, gains):
            assert np.linalg.eigvalsh(p)[0] >= -1e-8
            np.testing.assert_allclose(p, p.T, atol=1e-8)


def _criterion6_fold(seed):
    """Fold 0 of group 7 in the criterion-6 config at 0.4 s chunks.

    Returns the model and the 4 reduced frames observed from the located
    peak rise of the held-out flow.
    """
    hyper = FkkfHyperparams(lambda_t=0.05, lambda_o=1e-3, state_bw_scale=1.0,
                            obs_bw_scale=1.0, kappa=1e-3)
    cfg = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.4,),
                           subspace_size=250, kept_dim=50, peak_window_s=0.15)
    flows = generate_group(default_templates(10)[7], 8, 10.0, 0.01, seed=seed,
                           group_id=7)
    train, test = next(iter(leave_one_out_splits(flows)))
    model = learn(train, hyper, cfg.subspace_size, cfg.chunk_config(0.4),
                  cfg.window_config(0.4), kept_dim=cfg.kept_dim,
                  bandwidth_seed=cfg.bandwidth_seed)
    raw = observation_frames(test.samples, cfg.chunk_config(0.4), 0.4)
    start = locate_peak_rise(test.samples, cfg.chunk_interval_s,
                             cfg.sample_interval_s, cfg.peak_window_s,
                             cfg.peak_factor)
    return model, model.frontend.reduce_observations(raw[start:start + 4])


@pytest.fixture(scope="module")
def ill_conditioned_fold():
    return _criterion6_fold(107)


@pytest.fixture(scope="module")
def forecast_fold():
    """The same fold at synth seed 238, the benchmark's loo_sweep seed 7 for g7."""
    model, observed = _criterion6_fold(238)
    gains = project(model, observed.shape[0])
    return model, observed, gains


class TestForecastVariance:
    """forecast_variance is a sum of squares of readout rows against
    covariance factors.

    Rolling the n x n covariance forward cancelled catastrophically on
    this fold and returned negative variances down to -8.7e16.
    """

    def test_variances_non_negative(self, forecast_fold):
        model, observed, gains = forecast_fold
        pred = run_filter(model, observed, 20, gains=gains)
        cov_diag = forecast_variance(model, pred.filtered_cov, 20)
        assert cov_diag.shape == (20, model.obs_dim)
        assert np.all(cov_diag >= 0)
        assert np.all(model.frontend.kbit_variance(cov_diag) >= 0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    def test_matches_long_double_rollout(self, forecast_fold):
        # oracle: P <- T P T' + V in extended precision from the filtered
        # posterior, read out as diag(C P C') with C the observation rows
        model, observed, gains = forecast_fold
        pred = run_filter(model, observed, 20, gains=gains)
        cov_diag = forecast_variance(model, pred.filtered_cov, 20)
        ld = np.longdouble
        t_sub, v = model.t_sub.astype(ld), model.v.astype(ld)
        c = model.xo.astype(ld)
        p = _posteriors(model, gains)[observed.shape[0] - 1].astype(ld)
        for k in range(20):
            p = t_sub @ p @ t_sub.T + v
            expected = np.einsum("ij,ij->i", c @ p, c).astype(float)
            err = np.abs(cov_diag[k] - expected)
            assert err.max() <= 1e-2 * np.abs(expected).max(), k

    def test_run_filter_calls_no_scipy_linalg(self, traffic_model, monkeypatch):
        # numpy and scipy each keep a BLAS thread pool; alternating them
        # per step makes both busy-wait (see fkkf._matmul)
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        observed = traffic_model.frontend.reduce_observations(raw[:4])
        gains = project(traffic_model, 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg called inside run_filter")

        for module in (scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack):
            for name in dir(module):
                obj = getattr(module, name)
                if callable(obj) and not isinstance(obj, type) and not name.startswith("_"):
                    monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(AssertionError):
            scipy.linalg.cholesky(np.eye(2))
        run_filter(traffic_model, observed, 20, gains=gains)

    def test_run_filter_computes_no_covariance(self, forecast_fold, monkeypatch):
        # the forecast mean needs no factor of any covariance; the variance
        # is forecast_variance's, for the callers that read it
        model, observed, gains = forecast_fold
        expected = run_filter(model, observed, 20, gains=gains).mean_kbit

        def forbidden(*args, **kwargs):
            raise AssertionError("run_filter factorized a covariance")

        monkeypatch.setattr(fkkf, "_covariance_root", forbidden)
        pred = run_filter(model, observed, 20, gains=gains)
        np.testing.assert_array_equal(pred.mean_kbit, expected)


# max |(P-_t M + kappa I) W_t - P-_t| / max |P-_t| over the 4 steps of the
# seed-107 and seed-238 folds: <= 2.8e-5 with W_t = Z_t' Z_t; the gain
# factors W_t formed from T P T' products and symmetrized copies reached
# 5.5e-4 and 0.14
RICCATI_RTOL = 1e-4


class TestPsdByConstruction:
    """The factorized gain keeps posteriors PSD on an ill-conditioned prior.

    The m x m gain solve lost PSD on this fold at one BLAS thread and the
    fold was skipped; the n x n factorized form needs no luck from BLAS.
    """

    def test_prior_spans_fifteen_decades(self, ill_conditioned_fold):
        model, _ = ill_conditioned_fold
        magnitudes = np.abs(np.linalg.eigvalsh(model.p1_prior))
        assert magnitudes.max() >= 1e15 * magnitudes.min()

    def test_posteriors_psd(self, ill_conditioned_fold):
        model, observed = ill_conditioned_fold
        gains = project(model, 4)
        pred = run_filter(model, observed, 0, gains=gains)
        assert pred.filtered_root is gains[3]
        np.testing.assert_array_equal(pred.filtered_cov, _posteriors(model, gains)[3])
        for p in _posteriors(model, gains):
            assert np.linalg.eigvalsh(p)[0] >= -1e-12 * np.linalg.norm(p, 2)

    @pytest.mark.parametrize("fold", ["ill_conditioned_fold", "forecast_fold"])
    def test_other_priors_give_psd_posteriors(self, fold, request):
        # other priors on folds whose priors span fifteen decades: the
        # learned one scaled, and the priors projected from it; each
        # posterior must still be PSD
        model = request.getfixturevalue(fold)[0]
        for scale in (2.0, 0.5):
            other = dataclasses.replace(model, p1_prior=scale * model.p1_prior)
            for i, p in enumerate(_posteriors(other, project(other, 4))):
                assert np.linalg.eigvalsh(p)[0] >= -1e-12 * np.linalg.norm(p, 2), \
                    (scale, i)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("fold", ["ill_conditioned_fold", "forecast_fold"])
    def test_each_gain_solves_its_riccati_step(self, fold, request):
        # (P-_t M + kappa I) W_t = P-_t with W_t = Z_t' Z_t, each prior
        # rebuilt in extended precision from p1_prior and the previous root
        model = request.getfixturevalue(fold)[0]
        ld = np.longdouble
        t_sub, v, ogo = (a.astype(ld) for a in (model.t_sub, model.v, model.ogo))
        kappa = ld(model.kappa)
        eye = np.eye(model.subspace_size, dtype=ld)
        prior = model.p1_prior.astype(ld)
        for i, z in enumerate(project(model, 4)):
            z = z.astype(ld)
            w = z.T @ z
            resid = (prior @ ogo + kappa * eye) @ w - prior
            assert np.abs(resid).max() <= RICCATI_RTOL * np.abs(prior).max(), i
            prior = t_sub @ (kappa * w) @ t_sub.T + v

    def test_gain_matches_mxm_form_when_well_conditioned(self):
        x_pred, x_succ, y = _chain_data()
        model = learn_core(x_pred, x_succ, y, HYPER, subspace_size=40)
        assert model.subspace_size < len(x_pred)
        g_yy = FullSpaceFilter(model, x_pred, x_succ, y, HYPER).g_yy
        gains = project(model, 6)
        for i, p_prior in enumerate(_priors(model, gains)):
            expected = mxm_kalman_gain(p_prior, model.o_sub, g_yy,
                                       model.kappa)
            assert np.max(np.abs(_gain(gains, model, i) - expected)) <= 1e-8

    def test_singular_prior_factored_by_eigendecomposition(self):
        # a rank-5 prior has no Cholesky factor; the clamped eigenvalue
        # factor stands in and the gain keeps the m x m form
        x_pred, x_succ, y = _chain_data()
        model = learn_core(x_pred, x_succ, y, HYPER, subspace_size=40)
        factor = np.random.default_rng(3).normal(size=(40, 5))
        model = dataclasses.replace(model, p1_prior=factor @ factor.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(model.p1_prior)
        gains = project(model, 2)
        expected = mxm_kalman_gain(model.p1_prior, model.o_sub,
                                   FullSpaceFilter(model, x_pred, x_succ, y, HYPER).g_yy,
                                   model.kappa)
        assert np.max(np.abs(_gain(gains, model, 0) - expected)) <= 1e-8
        p = _posteriors(model, gains)[0]
        assert np.linalg.eigvalsh(p)[0] >= -1e-12 * np.linalg.norm(p, 2)


class TestUpdates:
    def test_innovation_with_expected_observation_keeps_mean(self, core_model):
        gains = project(core_model, 3)
        state = core_model.initial_state()
        state = innovation_update(state, core_model.y_train[4], gains, core_model)
        state = prediction_update(state, core_model)
        mu_prior = reconstruct(state, core_model)
        # feed the belief's own predicted observation: reconstruct the obs
        # embedding's nearest training observation via the response map
        response = _core_oracle(core_model, HYPER).g_yy @ core_model.o_sub @ state.n_t
        best = int(np.argmax(response))
        posterior = innovation_update(state, core_model.y_train[best], gains,
                                      core_model)
        mu_post = reconstruct(posterior, core_model)
        # zero-ish innovation: reconstruction moves far less than its norm
        assert np.linalg.norm(mu_post - mu_prior) < np.linalg.norm(mu_prior)

    def test_huge_kappa_posterior_equals_prior(self):
        x_pred, x_succ, y = _chain_data(m=60)
        hyper = FkkfHyperparams(lambda_t=1e-2, lambda_o=1e-2, state_bw_scale=0.5,
                                obs_bw_scale=0.5, kappa=1e12)
        model = learn_core(x_pred, x_succ, y, hyper, subspace_size=60)
        gains = project(model, 1)
        state = model.initial_state()
        post = innovation_update(state, y[5], gains, model)
        np.testing.assert_allclose(post.n_t, state.n_t, atol=1e-6)

    def test_zero_mean_propagates_to_zero(self, core_model):
        nxt = prediction_update(FilterState(n_t=np.zeros(core_model.subspace_size)),
                                core_model)
        np.testing.assert_array_equal(nxt.n_t, 0.0)

    def test_identity_dynamics_fixed_point(self, core_model):
        n = core_model.subspace_size
        model = fkkf.FkkfModel(**{**core_model.__dict__,
                                  "t_sub": np.eye(n), "v": np.zeros((n, n))})
        state = FilterState(n_t=np.ones(n))
        nxt = prediction_update(state, model)
        np.testing.assert_array_equal(nxt.n_t, state.n_t)
        assert nxt.step == state.step + 1

    def test_dimension_check(self, core_model):
        gains = project(core_model, 1)
        state = core_model.initial_state()
        with pytest.raises(BadDimension):
            innovation_update(state, np.ones(5), gains, core_model)

    def test_step_without_projected_gain_refused(self, core_model):
        gains = project(core_model, 2)
        state = FilterState(n_t=core_model.n1_prior, step=2)
        with pytest.raises(ValueError, match="no projected gain for step 2"):
            innovation_update(state, core_model.y_train[0], gains, core_model)


class TestReconstruct:
    def test_zero_coordinates_reconstruct_to_zero(self, core_model):
        mu = reconstruct(FilterState(n_t=np.zeros(core_model.subspace_size)), core_model)
        assert mu.shape == (core_model.obs_dim,)
        np.testing.assert_array_equal(mu, 0.0)

    def test_linearity(self, core_model):
        rng = np.random.default_rng(5)
        n = core_model.subspace_size
        s1 = rng.normal(size=n)
        s2 = rng.normal(size=n)
        mu1 = reconstruct(FilterState(n_t=s1), core_model)
        mu2 = reconstruct(FilterState(n_t=s2), core_model)
        mu12 = reconstruct(FilterState(n_t=2.0 * s1 - 3.0 * s2), core_model)
        np.testing.assert_allclose(mu12, 2.0 * mu1 - 3.0 * mu2, rtol=1e-9,
                                   atol=1e-12)

    def test_training_state_roundtrip(self):
        # a belief concentrated on training pair j reads out near the
        # observation block of training state j.
        # oracle: direct lookup of the training state.
        x_pred, x_succ, y = _chain_data(m=150, noise=0.5)
        hyper = FkkfHyperparams(lambda_t=1e-6, lambda_o=1e-6, state_bw_scale=0.5,
                                obs_bw_scale=0.5, kappa=1e-3)
        model = learn_core(x_pred, x_succ, y, hyper, subspace_size=150)
        j = 40
        spec = state_kernel(x_pred, hyper)
        coords = np.linalg.solve(
            fkkf.gram(x_succ, x_succ, spec) + 1e-9 * np.eye(150),
            fkkf.gram(x_succ, x_pred[j][None, :], spec))[:, 0]
        mu = reconstruct(FilterState(n_t=coords), model)
        truth = x_pred[j, :y.shape[1]]
        rel = np.linalg.norm(mu - truth) / np.linalg.norm(truth)
        assert rel < 0.01


class TestRunFilter:
    def test_horizon_zero_gives_filtered_state_only(self, core_model):
        _, _, y = _chain_data()
        gains = project(core_model, 5)
        pred = run_filter(core_model, y[:5], 0, gains=gains)
        assert pred.mean_frames.shape[0] == 0
        assert pred.mean_kbit.size == 0
        assert pred.filtered_state.step == 4
        assert pred.filtered_root is gains[4]
        np.testing.assert_array_equal(pred.filtered_cov,
                                      _posteriors(core_model, gains)[4])

    def test_too_few_gains_refused(self, core_model):
        # given gains are used as they are, never projected again
        _, _, y = _chain_data()
        with pytest.raises(ValueError, match="no projected gain for step 3"):
            run_filter(core_model, y[:5], 2, gains=project(core_model, 3))

    def test_minimum_prefix_of_three(self, core_model):
        _, _, y = _chain_data()
        pred = run_filter(core_model, y[:3], 2)
        assert pred.mean_frames.shape == (2, core_model.obs_dim)

    def test_batched_readout_matches_stepped_readout(self, traffic_model):
        # oracle: the open-loop rollout stepped by hand from the filtered
        # state; run_filter reads all steps out with one product, so each
        # frame matches the per-step readout to roundoff, and the stepped
        # states read out in one product exactly
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        observed = traffic_model.frontend.reduce_observations(raw[:4])
        pred = run_filter(traffic_model, observed, 6)
        state, stepped = pred.filtered_state, []
        for i in range(6):
            state = prediction_update(state, traffic_model)
            stepped.append(state.n_t)
            _assert_relative(pred.mean_frames[i], reconstruct(state, traffic_model), 1e-12)
        np.testing.assert_array_equal(pred.mean_frames,
                                      np.array(stepped) @ traffic_model.xo.T)

    def test_innovation_update_is_the_one_frame_filter(self, traffic_model):
        # innovation_update and run_filter share one innovation arithmetic:
        # from the prior, one frame gives the same mean bit for bit
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)
        observed = traffic_model.frontend.reduce_observations(
            observation_frames(flows[0].samples, CHUNK, 0.2)[:8])
        gains = project(traffic_model, 1)
        for frame in observed:
            stepped = innovation_update(traffic_model.initial_state(), frame, gains,
                                        traffic_model)
            filtered = run_filter(traffic_model, frame, 0, gains=gains).filtered_state
            assert filtered.step == stepped.step == 0
            np.testing.assert_array_equal(filtered.n_t, stepped.n_t)

    def test_shared_gains_give_fresh_forecast_variance(self, traffic_model):
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        observed = traffic_model.frontend.reduce_observations(raw[:4])
        other = traffic_model.frontend.reduce_observations(raw[6:10])
        fresh = run_filter(traffic_model, observed, 6)
        gains = project(traffic_model, 4)
        first = run_filter(traffic_model, observed, 6, gains=gains)
        second = run_filter(traffic_model, other, 6, gains=gains)
        assert not np.array_equal(second.mean_frames, fresh.mean_frames)
        fresh_var = forecast_variance(traffic_model, fresh.filtered_cov, 6)
        for pred in (first, second):
            np.testing.assert_array_equal(
                forecast_variance(traffic_model, pred.filtered_cov, 6), fresh_var)

    def test_kbit_variance_matches_jacobian_oracle(self, traffic_model):
        # oracle: J, the Jacobian of frames_to_kbit over the (steps x kept)
        # reduced frames, from unit pushes minus the value at zero; for
        # independent frames the kbit variance is (J**2) @ cov_diag
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=79)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        frontend = traffic_model.frontend
        pred = run_filter(traffic_model, frontend.reduce_observations(raw[:4]), 6)
        cov_diag = forecast_variance(traffic_model, pred.filtered_cov, 6)
        steps, kept = cov_diag.shape
        at_zero = frontend.frames_to_kbit(np.zeros((steps, kept)), steps)
        jac = np.empty((at_zero.size, steps * kept))
        for j in range(steps * kept):
            unit = np.zeros(steps * kept)
            unit[j] = 1.0
            jac[:, j] = frontend.frames_to_kbit(unit.reshape(steps, kept), steps) - at_zero
        np.testing.assert_allclose(frontend.kbit_variance(cov_diag),
                                   (jac ** 2) @ cov_diag.ravel(), rtol=1e-9)

    def test_innovation_beats_open_loop(self):
        # filtering the flow's own prefix must beat the prior-only rollout
        # (1-step RMSE over many positions) on >= 90% of the seeded cases
        wins = 0
        trials = 10
        for seed in range(trials):
            x_pred, x_succ, y = _chain_data(m=140, seed=100 + seed)
            model = learn_core(x_pred, x_succ, y, HYPER, subspace_size=140)
            gains = project(model, 40)
            state = model.initial_state()
            filt_sq, open_sq = [], []
            open_state = model.initial_state()
            for i in range(40):
                state = innovation_update(state, y[i], gains, model)
                one_ahead = prediction_update(state, model)
                open_state = prediction_update(open_state, model)
                truth = x_succ[i, :2]  # the observation block
                filt_sq.append(np.sum((reconstruct(one_ahead, model) - truth) ** 2))
                open_sq.append(np.sum((reconstruct(open_state, model) - truth) ** 2))
                state = one_ahead
            wins += np.sqrt(np.mean(filt_sq)) < np.sqrt(np.mean(open_sq))
        assert wins >= 0.9 * trials

    def test_traffic_model_prediction_shape(self, traffic_model):
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=77)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        observed = traffic_model.frontend.reduce_observations(raw[:6])
        pred = run_filter(traffic_model, observed, 20)
        assert pred.mean_kbit.size == 100  # 20 steps * 0.05 s / 0.01 s
        cov_diag = forecast_variance(traffic_model, pred.filtered_cov, 20)
        assert cov_diag.shape == (20, traffic_model.obs_dim)


class TestStagedLearner:
    def test_models_equal_fresh_learn(self):
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=20)
        # revisits each axis after others moved, so every stage is dropped
        # and rebuilt at least once; learn builds every stage afresh
        sequence = [HYPER,
                    dataclasses.replace(HYPER, lambda_o=1e-1),
                    dataclasses.replace(HYPER, lambda_t=1e-1, kappa=1e-2),
                    dataclasses.replace(HYPER, obs_bw_scale=2.0),
                    dataclasses.replace(HYPER, state_bw_scale=2.0, lambda_o=1e-1),
                    HYPER]
        for hyper in sequence:
            staged = learner.model(hyper)
            fresh = learn(flows, hyper, 40, CHUNK, WINDOW, kept_dim=20)
            for name in fkkf._ARRAY_FIELDS:
                assert np.array_equal(getattr(staged, name), getattr(fresh, name)), name
            assert (staged.obs_spec, staged.kappa) == (fresh.obs_spec, fresh.kappa)
            assert np.array_equal(staged.frontend.basis.components,
                                  fresh.frontend.basis.components)
            assert np.array_equal(staged.frontend.standardizer.means,
                                  fresh.frontend.standardizer.means)

    def test_flow_too_short_to_frame_left_out(self):
        flows = generate_group(TEMPLATE, 3, 3.0, 0.01, seed=11)
        short = dataclasses.replace(flows[1], samples=flows[1].samples[:50])
        with pytest.raises(FlowTooShort):
            window_frames(short.samples, CHUNK, WINDOW)
        kept = learn([flows[0], flows[2]], HYPER, 40, CHUNK, WINDOW, kept_dim=20)
        model = learn([flows[0], short, flows[2]], HYPER, 40, CHUNK, WINDOW, kept_dim=20)
        for name in fkkf._ARRAY_FIELDS:
            assert np.array_equal(getattr(model, name), getattr(kept, name)), name
        with pytest.raises(FlowTooShort, match="no training flow can be framed"):
            learn([short, short], HYPER, 40, CHUNK, WINDOW, kept_dim=20)

    def test_first_horizon_shorter_than_chunk_interval_refused_before_framing(
            self, monkeypatch):
        # such a frontend would overlap-average with gaps between its chunks
        # (NaN samples in frames_to_kbit)
        def no_framing(*args):
            raise AssertionError("framed before the window was checked")
        monkeypatch.setattr(fkkf, "window_frames", no_framing)
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=11)
        with pytest.raises(ValueError, match="chunk_length_s must be >= chunk_interval_s"):
            learn(flows, HYPER, 40, CHUNK, StateWindowConfig(horizons_s=(0.04, 0.4)))

    def test_frontend_chunk_length_is_the_observation_window(self):
        # the chunk length handed to learn is not read: the frontend frames
        # observations with the first horizon (CHUNK's 0.2 s)
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=11)
        model = learn(flows, HYPER, 40, dataclasses.replace(CHUNK, chunk_length_s=1.0),
                      WINDOW, kept_dim=20)
        assert model.frontend.chunk_cfg == CHUNK

    def test_nothing_built_before_the_first_model(self):
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW.scaled(5.0))
        with pytest.raises(FlowTooShort):
            learner.model(HYPER)


def _idle_gap_rows(seed=11):
    """(x_pred, x_succ, y) of bursty flows whose idle gaps repeat rows."""
    flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=seed)
    _, x_pred, x_succ, y, _ = fkkf._fit_frontend(flows, CHUNK, WINDOW, 30,
                                                 _InlineExecutor(1))
    return x_pred, x_succ, y


def _rows_learner(x_pred, x_succ, y, subspace_size):
    """A learner on given rows with its rows stage built on this thread."""
    learner = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, subspace_size)
    learner._fit_rows(_InlineExecutor(1))
    return learner


def _kernel_arrays(pred, succ):
    return {"u": pred.solver.u, "s": pred.solver.s, "rw": pred.solver.rw,
            "u_kbar_prime": pred.u_kbar_prime, "rw_kbar_prime": pred.rw_kbar_prime,
            "succ_s": succ.solver.s, "succ_rw": succ.solver.rw, "u_states": succ.u_states}


def _assert_same_models(a, b):
    for name in fkkf._ARRAY_FIELDS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _assert_same_bytes(a, b):
    for name, array in a.items():
        assert np.asarray(array).tobytes() == np.asarray(b[name]).tobytes(), name


def _frontend_arrays(frontend):
    return {"means": frontend.standardizer.means, "stds": frontend.standardizer.stds,
            "components": frontend.basis.components,
            "evr": frontend.basis.explained_variance_ratio}


def _init_arrays(core):
    """Everything StagedLearner's rows stage computes."""
    return {"state_bw": core.state_bw, "obs_bw": core.obs_bw, "idx": core.idx,
            "centres": core.centres, "states": core.states, "pred_col": core.pred_col,
            "succ_col": core.succ_col, "centre_sum": core.centre_sum.toarray()}


class _InlineExecutor:
    """The helper lane on the calling thread: each task runs when submitted."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        done = futures.Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done


class TestConcurrentStateKernel:
    """Learning's two lanes: a helper thread beside the calling thread."""

    @pytest.mark.parametrize("subspace_size", [40, 10 ** 6], ids=["n_lt_m", "n_eq_m"])
    def test_bit_identical_to_a_sequential_build(self, subspace_size):
        x_pred, x_succ, y = _idle_gap_rows()
        assert len(distinct_rows(y)) < len(y)
        core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, subspace_size)
        core.model(HYPER)
        assert (core.idx.size < len(x_pred)) == (subspace_size == 40)
        state = core._state
        # both branches on this thread, one after the other
        sequential = _rows_learner(x_pred, x_succ, y, subspace_size)
        expected = _kernel_arrays(sequential._predecessor_branch(state.spec),
                                  sequential._successor_branch(state.spec))
        _assert_same_bytes(_kernel_arrays(state.pred, state.succ), expected)
        assert state.succ.solver.u is None

    @pytest.mark.parametrize("subspace_size", [40, 10 ** 6], ids=["n_lt_m", "n_eq_m"])
    def test_every_stage_bit_identical_to_a_one_thread_build(self, monkeypatch,
                                                             subspace_size):
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        sequence = [HYPER,                                       # a fresh learner
                    dataclasses.replace(HYPER, lambda_t=1e-1),   # kept state kernel
                    dataclasses.replace(HYPER, lambda_o=1e-1),
                    dataclasses.replace(HYPER, obs_bw_scale=2.0),
                    dataclasses.replace(HYPER, kappa=1e-2)]      # every stage kept

        def build():
            learner = fkkf.StagedLearner(flows, subspace_size, CHUNK, WINDOW, kept_dim=20)
            return learner, [learner.model(hyper) for hyper in sequence]

        learner, models = build()
        with monkeypatch.context() as one_thread:
            one_thread.setattr(fkkf.futures, "ThreadPoolExecutor", _InlineExecutor)
            expected_learner, expected = build()
        assert (learner.idx.size < len(learner.x_pred)) == (subspace_size == 40)
        for got, want in zip(models, expected):
            _assert_same_models(got, want)
            assert (got.obs_spec, got.kappa) == (want.obs_spec, want.kappa)
        _assert_same_bytes(_frontend_arrays(learner.frontend),
                           _frontend_arrays(expected_learner.frontend))
        for name in ("x_pred", "x_succ", "y_train"):
            assert getattr(learner, name).tobytes() == getattr(expected_learner, name).tobytes()
        _assert_same_bytes(_init_arrays(learner), _init_arrays(expected_learner))

    def test_helper_used_once_per_state_scale(self, monkeypatch):
        # a kept state kernel (new kappa, lambdas or obs_bw_scale) builds no
        # predecessor branch
        real = fkkf.StagedLearner._predecessor_branch
        built = []

        def counting(self, spec):
            built.append((spec.scale_factor, threading.get_ident()))
            return real(self, spec)

        monkeypatch.setattr(fkkf.StagedLearner, "_predecessor_branch", counting)
        space = SearchSpace(lambda_t=(1e-2, 1e-1), lambda_o=(1e-2, 1e-1),
                            state_bw_scale=(0.5, 1.0), obs_bw_scale=(0.5, 1.0),
                            kappa=(1e-3, 1e-2))
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=20)
        for hyper in sorted(space.candidates(), key=hyperopt._stage_order):
            learner.model(hyper)
        assert [scale for scale, _ in built] == [0.5, 1.0]
        assert all(ident != threading.get_ident() for _, ident in built)

    @pytest.mark.parametrize("from_rows", [False, True], ids=["learn", "learn_core"])
    def test_fresh_build_starts_one_thread(self, monkeypatch, from_rows):
        # the frontend, rows and state-kernel stages share one helper lane
        x_pred, x_succ, y = _idle_gap_rows()
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = (fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40) if from_rows
                   else fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=30))
        started, real_start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or real_start(thread))
        learner.model(HYPER)
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_kept_stages_start_no_thread(self, monkeypatch):
        x_pred, x_succ, y = _idle_gap_rows()
        core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
        core.model(HYPER)
        started, clipped = [], []
        real_start, real_clip = threading.Thread.start, fkkf._clip_unstable_modes
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or real_start(thread))
        monkeypatch.setattr(fkkf, "_clip_unstable_modes",
                            lambda t: clipped.append(threading.get_ident()) or real_clip(t))
        # every stage kept, then a new observation ridge, then a new obs kernel:
        # nothing for the helper lane
        for hyper in (dataclasses.replace(HYPER, kappa=1e-2),
                      dataclasses.replace(HYPER, lambda_o=1e-1),
                      dataclasses.replace(HYPER, obs_bw_scale=2.0)):
            core.model(hyper)
        assert started == [] and clipped == []
        # a new lambda_t on the kept state kernel: the clip alone on the helper
        monkeypatch.setattr(fkkf.StagedLearner, "_predecessor_branch", None)
        core.model(dataclasses.replace(HYPER, lambda_t=1e-1))
        assert len(started) == 1 and len(clipped) == 1
        assert clipped[0] != threading.get_ident()

    @pytest.mark.parametrize(
        "holder, name, lane",
        [(None, None, None),
         ("StagedLearner", "_predecessor_branch", "helper"),
         ("StagedLearner", "_successor_branch", "caller"),
         ("fkkf", "_clip_unstable_modes", "helper"),
         ("StagedLearner", "_observation_ridge", "caller"),
         ("fkkf", "median_heuristic", "helper"),
         ("fkkf", "_distinct_rows", "caller"),
         ("fkkf", "_reduce_horizon", "helper"),
         ("fkkf", "_reduce_horizon", "caller")],
        ids=["returns", "worker_raises", "caller_raises", "clip_raises",
             "observation_ridge_raises", "init_helper_raises", "init_caller_raises",
             "frontend_helper_raises", "frontend_caller_raises"])
    def test_no_thread_outlives_the_build(self, monkeypatch, holder, name, lane):
        flows = generate_group(TEMPLATE, 4, 3.0, 0.01, seed=11)
        learner = fkkf.StagedLearner(flows, 40, CHUNK, WINDOW, kept_dim=20)
        before = threading.active_count()
        if name is None:
            learner.model(HYPER)
        else:
            owner = fkkf if holder == "fkkf" else fkkf.StagedLearner
            real, caller = getattr(owner, name), threading.get_ident()

            def fail_on_lane(*args):
                if (threading.get_ident() == caller) == (lane == "caller"):
                    raise FloatingPointError(f"{name} on the {lane} lane")
                return real(*args)

            monkeypatch.setattr(owner, name, fail_on_lane)
            with pytest.raises(FloatingPointError, match=f"{name} on the {lane} lane"):
                learner.model(HYPER)
        assert threading.active_count() == before

    def test_learners_on_threads_at_once_give_their_sequential_models(self):
        # more learners than cores, switching threads often; each builds two
        # state kernels while the others build theirs
        scales = (0.5, 1.0)
        rows = [_idle_gap_rows(seed) for seed in (11, 12, 13)]

        def models(x_pred, x_succ, y):
            core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
            return [core.model(dataclasses.replace(HYPER, state_bw_scale=scale))
                    for scale in scales]

        expected = [models(*r) for r in rows]
        got = [None] * len(rows)
        start = threading.Barrier(len(rows))

        def run(i):
            start.wait(timeout=60)
            got[i] = models(*rows[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(rows))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for mine, theirs in zip(got, expected):
            assert mine is not None
            for a, b in zip(mine, theirs):
                _assert_same_models(a, b)

    def test_worker_error_reaches_the_caller_and_keeps_no_stage(self, monkeypatch):
        x_pred, x_succ, y = _idle_gap_rows()
        core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
        before = core.model(HYPER)
        error = FloatingPointError("worker branch")

        def fail(self, spec):
            raise error

        monkeypatch.setattr(fkkf.StagedLearner, "_predecessor_branch", fail)
        with pytest.raises(FloatingPointError) as caught:
            core.model(dataclasses.replace(HYPER, state_bw_scale=1.0))
        assert caught.value is error
        assert core._state is None
        assert core._transition == {} and core._observation == {}
        monkeypatch.undo()
        _assert_same_models(core.model(HYPER), before)

    def test_clip_error_reaches_the_caller_after_both_lanes_and_keeps_no_stage(
            self, monkeypatch):
        x_pred, x_succ, y = _idle_gap_rows()
        core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
        before = core.model(HYPER)
        kept = (core._state, core._obs)
        error = FloatingPointError("clip task")
        events = []
        real_ridge = fkkf.StagedLearner._observation_ridge

        def ridge(self, *args):
            result = real_ridge(self, *args)
            events.append("observation ridge")
            return result

        def fail(t_sub):
            time.sleep(0.2)  # the caller's lane reaches the join first
            events.append("clip raises")
            raise error

        monkeypatch.setattr(fkkf.StagedLearner, "_observation_ridge", ridge)
        monkeypatch.setattr(fkkf, "_clip_unstable_modes", fail)
        threads = threading.active_count()
        changed = dataclasses.replace(HYPER, lambda_t=1e-1, lambda_o=1e-1)
        with pytest.raises(FloatingPointError) as caught:
            core.model(changed)
        assert caught.value is error
        assert events == ["observation ridge", "clip raises"]
        assert threading.active_count() == threads
        # neither new ridge solution is kept; the kernels they read stay
        assert list(core._transition) == [HYPER.lambda_t]
        assert list(core._observation) == [HYPER.lambda_o]
        assert core._state is kept[0] and core._obs is kept[1]
        # on a fresh learner nothing at all is kept
        fresh = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
        with pytest.raises(FloatingPointError) as caught:
            fresh.model(changed)
        assert caught.value is error
        assert fresh._state is None and fresh._obs is None
        assert fresh._transition == {} and fresh._observation == {}
        monkeypatch.undo()
        _assert_same_models(core.model(HYPER), before)
        _assert_same_models(core.model(changed), fresh.model(changed))

    def test_caller_error_raised_after_the_worker_branch_ends(self, monkeypatch):
        x_pred, x_succ, y = _idle_gap_rows()
        core = fkkf.StagedLearner._on_rows(x_pred, x_succ, y, 40)
        real = fkkf.StagedLearner._predecessor_branch
        ended = threading.Event()

        def slow(self, spec):
            time.sleep(0.2)
            result = real(self, spec)
            ended.set()
            return result

        def fail(self, spec):
            raise FloatingPointError("caller branch")

        monkeypatch.setattr(fkkf.StagedLearner, "_predecessor_branch", slow)
        monkeypatch.setattr(fkkf.StagedLearner, "_successor_branch", fail)
        with pytest.raises(FloatingPointError, match="caller branch"):
            core.model(HYPER)
        assert ended.is_set()
        assert core._state is None

    def test_forked_child_learns(self):
        # the parent has built a state kernel before the fork; the child
        # builds its own with a helper thread of its own
        x_pred, x_succ, y = _idle_gap_rows()
        parent = learn_core(x_pred, x_succ, y, HYPER, 40)
        queue = multiprocessing.get_context("fork").SimpleQueue()

        def child():
            queue.put(learn_core(x_pred, x_succ, y, HYPER, 40).t_sub.tobytes())

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
        assert process.exitcode == 0
        assert queue.get() == parent.t_sub.tobytes()


class TestSerialization:
    def test_roundtrip_bit_exact(self, traffic_model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        loaded = load_model(path)
        for name in fkkf._ARRAY_FIELDS:
            a, b = getattr(loaded, name), getattr(traffic_model, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert loaded.kappa == traffic_model.kappa
        assert loaded.obs_spec == traffic_model.obs_spec
        fe_a, fe_b = loaded.frontend, traffic_model.frontend
        assert fe_a.chunk_cfg == fe_b.chunk_cfg
        for part in ("means", "stds"):
            np.testing.assert_array_equal(getattr(fe_a.standardizer, part),
                                          getattr(fe_b.standardizer, part))
        for part in ("components", "explained_variance_ratio"):
            np.testing.assert_array_equal(getattr(fe_a.basis, part),
                                          getattr(fe_b.basis, part))

    def test_file_holds_only_the_observation_block(self, traffic_model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        with np.load(path) as data:
            names = sorted(data.files)
            meta = json.loads(data["meta_json"].tobytes())
        blocks = tuple(f"block0_{part}" for part in ("means", "stds", "components", "evr"))
        assert names == sorted(fkkf._ARRAY_FIELDS + blocks + ("meta_json",))
        # what filtering reads: no state kernel, no hyperparameter but
        # kappa, the observation window only as the chunk length
        assert sorted(meta) == ["chunk_cfg", "format_version", "has_frontend",
                                "kappa", "obs_spec"]
        assert meta["format_version"] == 6
        assert meta["kappa"] == HYPER.kappa
        assert meta["chunk_cfg"] == [0.01, 0.05, WINDOW.horizons_s[0]]

    def test_symmetric_matrices_stored_as_one_triangle(self, traffic_model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        n = traffic_model.subspace_size
        upper = np.triu_indices(n)
        with np.load(path) as data:
            for name in ("ogo", "v", "p1_prior"):
                assert data[name].shape == (n * (n + 1) // 2,), name
                np.testing.assert_array_equal(data[name],
                                              getattr(traffic_model, name)[upper])
            assert data["t_sub"].shape == (n, n)

    def test_asymmetric_matrix_refused_on_save(self, core_model, tmp_path):
        v = core_model.v.copy()
        v[0, 1] = np.nextafter(v[0, 1], np.inf)
        path = tmp_path / "core.npz"
        with pytest.raises(ValueError, match="v is not exactly symmetric"):
            save_model(dataclasses.replace(core_model, v=v), path)
        assert not path.exists()

    def test_filter_results_identical_after_reload(self, traffic_model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        loaded = load_model(path)
        flows = generate_group(TEMPLATE, 2, 3.0, 0.01, seed=78)
        raw = observation_frames(flows[0].samples, CHUNK, 0.2)
        observed = traffic_model.frontend.reduce_observations(raw[:5])
        a = run_filter(traffic_model, observed, 10)
        b = run_filter(loaded, observed, 10)
        np.testing.assert_array_equal(a.mean_kbit, b.mean_kbit)

    def test_core_model_roundtrip(self, core_model, tmp_path):
        path = tmp_path / "core.npz"
        save_model(core_model, path)
        loaded = load_model(path)
        assert loaded.frontend is None
        np.testing.assert_array_equal(loaded.t_sub, core_model.t_sub)

    def test_no_mxm_array_in_file(self, tmp_path):
        x_pred, x_succ, y = _chain_data()
        model = learn_core(x_pred, x_succ, y, HYPER, subspace_size=40)
        path = tmp_path / "core.npz"
        save_model(model, path)
        with np.load(path) as data:
            shapes = {name: data[name].shape for name in data.files}
        assert sorted(shapes) == sorted(fkkf._ARRAY_FIELDS + ("meta_json",))
        m = len(x_pred)
        assert all(shape.count(m) < 2 for shape in shapes.values()), shapes
        # the training states and successors are not stored
        assert (m, x_pred.shape[1]) not in shapes.values(), shapes

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays: arrays.update(meta_json=_meta_with_version(arrays, 1)),
         "format version 1"),
        (lambda arrays: arrays.update(meta_json=_meta_with_version(arrays, 2)),
         "format version 2"),
        (lambda arrays: arrays.update(meta_json=_meta_with_version(arrays, 3)),
         "format version 3"),
        (lambda arrays: arrays.update(meta_json=_meta_with_version(arrays, 4)),
         "format version 4"),
        (lambda arrays: arrays.update(meta_json=_meta_with_version(arrays, 5)),
         "format version 5"),
        *((lambda arrays, k=kappa: arrays.update(meta_json=_edited_meta(arrays, kappa=k)),
           f"kappa {kappa!r} is not positive and finite")
          for kappa in (0.0, -1.0, np.nan, np.inf)),
        (lambda arrays: arrays.update(o_sub=arrays["o_sub"][:-1]), "array o_sub"),
        (lambda arrays: arrays.update(ogo=arrays["ogo"][:-1]), "array ogo"),
        (lambda arrays: arrays.update(p1_prior=np.eye(arrays["t_sub"].shape[0])),
         "array p1_prior"),
        (lambda arrays: arrays.update(xo=arrays["xo"].T), "array xo"),
        (lambda arrays: arrays["t_sub"].__setitem__((0, 0), np.nan),
         "array t_sub holds a non-finite value"),
    ])
    def test_refused_with_one_line(self, core_model, tmp_path, edit, message):
        path = tmp_path / "core.npz"
        save_model(core_model, path)
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ModelFileError, match=message) as info:
            load_model(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("name, value", [
        (name, (np.nan, -np.inf)[i % 2]) for i, name in enumerate(fkkf._ARRAY_FIELDS + (
            "block0_means", "block0_stds", "block0_components", "block0_evr"))])
    def test_non_finite_array_refused(self, traffic_model, tmp_path, name, value):
        # a NaN once crashed inside the kernel code or gave a NaN forecast
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name].flat[0] = value
        np.savez(path, **arrays)
        with pytest.raises(ModelFileError,
                           match=f"array {name} holds a non-finite value") as info:
            load_model(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("name", ["block0_means", "block0_stds", "block0_evr"])
    def test_pca_block_arrays_disagreeing_with_each_other_refused(
            self, traffic_model, tmp_path, name):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = arrays[name][:-1]
        np.savez(path, **arrays)
        with pytest.raises(ModelFileError, match="PCA block arrays disagree") as info:
            load_model(path)
        assert "\n" not in str(info.value)

    def test_pca_blocks_disagreeing_with_arrays_refused(self, traffic_model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(traffic_model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["block0_components"] = arrays["block0_components"][:, :-1]
        np.savez(path, **arrays)
        with pytest.raises(ModelFileError, match="PCA blocks disagree"):
            load_model(path)


def _edited_meta(arrays, **changes):
    meta = json.loads(arrays["meta_json"].tobytes().decode())
    meta.update(changes)
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def _meta_with_version(arrays, version):
    return _edited_meta(arrays, format_version=version)
