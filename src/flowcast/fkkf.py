"""Sub-space kernel Kalman filter: learning, gain projection, filtering.

The filter tracks a belief over a hidden flow state whose mean and
covariance are embedded in a Gaussian-kernel feature space.  With m
training transition pairs (x_t -> x'_t, each with an aligned
observation y_t) the belief is represented by finite coordinates over
the feature maps of n <= m inducing pairs:

    mean coordinates  n_t in R^n,   covariance coordinates P_t in R^(n x n).

Updates are linear in these coordinates:

    prediction:  n-_{t+1} = T n_t,            P-_{t+1} = kappa Y_t' Y_t + V,  Y_t = Z_t T'
    gain:        W_t = Z_t' Z_t = (P-_t M + kappa I_n)^-1 P-_t,    M = O' G_yy O
    innovation:  n_t = n-_t + Z_t' Z_t (O' k_y - M n-_t)
    posterior:   P_t = kappa Z_t' Z_t
    readout:     mu_t = C n_t,                 C = (X O)[:q]
    forecast:    mu_k = C T^k n_t,             var_k = rowsum((A_k L_P)^2)
                 A_k = C T^k                     + sum_{j<k} rowsum((A_j L_V)^2)

where G_yy is the m x m Gram of the training observations, k_y the
kernel responses of the incoming observation against them, X the d x m
matrix of training state vectors, T the n x n transition model and O the
m x n observation model.  The first q rows of X are the observation
block, the only part of the state that is read out, so the model keeps
only C, the q readout rows of X O.  Idle stretches of bursty flows
repeat observation windows exactly, so the m training observations hold
only c distinct rows u, the kernel centres.  The response is taken over
them, O' k_y = sum_i O[i] k(y_i, y) = sum_u Obar[u] k(u, y), where
Obar[u] sums the rows of O whose observation is u; the model keeps the
c centres and the c x n Obar.  M is formed over them too: G_yy[i, j] =
G_cc[u(i), u(j)] for the c x c Gram G_cc of the centres, so
M = Obar' G_cc Obar exactly.  T and C come from the full m-row O, and V
and the prior from the coordinates of the training states, computed once
per distinct state.  The Kalman gain of the m-dimensional
innovation, Q_t = P-_t O' (G_yy O P-_t O' + kappa I_m)^-1, equals W_t O'
by the push-through identity, so every per-step quantity is n x n and
G_yy enters only through M, formed once at learning time.
The gain is kept in square-root form (Bierman's factored Kalman filter):
from a factor P-_t = L L' (Cholesky, or an eigendecomposition with
negative roundoff eigenvalues clamped to zero where Cholesky fails) and
the Cholesky factor C of L' M L + kappa I_n, the gain root is
Z_t = C^-1 L', and W_t = Z_t' Z_t.  W_t, the posterior kappa W_t and the
next prior kappa Y_t' Y_t + V are Gram matrices plus V, positive
semi-definite by construction; kappa W_t is the textbook posterior
without its cancelling subtraction.  Only Z_t is kept: the posterior is
formed as kappa Z_t' Z_t where it is read, by Prediction.filtered_cov,
and the next prior from Y_t = Z_t T' with one symmetric rank-k update.
Gains never depend on observed values, so project steps them once per
model ahead of filtering, as the tuple (Z_0, ..., Z_{k-1}).  The filter
moves only the mean, in whole-array products: run_filter takes the
responses O' k_y of all observed frames from one product of Obar with
their stacked kernel vectors, steps each innovation on the mean alone
(innovation_update is its one-frame case, on the same helpers), fills
one row of coordinates T^j n per forecast step and reads every row out
with one product through C.  forecast_variance
computes the variance diagonal from factors L_P, L_V of the filtered
posterior and V, stepping only the q x n rows A_k, never the n x n
covariance.  Each variance is a sum of squares, non-negative by
construction.
SpectralFrontend maps the forecast mean back to kbit with the inverse
framing of spectral.py (frames_to_kbit) and its variance through the
linear part of that same map (kbit_variance); the lookahead states and
observations are framed with spectral.forward_frames.

T and O are ridge regressions restricted to the inducing subspace but
estimated from all m pairs.  The subspace solve uses the Gram of the
inducing points as the ridge metric,

    D(lam) = (Kbar' Kbar + lam K_nn)^-1 Kbar',

which makes the n = m case algebraically identical to the full-sample
recursion with T = (K_xx + lam I_m)^-1 K_xx' (and likewise O); the
restriction is therefore exact when no subsampling happens.  D(lam) is
never formed: the SVD of the whitened Kbar gives it as an n x n factor
times U', and each stage keeps U' times the Gram D(lam) is applied to.

Learning runs in stages, each depending only on the hyperparameters
named with it:

    1. frontend      framing, standardize + PCA and the reduced training
                     pairs (no hyperparameter)
    2. rows          both median-heuristic bandwidths, the inducing
                     indices, the kernel centres and the distinct states
                     (no hyperparameter)
    3. state kernel  two m x n Grams and the m x s Gram of the
                     successors against the s distinct states, both
                     subspace SVDs and their U' products (state_bw_scale),
                     in two branches: the predecessors' and the successors'
    4. obs kernel    G_cc over the c centres (obs_bw_scale)
    5. ridge         T, V and the prior per lambda_t (n x n x s products
                     and the mode clip); O, Obar, M and the readout rows C
                     per lambda_o (one m x n x n product)
    6. gains         project (the gain roots Z_t) and run_filter (kappa)

StagedLearner keeps each of stages 1-5 while its inputs stay the same,
so a hyperparameter search over one training set rebuilds only what the
changed hyperparameter invalidates; learn is one model() call on a new
StagedLearner, learn_core one on a learner whose stage 1 is the given
rows.

Stages 1-5 run as one schedule of two lanes, set by what each stage
reads (StagedLearner lists them): one helper thread per build reduces
the longest horizon, finds the states' bandwidth, then makes the
predecessor branch, T from it alone and T's mode clip, while the calling
thread makes the rest.  V reads the clipped T and the state coordinates,
so it follows the join.  A kept stage is read where the lane would have
built it, so a call whose stages are all kept starts no thread.  Each
lane makes the calls of a one-thread build in the same order, so every
array is bit-identical to one at a given BLAS thread count, and the
helper thread does not outlive the build that started it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zipfile
import zlib
from concurrent import futures
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import reduction, spectral
from .errors import (BadDimension, FlowTooShort, InsufficientData,
                     ModelFileError, NumericalFailure)
from .kernelcore import (DEFAULT_SUBSET_SIZE, KernelSpec, gram, kernel_vector,
                         median_heuristic)
from .reduction import PcaBasis, Standardizer
from .spectral import ChunkConfig

MODEL_FORMAT_VERSION = 6

_COV_JITTER = 1e-8
_EIG_FLOOR = 1e-14  # relative floor when whitening the inducing Gram


@dataclass(frozen=True)
class FkkfHyperparams:
    lambda_t: float = 1e-3
    lambda_o: float = 1e-3
    state_bw_scale: float = 1.0
    obs_bw_scale: float = 1.0
    kappa: float = 1e-3

    def __post_init__(self):
        for name in ("lambda_t", "lambda_o", "state_bw_scale", "obs_bw_scale", "kappa"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def as_tuple(self):
        return (self.lambda_t, self.lambda_o, self.state_bw_scale,
                self.obs_bw_scale, self.kappa)


@dataclass(frozen=True)
class StateWindowConfig:
    """Lookahead windows whose spectra form the hidden state.

    The state at chunk index t concatenates the spectra of the next
    horizons_s[0], horizons_s[1], ... seconds of signal; the observation
    is the first-horizon spectrum alone.
    """

    horizons_s: tuple = (1.0, 2.0, 3.0)

    def __post_init__(self):
        horizons = tuple(float(h) for h in self.horizons_s)
        object.__setattr__(self, "horizons_s", horizons)
        if not horizons or any(h <= 0 for h in horizons):
            raise ValueError("horizons_s must be positive")
        if list(horizons) != sorted(horizons):
            raise ValueError("horizons_s must be ascending")

    def scaled(self, base_s: float) -> "StateWindowConfig":
        """The same horizon pattern anchored at a different base length."""
        ratio = base_s / self.horizons_s[0]
        return StateWindowConfig(horizons_s=tuple(h * ratio for h in self.horizons_s))


@dataclass
class FilterState:
    """Belief mean coordinates at one filter step.

    The prior at step t takes the t-th projected gain root and its
    posterior keeps step t.  The covariances are not stepped here: they do
    not depend on observations, and the posterior of step t is
    kappa Z_t' Z_t from project's gain roots.
    """

    n_t: np.ndarray
    step: int = 0


@dataclass
class Prediction:
    """Multi-step forecast after filtering an observed prefix.

    filtered_root is the gain root Z of the last observed step, the array
    project returned, not a copy; the posterior it stands for is formed
    only when filtered_cov is read.
    """

    mean_frames: np.ndarray    # (steps, obs_dim) predicted reduced observations
    mean_kbit: np.ndarray      # reassembled time-domain forecast (empty without frontend)
    filtered_state: FilterState
    filtered_root: np.ndarray  # (n, n) gain root Z of the last observed step
    kappa: float

    @property
    def filtered_cov(self) -> np.ndarray:
        """(n, n) posterior kappa Z'Z of the last observed step, formed here."""
        z = self.filtered_root
        return self.kappa * (z.T @ z)


# ---------------------------------------------------------------------------
# preprocessing frontend
# ---------------------------------------------------------------------------


@dataclass
class SpectralFrontend:
    """Training-fitted transforms between kbit space and reduced frame space.

    chunk_cfg's chunk length is the observation window, the first
    lookahead horizon; its chunk interval is the filter's step.  Only the
    observation block's standardizer and PCA basis are kept; the longer
    horizons' reducers shape the training states alone.
    """

    chunk_cfg: ChunkConfig
    standardizer: Standardizer
    basis: PcaBasis

    @property
    def obs_dim(self) -> int:
        return self.basis.kept_dim

    def reduce_observations(self, raw_frames: np.ndarray) -> np.ndarray:
        return reduction.project(self.basis, self.standardizer, raw_frames)

    def frames_to_kbit(self, reduced_frames: np.ndarray, n_steps: int) -> np.ndarray:
        """Inverse PCA -> de-standardize -> inverse STFT -> overlap-average."""
        raw = reduction.inverse_project(self.basis, self.standardizer, reduced_frames)
        return spectral.reassemble(raw, self.chunk_cfg, n_steps * self.chunk_cfg.hop_samples)

    def kbit_variance(self, cov_diag: np.ndarray) -> np.ndarray:
        """Per-sample variance of frames_to_kbit for independent reduced frames.

        cov_diag holds one row of reduced-frame variances per forecast
        step.  The linear part of frames_to_kbit maps frame i to chunk i
        through lift = inverse STFT * std scales @ PCA components, so
        chunk i has variance (lift**2) @ cov_diag[i]; overlap_variance
        then averages the chunks with the weights of the mean.
        Cross-chunk covariance is ignored.
        """
        if cov_diag.shape[0] == 0:
            return np.empty(0)
        std, basis, cfg = self.standardizer, self.basis, self.chunk_cfg
        unit_chunks = spectral.inverse_frames(np.eye(basis.original_dim), cfg.chunk_samples)
        lift = (unit_chunks.T * std.scales()[None, :]) @ basis.components  # (width, kept)
        chunk_var = (lift[None, :, :] ** 2 * cov_diag[:, None, :]).sum(axis=2)
        hop = cfg.hop_samples
        return spectral.overlap_variance(chunk_var, hop, cov_diag.shape[0] * hop)


def window_frames(series: np.ndarray, chunk_cfg: ChunkConfig,
                  window_cfg: StateWindowConfig) -> list:
    """Raw lookahead spectra, one matrix per horizon, aligned by chunk index.

    Index t covers samples [t*hop, t*hop + horizon).  N samples give the
    rows t = 0 .. floor((N - H_max) / hop) - 1: every index whose largest-
    horizon window fits but the last, which observation_frames keeps (10 s
    at a 0.05 s hop with H_max = 3 s: 141 windows fit, 140 rows).
    """
    series = np.asarray(series, dtype=float).ravel()
    hop = chunk_cfg.hop_samples
    widths = [spectral.whole_multiple(h, chunk_cfg.sample_interval_s, "horizon_s")
              for h in window_cfg.horizons_s]
    h_max = max(widths)
    count = (series.size - h_max) // hop
    if count < 1:
        raise FlowTooShort(
            f"series of {series.size} samples cannot cover a {h_max}-sample lookahead")
    return [spectral.forward_frames(series, width, hop, count) for width in widths]


def observation_frames(series: np.ndarray, chunk_cfg: ChunkConfig,
                       horizon_s: float) -> np.ndarray:
    """Raw observation spectra at every chunk index whose window fits."""
    series = np.asarray(series, dtype=float).ravel()
    hop = chunk_cfg.hop_samples
    width = spectral.whole_multiple(horizon_s, chunk_cfg.sample_interval_s, "horizon_s")
    if series.size < width:
        raise FlowTooShort(f"series of {series.size} samples shorter than one window")
    count = (series.size - width) // hop + 1
    return spectral.forward_frames(series, width, hop, count)


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _clip_unstable_modes(t_sub: np.ndarray) -> np.ndarray:
    """Rescale eigenvalues of the transition model onto the unit disk.

    With n < m inducing pairs the subspace regression can admit spurious
    modes with |eigenvalue| > 1 that make open-loop multi-step rollouts
    diverge.  Modes inside the unit disk are left untouched, and a
    matrix whose spectral radius is already <= 1 is returned unchanged
    (bit-identical), which keeps the n = m case exactly equivalent to
    the full-sample recursion.
    """
    evals, evecs = np.linalg.eig(t_sub)
    magnitude = np.abs(evals)
    rho = magnitude.max()
    if rho <= 1.0 + 1e-9:
        return t_sub
    clipped = evals * np.minimum(1.0, 1.0 / magnitude)
    try:
        # V diag(c) V^-1 = X solves X V = V diag(c), i.e. V' X' = (V diag(c))';
        # the real view of the complex result is strided, so copy it for a
        # contiguous operand in the per-step hot path
        scaled = evecs * clipped
        return np.ascontiguousarray(np.real(np.linalg.solve(evecs.T, scaled.T).T))
    except np.linalg.LinAlgError:
        return t_sub / rho


@dataclass
class _SubspaceSolver:
    """Factors of the ridge operator shared by the transition and observation
    regressions.

    Whitening the inducing Gram, R = K_nn^-1/2, and taking the SVD of the
    m x n whitened cross-Gram Kbar R = U diag(s) W' gives

        D(lam) = (Kbar' Kbar + lam K_nn)^-1 Kbar' = weights(lam) U',
        weights(lam) = R W diag(s / (s^2 + lam)),

    without ever forming the squared system, whose conditioning is the
    square of Kbar R's.  D(lam) itself (n x m) is never formed: callers
    keep U' times what it is applied to, an n-row product, so a new lam
    costs an n x n scaling and one product with it.
    """

    u: np.ndarray | None    # (m, n) U; None once a caller has read what it needs
    s: np.ndarray           # (n,) singular values of Kbar R
    rw: np.ndarray          # (n, n) R W

    @classmethod
    def of_gram(cls, kbar: np.ndarray, idx: np.ndarray) -> "_SubspaceSolver":
        """The solver of the m x n Gram Kbar, whose rows idx are K_nn.

        K_nn's eigenvalues are floored before R is formed.  Kbar is let go
        before the SVD, so a caller that passes it without keeping a
        reference never holds it beside the SVD's workspace.
        """
        evals, evecs = np.linalg.eigh(_sym(kbar[idx]))
        floor = max(evals.max(), 0.0) * _EIG_FLOOR + 1e-300
        evals = np.maximum(evals, floor)
        root_inv = (evecs * (evals ** -0.5)) @ evecs.T
        whitened = kbar @ root_inv
        del kbar
        u, s, wt = np.linalg.svd(whitened, full_matrices=False)
        return cls(u=u, s=s, rw=root_inv @ wt.T)

    def filt(self, lam: float) -> np.ndarray:
        """The ridge filter s / (s^2 + lam) on the singular values."""
        return self.s / (self.s ** 2 + lam)

    def weights(self, lam: float) -> np.ndarray:
        """R W diag(filt(lam)), n x n: D(lam) = weights(lam) U'."""
        return self.rw * self.filt(lam)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass
class FkkfModel:
    """Learned sub-space filter model: what filtering reads.  Immutable."""

    y_train: np.ndarray   # (c, q) distinct training observations, the centres of k_y
    t_sub: np.ndarray     # (n, n) transition model
    o_sub: np.ndarray     # (c, n) observation model rows summed per centre (Obar)
    ogo: np.ndarray       # (n, n) cached O' G_yy O
    xo: np.ndarray        # (q, n) readout rows (X O)[:q] of the observation block
    v: np.ndarray         # (n, n) transition noise covariance
    n1_prior: np.ndarray  # (n,) initial a-priori mean coordinates
    p1_prior: np.ndarray  # (n, n) initial a-priori covariance
    obs_spec: KernelSpec
    kappa: float          # the gain's regularizer; the other hyperparameters are baked in
    frontend: SpectralFrontend | None = None

    @property
    def n_centres(self) -> int:
        return self.y_train.shape[0]

    @property
    def subspace_size(self) -> int:
        return self.t_sub.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.y_train.shape[1]

    def initial_state(self) -> FilterState:
        return FilterState(n_t=self.n1_prior.copy(), step=0)


def _subspace_stride_indices(m: int, requested: int) -> np.ndarray:
    """Every ceil(m/n)-th time-ordered pair; covers all flows, deterministic.

    `requested` is a cap: the stride keeps ceil(m / ceil(m/n)) pairs, which
    can fall well short of it (120 requested of 492 pairs gives 99).
    """
    stride = max(1, math.ceil(m / requested))
    return np.arange(0, m, stride)


def _distinct_rows(rows: np.ndarray) -> tuple:
    """The bit-for-bit distinct rows, in first-occurrence order.

    Returns (first, centre_of): the index of each distinct row's first
    occurrence, ascending, and for every row the position in `first` of
    the row equal to it.  Rows are compared as raw bytes, so 0.0 and -0.0
    differ and equal rows always share a centre.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def _resolved(value) -> futures.Future:
    """A finished future holding a kept stage, read like one being built."""
    done = futures.Future()
    done.set_result(value)
    return done


@dataclass
class _PredecessorBranch:
    """The state kernel's half built from K(x_pred, inducing predecessors).

    Its solver's U makes O; T and O read nothing else of the state kernel.
    """

    solver: _SubspaceSolver     # of K(x_pred, inducing predecessors)
    u_kbar_prime: np.ndarray    # (n, n) U' K(x_pred, inducing successors)
    rw_kbar_prime: np.ndarray   # (n, n) (R W)' K(inducing predecessors, inducing successors)

    def transition(self, lam: float) -> np.ndarray:
        """T = D(lam) K(x_pred, inducing successors), before the mode clip."""
        return self.solver.weights(lam) @ self.u_kbar_prime

    def observation(self, lam: float) -> np.ndarray:
        """(m, n) O = D(lam)' K(inducing predecessors, inducing successors)."""
        return self.solver.u @ (self.solver.filt(lam)[:, None] * self.rw_kbar_prime)


@dataclass
class _SuccessorBranch:
    """The state kernel's half built from K(x_succ, distinct states)."""

    solver: _SubspaceSolver     # of K(x_succ, inducing successors), U released
    u_states: np.ndarray        # (n, s) U_succ' K(x_succ, distinct states)

    def state_coordinates(self, lam: float) -> np.ndarray:
        """(n, s) coordinates D_succ(lam) K(x_succ, states) of the distinct states."""
        return self.solver.weights(lam) @ self.u_states


@dataclass
class _StateKernel:
    """Everything learning needs from the state kernel at one bandwidth scale.

    Two m x n Grams, K(x_pred, inducing predecessors) and K(x_pred,
    inducing successors), and the m x s Gram K(x_succ, states) of the
    successors against the s distinct rows among the 2m predecessors and
    successors are built per scale; the successors' Gram against the
    inducing successors, which the coordinate solver factorizes, is a
    column selection of the last.  Only the solvers' factors and the
    products of their U' with these Grams are kept: every ridge solution
    per lambda is then an n-row product (see _SubspaceSolver).  The
    training coordinates of V and the prior are those of the s distinct
    states, whose columns StagedLearner.pred_col and succ_col select.
    """

    spec: KernelSpec
    pred: _PredecessorBranch
    succ: _SuccessorBranch


def _clipped_transition(pred: futures.Future, lam: float) -> np.ndarray:
    """The helper lane's last task: T from the predecessor branch, mode-clipped."""
    return _clip_unstable_modes(pred.result().transition(lam))


class StagedLearner:
    """learn() on one set of training flows for many hyperparameter sets.

    model(hyper) returns the model learn(train_flows, hyper, ...) returns,
    array for array, but builds each stage only once for the inputs it
    depends on and keeps it while they stay the same:

        frontend       framing, standardize + PCA,       (none)
                       pairs x_pred, x_succ, y_train
        rows           both bandwidths, the inducing    (none)
                       idx, the centres with centre_sum,
                       the states with pred_col, succ_col
        state kernel   two m x n Grams, the m x s        state_bw_scale
                       K(x_succ, states), both subspace
                       SVDs, U' times the Grams
        obs kernel     G_cc over the c centres          obs_bw_scale
        transition     T (mode-clipped), V, prior      state kernel, lambda_t
        observation    O, Obar (O summed per centre),  both kernels, lambda_o
                       M = Obar' G_cc Obar, (X O)[:q]

    Nothing is computed before the first model() call, so a caller that
    times model() sees every stage it triggers.  train_flows and settings
    record what the learner was built from; left_out, filled with the
    frontend stage, holds the training flows too short to frame, which no
    stage sees.  learn_core's learner starts with its frontend stage kept:
    the given rows and no frontend.

    Idle stretches repeat rows exactly, so c and s fall well short of m
    and 2m, and with n < m no stage holds an m x m array: M = O' G_yy O
    equals Obar' G_cc Obar because G_yy[i, j] = G_cc[u(i), u(j)], and
    each distinct state's coordinates are computed once, then selected
    per pair.

    model() builds what is missing as one schedule of two lanes, set by
    what each stage reads:

        helper lane   longest horizon's reducer; states' bandwidth;
                      predecessor branch -> T -> mode clip
        caller lane   shorter horizons' reducers; observations'
                      bandwidth and both distinct-row maps; successor
                      branch -> G_cc -> observation ridge (predecessor
                      branch, G_cc) -> state coordinates, n1, P1
        after join    V (clipped T, coordinates)

    The helper is the one one-worker executor opened for the call, which
    runs its tasks in order and starts its thread on the first task: a
    fresh build starts one thread.  A kept stage enters the schedule as a
    finished future or value, so a kept state kernel with a new lambda_t
    sends only the clip to the helper, and a call that finds every stage
    kept (a new kappa) starts no thread.  Each lane makes the calls of a
    one-thread build in the same order, so every array is bit-identical
    to one at a given BLAS thread count; each branch drops its m x n Gram
    before its SVD, so the two SVDs overlap without both Grams held.  The
    frontend and rows stages are kept once both their parts have ended;
    kernels and ridge solutions only once both lanes have ended without
    error.  An error in either lane reaches the caller as raised, after
    the join, with no kernel or ridge solution kept and no thread left
    running.

    One kernel of each kind is kept.  Asking for another bandwidth scale
    drops the kept kernel and every ridge solution built on it before the
    new one is built, so what is held grows with the number of ridge
    weights, never with the number of bandwidth scales.  The SVDs in
    _SubspaceSolver give D(lam) for every lam, so a new ridge weight costs
    products, not a factorization: n^2 s and the mode clip per lambda_t,
    m n^2 per lambda_o.
    """

    def __init__(self, train_flows, subspace_size: int, chunk_cfg: ChunkConfig,
                 window_cfg: StateWindowConfig, kept_dim: int = 80,
                 bandwidth_seed: int = 0):
        self.train_flows = tuple(train_flows)
        self.settings = (subspace_size, chunk_cfg, window_cfg, kept_dim, bandwidth_seed)
        self.left_out: tuple = ()
        self.frontend: SpectralFrontend | None = None
        # the frontend stage's pairs and the rows stage's idx: None until kept
        self.x_pred = self.x_succ = self.y_train = None
        self.idx: np.ndarray | None = None
        self._state: _StateKernel | None = None
        self._obs: tuple | None = None          # (obs KernelSpec, G_cc)
        self._transition: dict = {}             # lambda_t -> (T, V, n1, P1)
        self._observation: dict = {}            # lambda_o -> (Obar, M, X O)

    @classmethod
    def _on_rows(cls, x_pred, x_succ, y_train, subspace_size: int,
                 bandwidth_seed: int = 0) -> "StagedLearner":
        """learn_core's learner: the frontend stage kept as the given rows."""
        learner = cls((), subspace_size, None, None, bandwidth_seed=bandwidth_seed)
        learner.x_pred, learner.x_succ, learner.y_train = x_pred, x_succ, y_train
        return learner

    def model(self, hyper: FkkfHyperparams) -> FkkfModel:
        lam_t, lam_o = hyper.lambda_t, hyper.lambda_o
        # leaving the block joins the helper, also when the caller's lane raises
        with futures.ThreadPoolExecutor(max_workers=1) as helper:
            if self.x_pred is None:
                _, chunk_cfg, window_cfg, kept_dim, _ = self.settings
                (self.frontend, self.x_pred, self.x_succ, self.y_train,
                 self.left_out) = _fit_frontend(list(self.train_flows), chunk_cfg,
                                                window_cfg, kept_dim, helper)
            if self.idx is None:
                self._fit_rows(helper)
            state_spec = KernelSpec(bandwidth=self.state_bw,
                                    scale_factor=hyper.state_bw_scale)
            obs_spec = KernelSpec(bandwidth=self.obs_bw, scale_factor=hyper.obs_bw_scale)
            # a kernel at another scale goes, with every ridge solution on it,
            # before anything new is built
            if self._state is not None and self._state.spec != state_spec:
                self._state = None
                self._transition.clear()
                self._observation.clear()
            if self._obs is not None and self._obs[0] != obs_spec:
                self._obs = None
                self._observation.clear()
            state, obs = self._state, self._obs
            transition = self._transition.get(lam_t)
            observation = self._observation.get(lam_o)
            pred = (helper.submit(self._predecessor_branch, state_spec) if state is None
                    else _resolved(state.pred))
            if transition is None:
                clipped = helper.submit(_clipped_transition, pred, lam_t)
            succ = self._successor_branch(state_spec) if state is None else state.succ
            if obs is None:
                obs = (obs_spec, gram(self.centres, self.centres, obs_spec))
            if observation is None:
                observation = self._observation_ridge(pred.result(), obs[1], lam_o)
            if transition is None:
                transition = self._transition_ridge(succ, clipped, lam_t)
            if state is None:
                state = _StateKernel(spec=state_spec, pred=pred.result(), succ=succ)
        self._state, self._obs = state, obs
        self._transition[lam_t] = transition
        self._observation[lam_o] = observation
        t_sub, v, n1, p1 = transition
        o_sub, ogo, xo = observation
        return FkkfModel(y_train=self.centres, t_sub=t_sub, o_sub=o_sub, ogo=ogo, xo=xo,
                         v=v, n1_prior=n1, p1_prior=p1, obs_spec=obs_spec,
                         kappa=hyper.kappa, frontend=self.frontend)

    def _fit_rows(self, helper: futures.Executor) -> None:
        """The rows stage: check the training rows, then index them.

        The states' bandwidth, the larger median heuristic, is found on
        the helper beside the observations' bandwidth and the distinct-row
        maps.
        """
        x_pred = np.atleast_2d(np.asarray(self.x_pred, dtype=float))
        x_succ = np.atleast_2d(np.asarray(self.x_succ, dtype=float))
        y_train = np.atleast_2d(np.asarray(self.y_train, dtype=float))
        subspace_size, *_, bandwidth_seed = self.settings
        m = x_pred.shape[0]
        if x_succ.shape != x_pred.shape:
            raise BadDimension("x_pred and x_succ must have identical shape")
        if y_train.shape[0] != m:
            raise BadDimension("y_train must align with x_pred rows")
        if y_train.shape[1] > x_pred.shape[1]:
            raise BadDimension("the observation block cannot be wider than the state")
        if m < 2:
            raise InsufficientData(f"need >= 2 training pairs, got {m}")
        if subspace_size < 1:
            raise ValueError("subspace_size must be >= 1")
        state_bw = helper.submit(median_heuristic, x_pred, DEFAULT_SUBSET_SIZE,
                                 bandwidth_seed)
        obs_bw = median_heuristic(y_train, DEFAULT_SUBSET_SIZE, bandwidth_seed)
        first, centre_of = _distinct_rows(y_train)
        # successors are mostly the next pair's predecessor, so the 2m rows
        # hold about m + (number of flows) distinct states
        stacked = np.vstack([x_pred, x_succ])
        state_first, state_of = _distinct_rows(stacked)
        self.state_bw, self.obs_bw = state_bw.result(), obs_bw
        self.x_pred, self.x_succ, self.y_train = x_pred, x_succ, y_train
        self.centres = y_train[first]
        # c x m membership matrix: row u has a one in each pair column whose
        # observation is centre u, so Obar = S O sums each centre's rows in
        # pair order (scipy's CSR product adds a row's entries in index order)
        self.centre_sum = scipy.sparse.csr_array(
            (np.ones(m), (centre_of, np.arange(m))), shape=(first.size, m))
        self.states = stacked[state_first]
        self.pred_col, self.succ_col = state_of[:m], state_of[m:]
        self.idx = _subspace_stride_indices(m, subspace_size)

    def _predecessor_branch(self, spec: KernelSpec) -> _PredecessorBranch:
        x_pred, idx = self.x_pred, self.idx
        full = idx.size == x_pred.shape[0]
        solver = _SubspaceSolver.of_gram(
            gram(x_pred, x_pred if full else x_pred[idx], spec), idx)
        kbar_prime = gram(x_pred, self.x_succ if full else self.x_succ[idx], spec)
        return _PredecessorBranch(solver=solver, u_kbar_prime=solver.u.T @ kbar_prime,
                                  rw_kbar_prime=solver.rw.T @ kbar_prime[idx])

    def _successor_branch(self, spec: KernelSpec) -> _SuccessorBranch:
        k_states = gram(self.x_succ, self.states, spec)
        # K(x_succ, inducing successors): each inducing successor is a state
        solver = _SubspaceSolver.of_gram(k_states[:, self.succ_col[self.idx]], self.idx)
        u_states = solver.u.T @ k_states
        solver.u = None  # read only through u_states
        return _SuccessorBranch(solver=solver, u_states=u_states)

    def _transition_ridge(self, succ: _SuccessorBranch, clipped: futures.Future,
                          lam: float) -> tuple:
        """(T, V, n1, P1), waiting for the helper's clipped T only to form V."""
        # coordinates of the s distinct states, then one column per pair
        coords = succ.state_coordinates(lam)
        coords_pred = coords[:, self.pred_col]
        n = self.idx.size
        n1 = coords_pred.mean(axis=1)
        p1 = _sym(np.cov(coords_pred)) + _COV_JITTER * np.eye(n)
        t_sub = clipped.result()
        resid = coords[:, self.succ_col] - (t_sub @ coords)[:, self.pred_col]
        v = _sym(np.cov(resid)) + _COV_JITTER * np.eye(n)
        return t_sub, v, n1, p1

    def _observation_ridge(self, pred: _PredecessorBranch, g_cc: np.ndarray,
                           lam: float) -> tuple:
        """(Obar, M, (X O)[:q])."""
        o_full = pred.observation(lam)
        o_bar = self.centre_sum @ o_full
        ogo = _sym(o_bar.T @ (g_cc @ o_bar))
        xo = self.x_pred[:, :self.y_train.shape[1]].T @ o_full
        return o_bar, ogo, xo


def learn_core(x_pred: np.ndarray, x_succ: np.ndarray, y_train: np.ndarray,
               hyper: FkkfHyperparams, subspace_size: int,
               bandwidth_seed: int = 0) -> FkkfModel:
    """Estimate all filter matrices from aligned (state, successor, observation) rows.

    Bandwidths come from the median heuristic on the training rows,
    scaled by the hyperparameters.  The transition/observation ridge
    systems share one factorization; V and the initial belief are taken
    from the empirical statistics of the training coordinates.  The
    first q = y_train.shape[1] state columns are the ones read out.
    subspace_size caps the inducing pairs as in learn; a cap of m or more
    keeps all m.  The model's kernel centres are the distinct rows of
    y_train in first-occurrence order, so it holds c <= m of them, with
    o_sub the rows of O summed per centre.
    """
    return StagedLearner._on_rows(x_pred, x_succ, y_train, subspace_size,
                                  bandwidth_seed).model(hyper)


def _pairs_from_chains(rows: list):
    """Transition pairs within each flow's (states, observations); no pair
    crosses a flow boundary."""
    preds, succs, obs = [], [], []
    for states, observations in rows:
        if states.shape[0] >= 2:
            preds.append(states[:-1])
            succs.append(states[1:])
            obs.append(observations[:-1])
    if not preds:
        raise InsufficientData("no flow yields a transition pair")
    return np.vstack(preds), np.vstack(succs), np.vstack(obs)


def _reduce_horizon(blocks: list, kept_dim: int) -> tuple:
    """(standardizer, PCA basis, reduced blocks) of one horizon's per-flow blocks."""
    stacked = np.vstack(blocks)
    std = reduction.fit_standardizer(stacked)
    kept = max(1, min(kept_dim, stacked.shape[1], stacked.shape[0] - 1))
    basis = reduction.fit_pca(std.apply(stacked), kept)
    return std, basis, [reduction.project(basis, std, block) for block in blocks]


def _fit_frontend(train_flows: list, chunk_cfg: ChunkConfig,
                  window_cfg: StateWindowConfig, kept_dim: int,
                  helper: futures.Executor):
    """Frame the flows, fit per-horizon reducers, reduce and pair the rows.

    Each horizon block is standardized and PCA-reduced on its own before
    the blocks are concatenated into a state; the longest horizon's, the
    widest, is reduced on the executor `helper` beside the others.
    The frontend keeps only the first block's reducer and the first
    horizon as its chunk length (a ValueError before any framing if that
    is shorter than the interval).
    A flow too short to frame is left out; FlowTooShort if every one is.
    Returns (frontend, x_pred, x_succ, y_train, left_out), left_out the
    flows left out.  Depends on no filter hyperparameter.
    """
    obs_cfg = dataclasses.replace(chunk_cfg, chunk_length_s=window_cfg.horizons_s[0])
    if not train_flows:
        raise InsufficientData("no training flows")
    per_flow_blocks, left_out = [], []
    for flow in train_flows:
        try:
            per_flow_blocks.append(window_frames(flow.samples, obs_cfg, window_cfg))
        except FlowTooShort as exc:
            too_short = exc
            left_out.append(flow)
    if not per_flow_blocks:
        raise FlowTooShort(f"no training flow can be framed: {too_short}")
    per_horizon = list(zip(*per_flow_blocks))
    longest = helper.submit(_reduce_horizon, per_horizon[-1], kept_dim)
    horizons = [_reduce_horizon(blocks, kept_dim) for blocks in per_horizon[:-1]]
    horizons.append(longest.result())
    rows = [(np.hstack(reduced), reduced[0])
            for reduced in zip(*(blocks for _, _, blocks in horizons))]
    std, basis, _ = horizons[0]
    frontend = SpectralFrontend(chunk_cfg=obs_cfg, standardizer=std, basis=basis)
    return (frontend, *_pairs_from_chains(rows), tuple(left_out))


def learn(train_flows, hyper: FkkfHyperparams, subspace_size: int,
          chunk_cfg: ChunkConfig, window_cfg: StateWindowConfig,
          kept_dim: int = 80, bandwidth_seed: int = 0) -> FkkfModel:
    """Learn a traffic model from whole flows.

    Per-horizon standardizers and PCA bases are fitted on the training
    frames only; held-out flows must be transformed with this model's
    frontend, which keeps the observation block's.  subspace_size caps the
    inducing pairs, which are a stride over the training pairs (see
    _subspace_stride_indices), so the model can have fewer.  Observation
    windows that repeat exactly, as idle stretches do, share one kernel
    centre, so the model stores c centres for its m training pairs.
    """
    return StagedLearner(train_flows, subspace_size, chunk_cfg, window_cfg,
                         kept_dim=kept_dim, bandwidth_seed=bandwidth_seed).model(hyper)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through scipy's BLAS.

    numpy and scipy each link their own OpenBLAS, each with its own thread
    pool.  A loop that alternates numpy products with scipy factorizations
    keeps both pools busy-waiting, and on a two-core machine each call then
    waits about a scheduler tick: the 200 gain steps of criterion 3 (n = 180)
    took 12 s that way and 1 s with every product here.  project's loop
    uses it; run_filter calls no scipy and stays on numpy.
    The result is in Fortran order; a C-ordered operand goes in as its
    transpose, no copy.
    """
    a_arg, trans_a = (a, 0) if a.flags.f_contiguous else (a.T, 1)
    b_arg, trans_b = (b, 0) if b.flags.f_contiguous else (b.T, 1)
    return scipy.linalg.blas.dgemm(1.0, a_arg, b_arg,
                                   trans_a=trans_a, trans_b=trans_b)


# (lower Cholesky factor, symmetric eigendecomposition) from one library,
# each reading only the lower triangle: project factorizes with scipy's,
# forecast_variance with numpy's (see _matmul).  scipy's upper factor of
# the transposed view reads the same triangle and is L' in Fortran order,
# the operand _gain_root's triangular solve overwrites without a copy.
_SCIPY_FACTORS = (lambda a: scipy.linalg.cholesky(a.T).T,
                  lambda a: scipy.linalg.eigh(a, driver="evd"))
_NUMPY_FACTORS = (np.linalg.cholesky, np.linalg.eigh)


def _covariance_root(cov: np.ndarray, factors=_SCIPY_FACTORS) -> np.ndarray:
    """A factor L with L L' = cov, read from cov's lower triangle only.

    Cholesky when cov is numerically positive definite, the usual case for
    a prior (the prediction adds V >= jitter I); otherwise U sqrt(Lambda)
    from an eigendecomposition with negative roundoff eigenvalues clamped
    to zero.  Neither the gain nor the forecast variance depends on which
    factor is used.
    """
    cholesky, eigh = factors
    try:
        return cholesky(cov)
    except np.linalg.LinAlgError:  # scipy.linalg raises the same class
        evals, evecs = eigh(cov)
        return evecs * np.sqrt(np.maximum(evals, 0.0))


def _gain_root(model: FkkfModel, p_prior: np.ndarray) -> np.ndarray:
    """Gain root Z = C^-1 L', so that W = Z' Z = L (L' M L + kappa I)^-1 L'.

    P- = L L' (see _covariance_root, which reads P-'s lower triangle).
    B = L' M L + kappa I >= kappa I, so its Cholesky factor C exists (read
    from B's lower triangle), and W = Z'Z is a Gram matrix: W and the
    posterior kappa W are positive semi-definite however ill-conditioned
    P- is.  kappa W is the textbook posterior of P- written without its
    subtraction, which cancels catastrophically when P- spans many
    decades.  The Cholesky of B is the one step of project that can fail
    (NumericalFailure "innovation_gain").
    """
    root = _covariance_root(p_prior)
    inner = _matmul(root.T, _matmul(model.ogo, root))
    inner.flat[::inner.shape[0] + 1] += model.kappa
    try:
        chol = scipy.linalg.cholesky(inner, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError:
        raise NumericalFailure("innovation_gain",
                               "L' M L + kappa I is not positive definite") from None
    return scipy.linalg.solve_triangular(chol, root.T, lower=True, overwrite_b=True)


def _prediction_cov(model: FkkfModel, z: np.ndarray) -> np.ndarray:
    """The next prior T (kappa Z'Z) T' + V = kappa Y'Y + V, Y = Z T', lower triangle.

    One product and one symmetric rank-k update into a copy of V; only the
    lower triangle is written, the one _covariance_root reads.
    """
    y = _matmul(z, model.t_sub.T)
    return scipy.linalg.blas.dsyrk(model.kappa, y, beta=1.0, c=model.v, trans=1,
                                   lower=1)


def project(model: FkkfModel, steps: int) -> tuple:
    """The gain roots (Z_0, ..., Z_{steps-1}) of `steps` innovations.

    Step t's gain factor is W_t = Z_t' Z_t and its posterior kappa W_t,
    both positive semi-definite by construction (see _gain_root); neither
    is formed here.  Each prior after the first is built from the previous
    root (_prediction_cov), and none is built after the last innovation.
    Nothing here depends on observed values, so the result can be cached
    before any test data arrives and shared by concurrent filter runs.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    roots = []
    p_prior = model.p1_prior
    for step in range(steps):
        if step:
            p_prior = _prediction_cov(model, roots[-1])
        roots.append(_gain_root(model, p_prior))
    return tuple(roots)


def _responses(model: FkkfModel, frames: np.ndarray) -> np.ndarray:
    """O' k_y of each observation row, one column per frame.

    Each frame's kernel responses k_y are one row of a k x c block, and
    their products with Obar are one GEMM over it.
    """
    if frames.shape[1] != model.obs_dim:
        raise BadDimension(f"observation dim {frames.shape[1]} != {model.obs_dim}")
    k_y = np.empty((frames.shape[0], model.y_train.shape[0]))
    for i, frame in enumerate(frames):
        k_y[i] = kernel_vector(model.y_train, frame, model.obs_spec)
    return model.o_sub.T @ k_y.T


def _innovated(n_prior: np.ndarray, response: np.ndarray, z: np.ndarray,
               model: FkkfModel) -> np.ndarray:
    """The posterior mean n + Z'(Z (O' k_y - M n)) for the response O' k_y.

    Z is the step's gain root, so the gain factor W = Z'Z is applied as
    two products with Z and never formed.
    """
    return n_prior + z.T @ (z @ (response - model.ogo @ n_prior))


def innovation_update(state: FilterState, y_frame: np.ndarray,
                      gains: tuple, model: FkkfModel) -> FilterState:
    """Fold one observation into the prior at state.step: n + Z'(Z (O' k_y - M n)).

    Z is that step's gain root from project's `gains`.  This is run_filter's
    innovation for a prefix of one frame, on the same arithmetic.
    """
    step = state.step
    if step >= len(gains):
        raise ValueError(f"no projected gain for step {step}")
    y_frame = np.asarray(y_frame, dtype=float).ravel()
    response = _responses(model, y_frame[None, :])[:, 0]
    return FilterState(n_t=_innovated(state.n_t, response, gains[step], model), step=step)


def prediction_update(state: FilterState, model: FkkfModel) -> FilterState:
    """Advance the belief mean one step through the learned dynamics."""
    return FilterState(n_t=model.t_sub @ state.n_t, step=state.step + 1)


def reconstruct(state: FilterState, model: FkkfModel) -> np.ndarray:
    """The observation-block mean of a belief: C n, C = (X O)[:q]."""
    return model.xo @ state.n_t


def forecast_variance(model: FkkfModel, p_post: np.ndarray,
                      steps: int) -> np.ndarray:
    """Observation-block variance diagonal of `steps` open-loop priors from p_post.

    The k-th prior is T^k P T^k' + sum_{j<k} T^j V T^j'.  With the readout
    rows A_k = C T^k (C = xo, A_0 = C) and factors P = L_P L_P',
    V = L_V L_V' (_covariance_root), its readout diagonal is

        rowsum((A_k L_P)^2) + sum_{j<k} rowsum((A_j L_V)^2),

    so only the q x n rows are stepped, never the n x n covariance, and
    each stacked product is one GEMM.  Every entry is a sum of squares:
    non-negative by construction, however ill-conditioned T^k is.
    """
    q, n = model.obs_dim, model.subspace_size
    rows = np.empty((steps + 1, q, n))
    rows[0] = model.xo
    for k in range(steps):
        rows[k + 1] = rows[k] @ model.t_sub
    rows = rows.reshape(-1, n)
    post = rows[q:] @ _covariance_root(p_post, _NUMPY_FACTORS)
    noise = rows[:-q] @ _covariance_root(model.v, _NUMPY_FACTORS)
    post_var = np.einsum("ij,ij->i", post, post).reshape(steps, q)
    noise_var = np.einsum("ij,ij->i", noise, noise).reshape(steps, q)
    return post_var + np.cumsum(noise_var, axis=0)


def run_filter(model: FkkfModel, observed_frames: np.ndarray,
               predict_horizon_steps: int,
               gains: tuple | None = None) -> Prediction:
    """Filter an observed prefix, then forecast ahead without observations.

    Every observed frame triggers an innovation with its step's gain
    root from `gains` (project's tuple), which are projected here when
    not given; given gains shorter than the prefix raise ValueError.  The
    responses of all observed frames are one product with their stacked
    kernel vectors (_responses), and each innovation steps only the mean
    (_innovated, the arithmetic of innovation_update).  The open-loop
    rollout fills one row of coordinates per forecast step, T a each, and
    all rows are read out with one product through C.  With a spectral
    frontend the observation-horizon block is mapped back to a kbit series
    via inverse PCA, de-standardization and inverse STFT with
    overlap-averaging.
    """
    observed = np.atleast_2d(np.asarray(observed_frames, dtype=float))
    if observed.size == 0:
        raise ValueError("observed_frames must be non-empty")
    if gains is None:
        gains = project(model, observed.shape[0])
    if observed.shape[0] > len(gains):
        raise ValueError(f"no projected gain for step {len(gains)}")
    responses = _responses(model, observed)
    n_t = model.n1_prior
    for step in range(observed.shape[0]):
        if step:
            n_t = model.t_sub @ n_t
        n_t = _innovated(n_t, responses[:, step], gains[step], model)
    state = FilterState(n_t=n_t, step=observed.shape[0] - 1)

    # only the mean is rolled out; the variance is
    # forecast_variance(model, prediction.filtered_cov, steps)
    steps = max(predict_horizon_steps, 0)
    ahead = np.empty((steps, model.subspace_size))
    for i in range(steps):
        n_t = model.t_sub @ n_t
        ahead[i] = n_t
    mean_frames = ahead @ model.xo.T
    if model.frontend is not None and steps > 0:
        mean_kbit = model.frontend.frames_to_kbit(mean_frames, steps)
    else:
        mean_kbit = np.empty(0)
    return Prediction(mean_frames=mean_frames, mean_kbit=mean_kbit, filtered_state=state,
                      filtered_root=gains[state.step], kappa=model.kappa)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# Array fields with their shapes over the model sizes: c kernel centres
# (distinct training observations), n inducing pairs and q observation
# dimensions.  The file holds each symmetric n x n matrix as its upper
# triangle, n(n+1)/2 entries in np.triu_indices order; t_sub comes first,
# so n is known when the triangles are checked.
_ARRAY_SHAPES = {"y_train": "cq", "t_sub": "nn", "o_sub": "cn", "ogo": "nn",
                 "xo": "qn", "v": "nn", "n1_prior": "n", "p1_prior": "nn"}
_ARRAY_FIELDS = tuple(_ARRAY_SHAPES)
_SYMMETRIC_FIELDS = ("ogo", "v", "p1_prior")


def save_model(model: FkkfModel, path) -> None:
    """Write a model to a single self-describing .npz archive.

    Matrices round-trip bit-exactly; kappa, the observation kernel and
    the frontend's chunk geometry travel in an embedded JSON document
    together with a format-version integer.  Of the frontend, only the
    observation block's standardizer and PCA basis are stored, as the
    block0_* arrays.
    ogo, v and p1_prior are stored as one triangle each; a model in which
    one of them is not exactly symmetric raises ValueError, so no file
    loses a bit.
    """
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "kappa": model.kappa,
        "obs_spec": [model.obs_spec.bandwidth, model.obs_spec.scale_factor],
        "has_frontend": model.frontend is not None,
    }
    arrays = {name: getattr(model, name) for name in _ARRAY_FIELDS}
    for name in _SYMMETRIC_FIELDS:
        arrays[name] = _upper_triangle(name, arrays[name])
    if model.frontend is not None:
        fe = model.frontend
        meta["chunk_cfg"] = [fe.chunk_cfg.sample_interval_s,
                             fe.chunk_cfg.chunk_interval_s,
                             fe.chunk_cfg.chunk_length_s]
        arrays["block0_means"] = fe.standardizer.means
        arrays["block0_stds"] = fe.standardizer.stds
        arrays["block0_components"] = fe.basis.components
        arrays["block0_evr"] = fe.basis.explained_variance_ratio
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # write through a file object so numpy cannot append its own .npz suffix
    # (atomic-rename callers pass suffix-less temp paths)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _upper_triangle(name: str, mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.tobytes() != mat.T.tobytes():
        raise ValueError(f"cannot save the model: {name} is not exactly symmetric")
    return mat[np.triu_indices(mat.shape[0])]


def _mirrored(triangle: np.ndarray, n: int) -> np.ndarray:
    mat = np.empty((n, n), dtype=triangle.dtype)
    rows, cols = np.triu_indices(n)
    mat[rows, cols] = triangle
    mat[cols, rows] = triangle
    return mat


def load_model(path) -> FkkfModel:
    """Read a model written by save_model.

    A missing file raises FileNotFoundError.  Anything else that is not a
    readable model of this format version -- an older version, a file
    that is not a flowcast archive, arrays whose shapes disagree, an array
    holding a NaN or an infinity, a kappa that is not positive and finite
    -- raises ModelFileError with a one-line message.
    """
    try:
        data = np.load(path)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"{path}: not a flowcast model archive "
                             f"({_first_line(exc)})") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ModelFileError(f"{path}: not a flowcast model archive (a bare array)")
    with data:
        try:
            return _model_from_archive(data, path)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError,
                EOFError, OSError, zipfile.BadZipFile, zlib.error) as exc:
            raise ModelFileError(f"{path}: not a flowcast model archive "
                                 f"({type(exc).__name__}: {_first_line(exc)})") from None


def _first_line(exc: Exception) -> str:
    lines = str(exc).strip().splitlines()
    return lines[0] if lines else type(exc).__name__


def _check_shapes(arrays: dict, path) -> None:
    sizes = {}
    for name, axes in _ARRAY_SHAPES.items():
        shape = arrays[name].shape
        if name in _SYMMETRIC_FIELDS:
            n = sizes["n"]
            wrong = shape != (n * (n + 1) // 2,)
        else:
            wrong = len(shape) != len(axes) or any(sizes.setdefault(axis, size) != size
                                                   for axis, size in zip(axes, shape))
        if wrong:
            raise ModelFileError(f"{path}: array {name} has shape {shape}, which "
                                 f"disagrees with the other model arrays")


def _finite_array(data, name: str, path) -> np.ndarray:
    array = data[name]
    if not np.isfinite(array).all():
        raise ModelFileError(f"{path}: array {name} holds a non-finite value")
    return array


def _model_from_archive(data, path) -> FkkfModel:
    meta = json.loads(bytes(data["meta_json"].tobytes()).decode())
    version = meta.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFileError(f"{path}: model format version {version} is not supported "
                             f"(expected {MODEL_FORMAT_VERSION}); learn the model again")
    kappa = float(meta["kappa"])
    if not 0 < kappa < math.inf:
        raise ModelFileError(f"{path}: kappa {kappa!r} is not positive and finite")
    arrays = {name: _finite_array(data, name, path) for name in _ARRAY_FIELDS}
    _check_shapes(arrays, path)
    for name in _SYMMETRIC_FIELDS:
        arrays[name] = _mirrored(arrays[name], arrays["t_sub"].shape[0])
    frontend = None
    if meta["has_frontend"]:
        t_s, t_c, w = meta["chunk_cfg"]
        chunk_cfg = ChunkConfig(sample_interval_s=t_s, chunk_interval_s=t_c,
                                chunk_length_s=w)
        means, stds, comp, evr = (_finite_array(data, f"block0_{part}", path)
                                  for part in ("means", "stds", "components", "evr"))
        if comp.ndim != 2 or comp.shape[1] != arrays["y_train"].shape[1]:
            raise ModelFileError(f"{path}: PCA blocks disagree with the model arrays")
        if (means.shape != (comp.shape[0],) or stds.shape != (comp.shape[0],)
                or evr.shape != (comp.shape[1],)):
            raise ModelFileError(
                f"{path}: PCA block arrays disagree with each other (means "
                f"{means.shape}, stds {stds.shape}, components {comp.shape}, "
                f"evr {evr.shape})")
        frontend = SpectralFrontend(
            chunk_cfg=chunk_cfg, standardizer=Standardizer(means=means, stds=stds),
            basis=PcaBasis(components=comp, explained_variance_ratio=evr,
                           original_dim=comp.shape[0], kept_dim=comp.shape[1]))
    return FkkfModel(obs_spec=KernelSpec(bandwidth=meta["obs_spec"][0],
                                         scale_factor=meta["obs_spec"][1]),
                     kappa=kappa, frontend=frontend, **arrays)
