"""Leave-one-out peak-rise prediction experiments and Table-style reports.

For every flow of a group, a model is learned on the other members, the
test flow's first peak rise is located, a few observed frames from the
start of the rise are filtered, and the following second of traffic is
predicted.  The signed peak error compares the predicted and actual
maxima over that horizon; the constant-load baseline scores the observed
prefix maximum as if it were the forecast.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import fkkf, spectral
from .errors import FlowTooShort, InsufficientGroup, NumericalFailure, UndefinedError
from .fkkf import FkkfHyperparams, StateWindowConfig
from .spectral import ChunkConfig
from .trace_io import leave_one_out_splits

DEFAULT_PEAK_FACTOR = 5.0
DEFAULT_AR_ORDER = 8


@dataclass(frozen=True)
class ExperimentConfig:
    observe_steps: int = 6
    predict_horizon_s: float = 1.0
    chunk_lengths_s: tuple = (0.15, 0.3, 0.5, 1.0)
    sample_interval_s: float = 0.01
    chunk_interval_s: float = 0.05
    peak_window_s: float = 1.0
    peak_factor: float = DEFAULT_PEAK_FACTOR
    subspace_size: int = 200
    kept_dim: int = 80
    window_horizons: tuple = (1.0, 2.0, 3.0)
    bandwidth_seed: int = 0
    ar_order: int = DEFAULT_AR_ORDER

    def __post_init__(self):
        if self.observe_steps < 3:
            raise ValueError("observe_steps must be >= 3")
        if not self.chunk_lengths_s:
            raise ValueError("chunk_lengths_s must be non-empty")
        for name, low in (("subspace_size", 1), ("kept_dim", 1), ("ar_order", 1),
                          ("bandwidth_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.peak_factor < math.inf:
            raise ValueError(f"peak_factor must be positive and finite, got {self.peak_factor}")
        # every duration the experiment turns into samples or steps, checked
        # here so a malformed config fails when it is loaded
        for length in self.report_lengths():
            self.chunk_config(length)
            for horizon in self.window_config(length).horizons_s:
                spectral.whole_multiple(horizon, self.sample_interval_s, "window horizon")
        # validated once here, then kept
        self.peak_window_samples, self.horizon_steps

    def chunk_config(self, chunk_length_s: float) -> ChunkConfig:
        return ChunkConfig(sample_interval_s=self.sample_interval_s,
                           chunk_interval_s=self.chunk_interval_s,
                           chunk_length_s=chunk_length_s)

    def window_config(self, chunk_length_s: float) -> StateWindowConfig:
        return StateWindowConfig(horizons_s=self.window_horizons).scaled(chunk_length_s)

    @functools.cached_property
    def peak_window_samples(self) -> int:
        return spectral.whole_multiple(self.peak_window_s, self.sample_interval_s,
                                       "peak_window_s")

    @functools.cached_property
    def horizon_steps(self) -> int:
        return spectral.whole_multiple(self.predict_horizon_s, self.chunk_interval_s,
                                       "predict_horizon_s")

    def report_lengths(self) -> list:
        """The configured chunk lengths plus the report's 1 s column."""
        lengths = list(self.chunk_lengths_s)
        if 1.0 not in lengths:
            lengths.append(1.0)
        return lengths


@dataclass
class GroupReport:
    group_id: int
    flow_count: int
    pca_cum_variance_at_80: float
    constant_error: float
    optimal_chunk_len_s: float
    pred_error_chunk_1s: float
    pred_error_optimal: float
    quality: str

    COLUMNS = ("group_id", "flow_count", "pca_cum_variance_at_80",
               "constant_error", "optimal_chunk_len_s",
               "pred_error_chunk_1s", "pred_error_optimal", "quality")


@dataclass
class SplitResult:
    """One leave-one-out fold at one chunk length."""

    pred_error: float
    constant_error: float
    ar_error: float
    pca_cum_variance: float


@dataclass
class GroupExperimentResult:
    chunk_length_s: float
    splits: list = field(default_factory=list)
    # folds skipped per reason: the exception class, plus .matrix for a
    # NumericalFailure ("NumericalFailure.innovation_gain")
    skips: Counter = field(default_factory=Counter)
    # members some fold's learner left out of training, too short to frame
    flows_left_out: int = 0

    @property
    def skipped(self) -> int:
        """Folds skipped for any reason."""
        return sum(self.skips.values())

    def _mean(self, attr: str) -> float:
        vals = [getattr(s, attr) for s in self.splits]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def pred_error(self) -> float:
        return self._mean("pred_error")

    @property
    def constant_error(self) -> float:
        return self._mean("constant_error")

    @property
    def ar_error(self) -> float:
        return self._mean("ar_error")

    @property
    def pca_cum_variance(self) -> float:
        return self._mean("pca_cum_variance")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_prediction_error(predicted_kbit: np.ndarray, actual_kbit: np.ndarray) -> float:
    """(max(predicted) - max(actual)) / max(actual); negative = underestimate."""
    predicted = np.asarray(predicted_kbit, dtype=float)
    actual = np.asarray(actual_kbit, dtype=float)
    actual_max = float(actual.max())
    if actual_max <= 0:
        raise UndefinedError("actual horizon has no positive peak")
    return (float(predicted.max()) - actual_max) / actual_max


def constant_error(observed_prefix_kbit: np.ndarray, actual_kbit: np.ndarray) -> float:
    """Error of predicting a constant load at the observed prefix maximum."""
    return peak_prediction_error(observed_prefix_kbit, actual_kbit)


def quality_label(pred_error: float, const_error: float) -> str:
    """bad / moderate / good per the fixed thresholds.

    bad when |pred| > 50% or no better than the constant baseline;
    good when |pred| < 20%; moderate otherwise.
    """
    p, c = abs(pred_error), abs(const_error)
    if p > 0.5 or p >= c:
        return "bad"
    if p < 0.2:
        return "good"
    return "moderate"


def locate_peak_rise(samples: np.ndarray, chunk_interval_s: float,
                     sample_interval_s: float, window_s: float = 1.0,
                     factor: float = DEFAULT_PEAK_FACTOR) -> int | None:
    """First chunk index whose forward kbit sum exceeds factor x the median sum."""
    hop = spectral.whole_multiple(chunk_interval_s, sample_interval_s, "chunk_interval_s")
    width = spectral.whole_multiple(window_s, sample_interval_s, "window_s")
    return peak_rise_index(samples, hop, width, factor)


def peak_rise_index(samples: np.ndarray, hop: int, width: int,
                    factor: float = DEFAULT_PEAK_FACTOR) -> int | None:
    """locate_peak_rise with the chunk interval and the window counted in samples."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < width:
        return None
    count = (samples.size - width) // hop + 1
    sums = spectral.strided_windows(samples, width, hop, count).sum(axis=1)
    threshold = factor * float(np.median(sums))
    hits = np.nonzero(sums > threshold)[0]
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def ar_baseline(observed_kbit: np.ndarray, horizon_steps: int,
                order: int = DEFAULT_AR_ORDER) -> np.ndarray:
    """Least-squares AR(p) fit on the prefix, iterated forecast, clamped at 0.

    Falls back to last-value persistence when the fit is rank-deficient
    (e.g. a constant prefix) or explosive: a characteristic root outside
    the unit circle would grow the forecast without bound.  Unit roots
    (a linear ramp) are kept.
    """
    series = np.asarray(observed_kbit, dtype=float).ravel()
    if series.size <= order:
        raise ValueError(f"series of {series.size} samples too short for AR({order})")
    design = np.column_stack([series[order - k - 1:series.size - k - 1]
                              for k in range(order)])
    target = series[order:]
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < order or np.abs(np.roots(np.r_[1.0, -coef])).max() > 1 + 1e-6:
        return np.full(horizon_steps, series[-1])
    history = list(series[-order:])
    forecast = np.empty(horizon_steps)
    for i in range(horizon_steps):
        value = float(np.dot(coef, history[::-1]))
        value = max(value, 0.0)
        forecast[i] = value
        history.pop(0)
        history.append(value)
    return forecast


# ---------------------------------------------------------------------------
# experiment protocol
# ---------------------------------------------------------------------------


def _learner_settings(cfg: ExperimentConfig, chunk_length_s: float) -> tuple:
    return (cfg.subspace_size, cfg.chunk_config(chunk_length_s),
            cfg.window_config(chunk_length_s), cfg.kept_dim, cfg.bandwidth_seed)


def split_learner(train_flows, cfg: ExperimentConfig,
                  chunk_length_s: float) -> fkkf.StagedLearner:
    """The learner evaluate_split learns with on these training flows."""
    return fkkf.StagedLearner(train_flows, *_learner_settings(cfg, chunk_length_s))


def forecast_flow(model: fkkf.FkkfModel, samples: np.ndarray, cfg: ExperimentConfig,
                  start: int | None = None) -> tuple:
    """(start, horizon, Prediction) from filtering cfg.observe_steps frames of a flow.

    The observed frames are the observation spectra, under the model's
    spectral frontend, at chunk indices [start, start + cfg.observe_steps);
    `start` defaults to the flow's located peak rise.  The forecast covers
    the cfg.horizon_steps chunk intervals after them: `horizon` is the
    slice of sample indices it predicts, which may run past the end of
    `samples`.

    Raises UndefinedError when `start` is negative, no peak rise is found,
    the flow is shorter than one observation window or the observed
    frames run past the end of the flow.
    """
    fe = model.frontend
    hop = fe.chunk_cfg.hop_samples
    if start is None:
        start = peak_rise_index(samples, hop, cfg.peak_window_samples, cfg.peak_factor)
        if start is None:
            raise UndefinedError("no peak rise found in flow")
    if start < 0:
        raise UndefinedError(f"start step {start} is negative")
    try:
        raw = fkkf.observation_windows(samples, hop, fe.chunk_cfg.chunk_samples)
    except FlowTooShort as exc:
        raise UndefinedError(str(exc)) from None
    end = start + cfg.observe_steps
    if raw.shape[0] < end:
        raise UndefinedError("observed prefix extends past the flow end")
    observed = fe.reduce_observations(raw[start:end])
    horizon = slice(end * hop, (end + cfg.horizon_steps) * hop)
    return start, horizon, fkkf.run_filter(model, observed, cfg.horizon_steps)


def evaluate_split(train_flows, test_flow, hyper: FkkfHyperparams,
                   cfg: ExperimentConfig, chunk_length_s: float, *,
                   learner: fkkf.StagedLearner | None = None) -> SplitResult:
    """Learn on the training flows and score one held-out peak rise.

    The model comes from `learner`, by default a new
    split_learner(train_flows, cfg, chunk_length_s).  Passing one learner
    to several calls on the same fold shares its stages between them; the
    stages this hyper needs and no earlier call built are built here.  A
    learner built from other flows or settings raises ValueError.

    Raises UndefinedError when the test flow has no locatable peak, its
    horizon runs past the end of the flow or carries no traffic.
    """
    if learner is None:
        learner = split_learner(train_flows, cfg, chunk_length_s)
    elif (learner.settings != _learner_settings(cfg, chunk_length_s)
          or not _same_flows(learner.train_flows, train_flows)):
        raise ValueError("learner was built from other training flows or settings")
    model = learner.model(hyper)
    samples = test_flow.samples
    start, horizon, prediction = forecast_flow(model, samples, cfg)
    actual = samples[horizon]
    if actual.size < horizon.stop - horizon.start:
        raise UndefinedError("peak rise too close to the end of the flow")
    # The observation phase spans observe_steps chunk starts; baselines see
    # the impulses that emerged in that interval, not the spectral lookahead.
    prefix = samples[start * model.frontend.chunk_cfg.hop_samples:horizon.start]
    pred_err = peak_prediction_error(prediction.mean_kbit, actual)
    const_err = constant_error(prefix, actual)
    ar_forecast = ar_baseline(prefix, actual.size, cfg.ar_order)
    ar_err = peak_prediction_error(ar_forecast, actual)
    pca_var = model.frontend.basis.cumulative_explained_variance
    return SplitResult(pred_error=pred_err, constant_error=const_err,
                       ar_error=ar_err, pca_cum_variance=pca_var)


def _same_flows(kept: tuple, train_flows) -> bool:
    train_flows = list(train_flows)
    return len(kept) == len(train_flows) and all(
        a is b for a, b in zip(kept, train_flows))


def _skip_reason(exc: Exception) -> str:
    """The GroupExperimentResult.skips key of a fold that raised exc."""
    if isinstance(exc, NumericalFailure):
        return f"{type(exc).__name__}.{exc.matrix}"
    return type(exc).__name__


def run_group_experiment(group_flows, hyper: FkkfHyperparams,
                         cfg: ExperimentConfig,
                         chunk_length_s: float) -> GroupExperimentResult:
    """All leave-one-out folds of one group at a fixed chunk length.

    Folds whose test flow has no usable peak, or whose filter fails
    numerically, are skipped and counted per reason; signed errors
    are averaged across the remaining folds, NaN when every fold was
    skipped.  The members that some fold's learner left out of training
    (StagedLearner.left_out) are counted in flows_left_out.
    InsufficientGroup for a group of fewer than two flows.
    """
    flows = list(group_flows)
    if len(flows) < 2:
        raise InsufficientGroup(f"group has {len(flows)} flows, need >= 2")
    result = GroupExperimentResult(chunk_length_s=chunk_length_s)
    left_out = set()
    for train, test in leave_one_out_splits(flows):
        learner = split_learner(train, cfg, chunk_length_s)
        try:
            result.splits.append(evaluate_split(train, test, hyper, cfg,
                                                chunk_length_s, learner=learner))
        except (UndefinedError, NumericalFailure) as exc:
            result.skips[_skip_reason(exc)] += 1
        left_out.update(id(flow) for flow in learner.left_out)
    result.flows_left_out = len(left_out)
    return result


def chunk_length_sweep(group_flows, hyper: FkkfHyperparams,
                       cfg: ExperimentConfig, lengths=None):
    """Evaluate each chunk length; optimal = smallest |mean error|, ties shorter.

    A length at which every fold was skipped keeps its result, with no
    splits (NaN errors) and its skips counted, but is never optimal; the
    group only fails when no length has a usable fold.
    """
    lengths = list(lengths if lengths is not None else cfg.chunk_lengths_s)
    if not lengths:
        raise ValueError("lengths must be non-empty")
    per_length = {length: run_group_experiment(group_flows, hyper, cfg, length)
                  for length in lengths}
    usable = [length for length in sorted(per_length) if per_length[length].splits]
    if not usable:
        raise InsufficientGroup("no chunk length produced a usable fold")
    optimal = min(usable, key=lambda L: (abs(per_length[L].pred_error), L))
    return optimal, per_length


def build_group_report(group_id: int, group_flows, hyper: FkkfHyperparams,
                       cfg: ExperimentConfig):
    """Sweep chunk lengths and assemble one report row.

    The 1 s-chunk column is evaluated even when 1.0 is not part of the
    configured sweep; it is NaN when every 1 s fold was skipped.
    """
    optimal, per_length = chunk_length_sweep(group_flows, hyper, cfg,
                                             cfg.report_lengths())
    best = per_length[optimal]
    error_1s = per_length[1.0].pred_error
    report = GroupReport(group_id=group_id, flow_count=len(list(group_flows)),
                         pca_cum_variance_at_80=best.pca_cum_variance,
                         constant_error=best.constant_error,
                         optimal_chunk_len_s=optimal,
                         pred_error_chunk_1s=error_1s,
                         pred_error_optimal=best.pred_error,
                         quality=quality_label(best.pred_error, best.constant_error))
    return report, per_length


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_report_csv(reports, path, metadata: dict | None = None) -> None:
    """Table-layout CSV: metadata as # rows, then one row per group."""
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(GroupReport.COLUMNS)
        for report in reports:
            writer.writerow([_fmt(getattr(report, col)) for col in GroupReport.COLUMNS])


def write_prediction_csv(times_s, actual, predicted, variance, path) -> None:
    """Per-sample (t, actual, predicted, variance) trace for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "actual_kbit", "predicted_kbit", "variance"])
        for row in zip(times_s, actual, predicted, variance):
            writer.writerow([_fmt(float(v)) for v in row])
