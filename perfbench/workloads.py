"""The three benchmark workloads, driven through flowcast's public API.

Every input comes from ``synth`` seeded by ``synth_seed(seed, group,
role)``; the library only ever sees the generated flows or packet
events.  Each workload offers the same four steps:

* ``setup()``: make the inputs (and, for ``online_forecast``, the
  deployed models); the benchmark times it as ``setup_s``;
* ``run(deadline, between_ops)``: ops in a fixed order until the
  deadline passes, calling ``between_ops()``, if given, after each op;
* ``run_fixed()``: a fixed, seed-determined amount of work, used for
  the traced pass so that per-layer totals compare across versions;
* ``check()``: correctness checks that are too slow for the timed phase.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from flowcast import (clustering, evaluation, fkkf, hyperopt, synth,
                      trace_io)
from flowcast.errors import FlowcastError, NumericalFailure, UndefinedError
from flowcast.evaluation import ExperimentConfig
from flowcast.fkkf import FkkfHyperparams
from flowcast.trace_io import KBIT_PER_BYTE, leave_one_out_splits

from tracing import OP_PROBE, Tracer, patched

TRAIN, TEST = 0, 1
FILTER_TOLERANCE = 1e-9

# The acceptance suite's criterion-6 protocol (ROADMAP's end-to-end run).
CRITERION6_HYPER = FkkfHyperparams(lambda_t=0.05, lambda_o=1e-3,
                                   state_bw_scale=1.0, obs_bw_scale=1.0,
                                   kappa=1e-3)
CRITERION6_CFG = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.4, 0.6, 0.8),
                                  subspace_size=250, kept_dim=50,
                                  peak_window_s=0.15)


def synth_seed(seed: int, group: int, role: int) -> int:
    """Injective map to synth seeds; roles keep training and test flows apart."""
    if not (0 <= group < 16 and role in (TRAIN, TEST) and seed >= 0):
        raise ValueError("seed must be >= 0 and group < 16")
    return (seed * 16 + group) * 2 + role


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  The defaults are the benchmark; tests shrink them."""

    cfg: ExperimentConfig = CRITERION6_CFG
    hyper: FkkfHyperparams = CRITERION6_HYPER
    n_groups: int = 10                 # synth.default_templates(n_groups)
    flow_duration_s: float = 10.0
    # loo_sweep: g7 is where a fold's PSD check depends on BLAS threads
    loo_groups: tuple = (2, 7)
    loo_flows: int = 8
    # online_forecast
    online_groups: tuple = (1, 4, 7)
    online_chunk_s: float = 0.6
    online_train_flows: int = 5
    online_test_flows: int = 40        # per group; ops cycle through them
    online_traced_ops: int = 30
    # grid_search: one group, holdout of one flow, 2 values per axis
    grid_group: int = 3
    grid_flows: int = 6
    grid_chunk_s: float = 0.6
    grid_space: hyperopt.SearchSpace = hyperopt.SearchSpace(
        lambda_t=(0.01, 0.05), lambda_o=(1e-3, 1e-2), state_bw_scale=(0.5, 1.0),
        obs_bw_scale=(1.0, 2.0), kappa=(1e-3, 1e-2))


@dataclass
class Op:
    latency_s: float
    end: float                     # perf_counter() when the op returned
    error: str | None = None       # failure reason; None for a scored op
    matrix: str | None = None      # NumericalFailure.matrix


@dataclass
class Outcome:
    """What one timed or fixed phase produced."""

    ops: list = field(default_factory=list)
    wall_s: float = 0.0
    abs_errors: list = field(default_factory=list)   # |signed peak error| of scored ops
    detail: dict = field(default_factory=dict)


def _ops_from_probe(tracer: Tracer) -> list:
    return [Op(latency_s=s.end - s.start, end=s.end, error=s.error, matrix=s.matrix)
            for s in tracer.ops()]


def _model_bytes(model, scratch_dir) -> int:
    path = os.path.join(scratch_dir, "model.npz")
    fkkf.save_model(model, path)
    try:
        return os.path.getsize(path)
    finally:
        os.remove(path)


def _naive_constant_error(samples, cfg: ExperimentConfig, chunk_length_s: float):
    """Independent oracle for the constant baseline of one scored fold."""
    hop = cfg.chunk_config(chunk_length_s).hop_samples
    width = int(round(cfg.peak_window_s / cfg.sample_interval_s))
    sums = [float(np.sum(samples[c * hop:c * hop + width]))
            for c in range((samples.size - width) // hop + 1)]
    threshold = cfg.peak_factor * float(np.median(sums))
    start = next(c for c, s in enumerate(sums) if s > threshold)
    first_pred = start + cfg.observe_steps
    horizon = cfg.horizon_steps * hop
    prefix = samples[start * hop:first_pred * hop]
    actual = samples[first_pred * hop:first_pred * hop + horizon]
    return (prefix.max() - actual.max()) / actual.max()


class LooSweep:
    """Leave-one-out chunk-length sweep with the criterion-6 config.

    One op is one fold: learn on the other flows, project gains, filter
    and score.  Folds are interleaved (fold index, then chunk length,
    then group) so that any prefix of the order covers every group and
    chunk length; training sets are never shared between folds.
    """

    name = "loo_sweep"
    block = 6          # ops per throughput sample: one fold of each (length, group)
    tail_pct = 60      # ~30 folds per 35 s run leave 12 beyond p60

    def __init__(self, seed: int, sizes: Sizes, scratch_dir: str):
        self.seed, self.sizes, self.scratch_dir = seed, sizes, scratch_dir

    def setup(self):
        s = self.sizes
        templates = synth.default_templates(s.n_groups)
        self.groups = {g: synth.generate_group(
            templates[g], s.loo_flows, s.flow_duration_s, s.cfg.sample_interval_s,
            seed=synth_seed(self.seed, g, TRAIN), group_id=g) for g in s.loo_groups}
        splits = {g: leave_one_out_splits(flows) for g, flows in self.groups.items()}
        self.order = [(g, length, splits[g][i])
                      for i in range(s.loo_flows)
                      for length in s.cfg.chunk_lengths_s
                      for g in s.loo_groups]
        self.results = []   # (group, chunk length, split, SplitResult)

    def _fold(self, g, length, split):
        train, test = split
        try:
            result = evaluation.evaluate_split(train, test, self.sizes.hyper,
                                               self.sizes.cfg, length)
        except (UndefinedError, NumericalFailure):
            # the protocol skips such folds, as run_group_experiment does
            return None
        self.results.append((g, length, split, result))
        return result

    def _collect(self, tracer, folds, wall) -> Outcome:
        out = Outcome(ops=_ops_from_probe(tracer), wall_s=wall)
        out.abs_errors = [abs(r.pred_error) for r in folds if r is not None]
        return out

    def run(self, deadline: float, between_ops=None) -> Outcome:
        tracer = Tracer(after_op=between_ops)
        folds = []
        with patched(tracer, [OP_PROBE]):
            t0 = time.perf_counter()
            i = 0
            while i == 0 or time.perf_counter() < deadline:
                folds.append(self._fold(*self.order[i % len(self.order)]))
                i += 1
            wall = time.perf_counter() - t0
        out = self._collect(tracer, folds, wall)
        per_unit: dict[str, list] = {}
        for g, length, _, result in self.results:
            per_unit.setdefault(f"g{g}@{length:g}s", []).append(result.pred_error)
        out.detail["signed_error_by_group"] = {
            k: float(np.mean(v)) for k, v in sorted(per_unit.items())}
        return out

    def run_fixed(self, tracer: Tracer) -> Outcome:
        """One fold of every (chunk length, group) pair."""
        rounds = len(self.sizes.cfg.chunk_lengths_s) * len(self.sizes.loo_groups)
        t0 = time.perf_counter()
        folds = [self._fold(*unit) for unit in self.order[:rounds]]
        return self._collect(tracer, folds, time.perf_counter() - t0)

    def check(self) -> list:
        problems = []
        cfg = self.sizes.cfg
        for g, length, (_, test), result in self.results:
            values = (result.pred_error, result.constant_error, result.ar_error)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"g{g}@{length}: non-finite fold result {values}")
            expected = _naive_constant_error(test.samples, cfg, length)
            if abs(expected - result.constant_error) > 1e-9 * max(1.0, abs(expected)):
                problems.append(f"g{g}@{length}: constant baseline {result.constant_error}"
                                f" != oracle {expected}")
        if self.results:
            g, length, (train, test), first = self.results[0]
            again = evaluation.evaluate_split(train, test, self.sizes.hyper, cfg, length)
            if again.pred_error != first.pred_error:
                problems.append(f"g{g}@{length}: fold not reproducible "
                                f"({first.pred_error!r} then {again.pred_error!r})")
        return problems

    def model_bytes(self) -> int:
        g, length, (train, _) = self.order[0]
        cfg = self.sizes.cfg
        model = fkkf.learn(train, self.sizes.hyper, cfg.subspace_size,
                           cfg.chunk_config(length), cfg.window_config(length),
                           kept_dim=cfg.kept_dim, bandwidth_seed=cfg.bandwidth_seed)
        return _model_bytes(model, self.scratch_dir)


def flow_to_events(flow) -> list:
    """One (timestamp, bytes) record per non-empty bin, mid-bin."""
    dt = flow.sample_interval_s
    idx = np.nonzero(flow.samples > 0)[0]
    return [((i + 0.5) * dt, float(flow.samples[i]) / KBIT_PER_BYTE) for i in idx]


@dataclass
class Deployment:
    group: int
    model: fkkf.FkkfModel
    gains: fkkf.ProjectedGains
    centroid: np.ndarray


class OnlineForecast:
    """Forecast unseen flows that arrive as packet events.

    Setup learns one model per group, projects its gains, saves and
    reloads it.  One op bins the events, routes the flow to the nearest
    group centroid, filters the located peak rise with the cached gains
    and scores the forecast.
    """

    name = "online_forecast"
    block = 10
    # p98 would be the highest percentile with 10 samples beyond it, but on
    # a shared 2-core host bursts of contention slow 10-25% of the ops by
    # ~50%, so every percentile above ~p75 follows the neighbours, not the code
    tail_pct = 75

    def __init__(self, seed: int, sizes: Sizes, scratch_dir: str):
        self.seed, self.sizes, self.scratch_dir = seed, sizes, scratch_dir
        s = sizes
        self.chunk_cfg = s.cfg.chunk_config(s.online_chunk_s)
        self.window_cfg = s.cfg.window_config(s.online_chunk_s)

    def make_inputs(self):
        s = self.sizes
        templates = synth.default_templates(s.n_groups)
        train, requests = {}, []
        for g in s.online_groups:
            train[g] = synth.generate_group(
                templates[g], s.online_train_flows, s.flow_duration_s,
                s.cfg.sample_interval_s, seed=synth_seed(self.seed, g, TRAIN), group_id=g)
            tests = synth.generate_group(
                templates[g], s.online_test_flows, s.flow_duration_s,
                s.cfg.sample_interval_s, seed=synth_seed(self.seed, g, TEST), group_id=g)
            requests.append([(g, f.key, flow_to_events(f)) for f in tests])
        # interleave groups so any prefix of the request stream is balanced
        return train, [r for batch in zip(*requests) for r in batch]

    def setup(self):
        s = self.sizes
        self.train, self.requests = self.make_inputs()
        self.deployed = []
        self.model_bytes_total = 0
        for g, flows in self.train.items():
            model = fkkf.learn(flows, s.hyper, s.cfg.subspace_size, self.chunk_cfg,
                               self.window_cfg, kept_dim=s.cfg.kept_dim,
                               bandwidth_seed=s.cfg.bandwidth_seed)
            gains = fkkf.project(model, s.cfg.observe_steps)
            path = os.path.join(self.scratch_dir, f"group{g}.npz")
            fkkf.save_model(model, path)
            self.model_bytes_total += os.path.getsize(path)
            loaded = fkkf.load_model(path)
            os.remove(path)
            centroid = np.mean([clustering.signature(f, self.chunk_cfg).vector
                                for f in flows], axis=0)
            self.deployed.append(Deployment(g, loaded, gains, centroid))
        self.checked: dict[tuple, tuple] = {}   # (group, first|last) -> request

    def observed_frames(self, samples, model):
        cfg = self.sizes.cfg
        start = evaluation.locate_peak_rise(samples, cfg.chunk_interval_s,
                                            cfg.sample_interval_s, cfg.peak_window_s,
                                            cfg.peak_factor)
        if start is None:
            raise UndefinedError("no peak rise found in request flow")
        first_pred = start + cfg.observe_steps
        raw = fkkf.observation_frames(samples, self.chunk_cfg, self.sizes.online_chunk_s)
        hop = self.chunk_cfg.hop_samples
        actual = samples[first_pred * hop:(first_pred + cfg.horizon_steps) * hop]
        if raw.shape[0] < first_pred or actual.size < cfg.horizon_steps * hop:
            raise UndefinedError("peak rise too close to the end of the flow")
        return model.frontend.reduce_observations(raw[start:first_pred]), actual

    def forecast(self, key, events):
        """One op: (routed deployment, observed frames, prediction, signed error)."""
        cfg = self.sizes.cfg
        flow = trace_io.bin_packets(events, key, cfg.sample_interval_s, start_time=0.0)
        vector = clustering.signature(flow, self.chunk_cfg).vector
        dep = min(self.deployed, key=lambda d: float(np.linalg.norm(vector - d.centroid)))
        observed, actual = self.observed_frames(flow.samples, dep.model)
        prediction = fkkf.run_filter(dep.model, observed, cfg.horizon_steps,
                                     gains=dep.gains)
        return dep, observed, prediction, evaluation.peak_prediction_error(
            prediction.mean_kbit, actual)

    def _op(self, group, key, events, op_fn, out: Outcome) -> None:
        tic = time.perf_counter()
        try:
            dep, observed, prediction, err = op_fn(key, events)
        except FlowcastError as exc:
            end = time.perf_counter()
            out.ops.append(Op(end - tic, end, type(exc).__name__,
                              getattr(exc, "matrix", None)))
            return
        end = time.perf_counter()
        if dep.group != group:
            out.ops.append(Op(end - tic, end, "misrouted"))
            return
        out.ops.append(Op(end - tic, end))
        out.abs_errors.append(abs(err))
        self.checked.setdefault((group, "first"), (observed, prediction))
        self.checked[(group, "last")] = (observed, prediction)

    def _run(self, requests, op_fn, stop, between_ops=None) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        for i, (group, key, events) in enumerate(requests):
            if stop(i):
                break
            self._op(group, key, events, op_fn, out)
            if between_ops is not None:
                between_ops()
        out.wall_s = time.perf_counter() - t0
        return out

    def run(self, deadline: float, between_ops=None) -> Outcome:
        def cycle():
            while True:
                yield from self.requests
        return self._run(cycle(), self.forecast,
                         lambda i: i > 0 and time.perf_counter() >= deadline,
                         between_ops)

    def run_fixed(self, tracer: Tracer) -> Outcome:
        op = tracer.wrap("bench.forecast", self.forecast)
        n = self.sizes.online_traced_ops
        return self._run(self.requests[:n], op, lambda i: False)

    def check(self) -> list:
        """Cached-gain forecasts must match a recomputation with gains=None.

        Recomputing projects the gains again (~10x a forecast), so the
        first and last scored request of each group are checked.
        """
        problems = []
        steps = self.sizes.cfg.horizon_steps
        for (group, which), (observed, prediction) in sorted(self.checked.items()):
            model = next(d.model for d in self.deployed if d.group == group)
            fresh = fkkf.run_filter(model, observed, steps, gains=None)
            diff = float(np.max(np.abs(fresh.mean_kbit - prediction.mean_kbit)))
            if not diff <= FILTER_TOLERANCE:
                problems.append(f"g{group} {which} request: cached-gain forecast "
                                f"differs from recomputation by {diff:.3g}")
        missing = set(self.sizes.online_groups) - {g for g, _ in self.checked}
        if missing:
            problems.append(f"no scored request for groups {sorted(missing)}")
        return problems

    def model_bytes(self) -> int:
        return self.model_bytes_total


class GridSearch:
    """hyperopt.grid_search on one group with holdout validation.

    Every candidate trains on the same flows, so the frontend and the
    Grams of each bandwidth pair are recomputed identically per
    candidate.  One op is one candidate; each call runs the whole grid.
    """

    name = "grid_search"
    block = 8
    tail_pct = 80      # two calls of 32 candidates leave 12 beyond p80
    min_calls = 2

    def __init__(self, seed: int, sizes: Sizes, scratch_dir: str):
        self.seed, self.sizes, self.scratch_dir = seed, sizes, scratch_dir
        self.audit_path = os.path.join(scratch_dir, "audit.csv")

    def setup(self):
        s = self.sizes
        template = synth.default_templates(s.n_groups)[s.grid_group]
        self.flows = synth.generate_group(
            template, s.grid_flows, s.flow_duration_s, s.cfg.sample_interval_s,
            seed=synth_seed(self.seed, s.grid_group, TRAIN), group_id=s.grid_group)
        self.candidates = [h.as_tuple() for h in s.grid_space.candidates()]
        self.calls = []   # (best hyper, best error, audit rows)

    def _call(self):
        s = self.sizes
        try:
            best, error = hyperopt.grid_search(
                self.flows, s.grid_space, validation="holdout_fraction",
                cfg=s.cfg, chunk_length_s=s.grid_chunk_s,
                holdout_fraction=1.0 / s.grid_flows, audit_path=self.audit_path)
            with open(self.audit_path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        finally:
            if os.path.exists(self.audit_path):
                os.remove(self.audit_path)
        audit = [(tuple(float(v) for v in row[:5]), float(row[5])) for row in rows]
        self.calls.append((best, error, audit))
        return audit

    def _collect(self, tracer, audits, wall) -> Outcome:
        out = Outcome(ops=_ops_from_probe(tracer), wall_s=wall)
        out.abs_errors = [e for audit in audits for _, e in audit if math.isfinite(e)]
        out.detail["candidates"] = sum(len(a) for a in audits)
        out.detail["candidates_inf"] = sum(1 for a in audits for _, e in a
                                           if not math.isfinite(e))
        return out

    def run(self, deadline: float, between_ops=None) -> Outcome:
        tracer = Tracer(after_op=between_ops)
        audits = []
        with patched(tracer, [OP_PROBE]):
            # A call (~17 s) cannot stop at the deadline, so stop when the
            # next one would end more than half a call past it.
            t0 = time.perf_counter()
            while True:
                audits.append(self._call())
                now = time.perf_counter()
                per_call = (now - t0) / len(audits)
                if len(audits) >= self.min_calls and now + per_call / 2 >= deadline:
                    break
            wall = time.perf_counter() - t0
        return self._collect(tracer, audits, wall)

    def run_fixed(self, tracer: Tracer) -> Outcome:
        t0 = time.perf_counter()
        audit = self._call()
        return self._collect(tracer, [audit], time.perf_counter() - t0)

    def _holdout(self):
        return self.flows[:-1], self.flows[-1]

    def check(self) -> list:
        problems = []
        s = self.sizes
        for best, error, audit in self.calls:
            if [p for p, _ in audit] != self.candidates:
                problems.append("audit rows do not match the grid's candidates")
                continue
            if not all(math.isclose(a, b, rel_tol=1e-11)
                       for a, b in zip(min(audit, key=lambda r: (r[1], r[0]))[0],
                                       best.as_tuple())):
                problems.append(f"best {best.as_tuple()} is not the audit minimum")
            if audit != self.calls[0][2]:
                problems.append("repeated grid_search calls disagree")
        if self.calls:
            best, error, _ = self.calls[0]
            train, test = self._holdout()
            again = abs(evaluation.evaluate_split(train, test, best, s.cfg,
                                                  s.grid_chunk_s).pred_error)
            if again != error:
                problems.append(f"best candidate re-scores {again!r}, grid said {error!r}")
        return problems

    def model_bytes(self) -> int:
        s = self.sizes
        best = self.calls[0][0]
        train, _ = self._holdout()
        model = fkkf.learn(train, best, s.cfg.subspace_size,
                           s.cfg.chunk_config(s.grid_chunk_s),
                           s.cfg.window_config(s.grid_chunk_s), kept_dim=s.cfg.kept_dim,
                           bandwidth_seed=s.cfg.bandwidth_seed)
        return _model_bytes(model, self.scratch_dir)


WORKLOADS = {cls.name: cls for cls in (LooSweep, OnlineForecast, GridSearch)}
