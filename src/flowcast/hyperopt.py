"""Grid search over the five filter hyperparameters.

The grid is exhaustive, candidates are independent, and ties break to
the lexicographically smallest parameter tuple, so the result never
depends on enumeration order.

Learning is staged (fkkf.StagedLearner), and each axis invalidates only
the stages that depend on it:

    validation fold        everything: framing, standardize + PCA,
                           median-heuristic bandwidths
    state_bw_scale         state Grams and both subspace factorizations
    obs_bw_scale           observation Gram G_cc over the distinct
                           observations
    lambda_t, lambda_o     ridge solutions (products on the kept SVDs)
    kappa                  nothing learned; gains and filtering only

so the search visits fold -> (state_bw_scale, obs_bw_scale) ->
(lambda_t, lambda_o, kappa).  Per fold it builds the frontend once, the
state kernel once per state_bw_scale, G_cc once per bandwidth pair and
each ridge solution once per pair and weight; only gains and filtering
run for every candidate.  Only the current fold's frontend and the
current pair's kernels are kept.  Each candidate is still scored by one
evaluation.evaluate_split call, and the stages it is first to need are
built inside that call.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import evaluation
from .errors import (EmptySpace, FlowcastError, InsufficientGroup,
                     NoViableCandidate)
from .fkkf import FkkfHyperparams
from .trace_io import leave_one_out_splits

VALIDATION_SCHEMES = ("leave_one_out", "holdout_fraction")


@dataclass(frozen=True)
class SearchSpace:
    lambda_t: tuple = (1e-4, 1e-3, 1e-2, 1e-1)
    lambda_o: tuple = (1e-4, 1e-3, 1e-2, 1e-1)
    state_bw_scale: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    obs_bw_scale: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    kappa: tuple = (1e-4, 1e-3, 1e-2, 1e-1)

    def __post_init__(self):
        for name in ("lambda_t", "lambda_o", "state_bw_scale", "obs_bw_scale", "kappa"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise EmptySpace(f"empty grid for {name}")
            if not all(0 < v < math.inf for v in grid):
                raise ValueError(f"grid values for {name} must be positive and finite, "
                                 f"got {list(grid)}")

    def candidates(self):
        """All parameter tuples in lexicographic order."""
        for combo in product(sorted(self.lambda_t), sorted(self.lambda_o),
                             sorted(self.state_bw_scale), sorted(self.obs_bw_scale),
                             sorted(self.kappa)):
            yield FkkfHyperparams(*combo)


def _stage_order(hyper: FkkfHyperparams) -> tuple:
    """Candidates sorted by this key share each kernel stage in one run."""
    return (hyper.state_bw_scale, hyper.obs_bw_scale, hyper.lambda_t,
            hyper.lambda_o, hyper.kappa)


def _fold_scorer(train, test, cfg, chunk_length_s):
    """hyper -> validation error on one fold, from one learner's stages."""
    learner = evaluation.split_learner(train, cfg, chunk_length_s)
    return lambda hyper: abs(evaluation.evaluate_split(
        train, test, hyper, cfg, chunk_length_s, learner=learner).pred_error)


def _validation_folds(flows, validation: str, holdout_fraction: float):
    flows = list(flows)
    if validation == "leave_one_out":
        if len(flows) < 2:
            raise InsufficientGroup("leave-one-out needs >= 2 flows")
        return leave_one_out_splits(flows)
    if validation == "holdout_fraction":
        k = max(1, int(round(holdout_fraction * len(flows))))
        if len(flows) - k < 1:
            raise InsufficientGroup("holdout leaves no training flows")
        train, held = flows[:-k], flows[-k:]
        return [(train, test) for test in held]
    raise ValueError(f"unknown validation scheme: {validation}")


def grid_search(train_flows, space: SearchSpace, validation: str = "leave_one_out",
                *, cfg=None, chunk_length_s: float | None = None,
                holdout_fraction: float = 0.25, audit_path=None):
    """Exhaustively evaluate the grid and return (best hyperparams, error).

    A candidate's error on one validation fold is the magnitude of its
    peak prediction error (evaluation.evaluate_split); its error is the
    mean over the folds.  Candidates that fail to learn score inf; if all
    fail, NoViableCandidate is raised.  The audit CSV, when asked for,
    gets one row per candidate: the five hyperparameters, the error and
    the reason for an inf, the skip reason of the first fold that failed
    (evaluation._skip_reason; empty for a finite error).
    """
    if cfg is None:
        cfg = evaluation.ExperimentConfig()
    if chunk_length_s is None:
        chunk_length_s = cfg.chunk_lengths_s[0]
    folds = _validation_folds(train_flows, validation, holdout_fraction)

    candidates = list(space.candidates())
    order = sorted(range(len(candidates)), key=lambda i: _stage_order(candidates[i]))
    fold_errors = [[] for _ in candidates]
    reasons = [""] * len(candidates)
    for train, test in folds:
        # rebinding score releases the previous fold's stages; this
        # fold's are built on its first candidate
        score = _fold_scorer(train, test, cfg, chunk_length_s)
        for i in order:
            try:
                fold_errors[i].append(score(candidates[i]))
            except FlowcastError as exc:
                fold_errors[i].append(float("inf"))
                reasons[i] = reasons[i] or evaluation._skip_reason(exc)

    audit_rows = []
    best = None  # (error, tuple, hyper)
    for hyper, errors, reason in zip(candidates, fold_errors, reasons):
        error = float(np.mean(errors)) if errors else float("inf")
        audit_rows.append((hyper.as_tuple(), error, reason))
        key = (error, hyper.as_tuple())
        if best is None or key < (best[0], best[1]):
            best = (error, hyper.as_tuple(), hyper)
    if audit_path is not None:
        _append_audit(audit_path, audit_rows)
    if best is None or not np.isfinite(best[0]):
        raise NoViableCandidate("no grid point produced a finite validation error")
    return best[2], best[0]


def _append_audit(path, rows) -> None:
    write_header = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(["lambda_t", "lambda_o", "state_bw_scale",
                             "obs_bw_scale", "kappa", "error", "reason"])
        for params, error, reason in rows:
            writer.writerow([format(p, ".12g") for p in params]
                            + [format(error, ".12g"), reason])
