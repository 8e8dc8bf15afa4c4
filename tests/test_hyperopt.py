from types import SimpleNamespace

import numpy as np
import pytest

from flowcast.errors import EmptySpace, NoViableCandidate, NumericalFailure
from flowcast.evaluation import ExperimentConfig
from flowcast.fkkf import FkkfHyperparams
from flowcast.hyperopt import SearchSpace, grid_search
from flowcast.synth import BurstTemplate, generate_group

TEMPLATE = BurstTemplate(rise_duration_s=0.5, body_duration_s=0.7, peak_kbit=100.0,
                         impulse_period_s=0.03, impulse_jitter=0.1,
                         amplitude_jitter=0.1, inter_burst_gap_s=1.8)
# same geometry at a higher load level: a group whose peak heights vary,
# so ignoring observations costs real accuracy
TEMPLATE_HIGH = BurstTemplate(rise_duration_s=0.5, body_duration_s=0.7,
                              peak_kbit=250.0, impulse_period_s=0.03,
                              impulse_jitter=0.1, amplitude_jitter=0.1,
                              inter_burst_gap_s=1.8)
CFG = ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.6,), subspace_size=150,
                       kept_dim=30, peak_window_s=0.15)


@pytest.fixture(scope="module")
def flows():
    return generate_group(TEMPLATE, 4, 8.0, 0.01, seed=21)


@pytest.fixture(scope="module")
def mixed_flows():
    return (generate_group(TEMPLATE, 3, 8.0, 0.01, seed=31)
            + generate_group(TEMPLATE_HIGH, 3, 8.0, 0.01, seed=32))


def _singleton(**kw):
    base = dict(lambda_t=(0.05,), lambda_o=(1e-3,), state_bw_scale=(1.0,),
                obs_bw_scale=(1.0,), kappa=(1e-3,))
    base.update(kw)
    return SearchSpace(**base)


def test_singleton_grid_returns_point(flows):
    space = _singleton()
    best, error = grid_search(flows, space, "leave_one_out", cfg=CFG,
                              chunk_length_s=0.6)
    assert best == FkkfHyperparams(0.05, 1e-3, 1.0, 1.0, 1e-3)
    assert np.isfinite(error)


def test_gain_zero_candidate_loses(mixed_flows):
    # oracle: direct evaluation of both candidates -- kappa=1e12 ignores
    # observations entirely, so it cannot adapt to the held-out flow's peak
    # height and loses on a group with mixed load levels
    space = _singleton(kappa=(1e-3, 1e12))
    best, error = grid_search(mixed_flows, space, "leave_one_out", cfg=CFG,
                              chunk_length_s=0.6)
    assert best.kappa == 1e-3


def _stub_scores(monkeypatch, score):
    """Two stub flows; every grid_search candidate scores score(hyper) on
    each of their folds, in place of evaluate_split's peak error."""
    def fake(train, test, hyper, cfg, chunk_length_s, *, learner):
        return SimpleNamespace(pred_error=score(hyper))

    monkeypatch.setattr("flowcast.hyperopt.evaluation.evaluate_split", fake)
    return [object(), object()]


def test_tie_breaks_lexicographically(monkeypatch):
    flows_stub = _stub_scores(monkeypatch, lambda hyper: 0.5)  # all identical
    space = _singleton(lambda_t=(1e-2, 1e-3), kappa=(1e-1, 1e-4))
    best, error = grid_search(flows_stub, space, "leave_one_out", cfg=CFG,
                              chunk_length_s=0.6)
    assert error == 0.5
    assert best.as_tuple() == (1e-3, 1e-3, 1.0, 1.0, 1e-4)


def test_result_invariant_to_enumeration_order(monkeypatch):
    flows_stub = _stub_scores(
        monkeypatch, lambda hyper: abs(hyper.lambda_t - 1e-2) + abs(hyper.kappa - 1e-3))
    a = grid_search(flows_stub, _singleton(lambda_t=(1e-3, 1e-2), kappa=(1e-3, 1e-1)),
                    cfg=CFG, chunk_length_s=0.6)
    b = grid_search(flows_stub, _singleton(lambda_t=(1e-2, 1e-3), kappa=(1e-1, 1e-3)),
                    cfg=CFG, chunk_length_s=0.6)
    assert a[0] == b[0] and a[1] == b[1]


def test_all_failures_raise(monkeypatch):
    def broken(hyper):
        raise NumericalFailure("test_matrix")

    flows_stub = _stub_scores(monkeypatch, broken)
    with pytest.raises(NoViableCandidate):
        grid_search(flows_stub, _singleton(), cfg=CFG, chunk_length_s=0.6)


def test_empty_grid_rejected():
    with pytest.raises(EmptySpace):
        SearchSpace(lambda_t=())


def test_audit_log_written(tmp_path, monkeypatch):
    flows_stub = _stub_scores(monkeypatch, lambda hyper: float(hyper.kappa))
    audit = tmp_path / "audit.csv"
    grid_search(flows_stub, _singleton(kappa=(1e-4, 1e-3)), cfg=CFG,
                chunk_length_s=0.6, audit_path=audit)
    lines = audit.read_text().splitlines()
    assert lines[0].startswith("lambda_t,")
    assert len(lines) == 3


def test_audit_gives_the_reason_for_inf(tmp_path, monkeypatch):
    def gain_fails_at_large_kappa(hyper):
        if hyper.kappa > 1e-3:
            raise NumericalFailure("innovation_gain")
        return 0.25

    flows_stub = _stub_scores(monkeypatch, gain_fails_at_large_kappa)
    audit = tmp_path / "audit.csv"
    grid_search(flows_stub, _singleton(kappa=(1e-3, 1e-2)), cfg=CFG,
                chunk_length_s=0.6, audit_path=audit)
    header, finite, failed = [line.split(",") for line in audit.read_text().splitlines()]
    assert header[5:] == ["error", "reason"]
    assert finite[4:] == ["0.001", "0.25", ""]
    assert failed[4:] == ["0.01", "inf", "NumericalFailure.innovation_gain"]


def test_holdout_validation(flows):
    space = _singleton()
    best, error = grid_search(flows, space, "holdout_fraction", cfg=CFG,
                              chunk_length_s=0.6, holdout_fraction=0.25)
    assert np.isfinite(error)


def test_reported_error_reproducible(flows):
    # re-running the evaluation at the returned parameters reproduces the
    # reported error bit-exactly (fixed seeds throughout)
    from flowcast.evaluation import evaluate_split
    from flowcast.trace_io import leave_one_out_splits

    space = _singleton(kappa=(1e-3, 1e-2))
    best, error = grid_search(flows, space, "leave_one_out", cfg=CFG,
                              chunk_length_s=0.6)
    rerun = np.mean([abs(evaluate_split(train, test, best, CFG, 0.6).pred_error)
                     for train, test in leave_one_out_splits(list(flows))])
    assert float(rerun) == error


# --- staged learning -------------------------------------------------------

FULL_GRID = SearchSpace(lambda_t=(0.01, 0.05), lambda_o=(1e-3, 1e-2),
                        state_bw_scale=(0.5, 1.0), obs_bw_scale=(1.0, 2.0),
                        kappa=(1e-3, 1e-2))


def _audit(path):
    rows = path.read_text().splitlines()[1:]
    return [(tuple(float(v) for v in row.split(",")[:5]), float(row.split(",")[5]))
            for row in rows]


def _fresh_error(train, test, hyper):
    from flowcast.errors import FlowcastError
    from flowcast.evaluation import evaluate_split
    try:
        return abs(evaluate_split(train, test, hyper, CFG, 0.6).pred_error)
    except FlowcastError:
        return float("inf")


@pytest.mark.parametrize("validation", ["holdout_fraction", "leave_one_out"])
def test_audit_errors_equal_fresh_learning(flows, validation, tmp_path, monkeypatch):
    # the staged search must score every candidate exactly as evaluate_split
    # does with a model learned from scratch
    import flowcast.evaluation as evaluation
    from flowcast.hyperopt import _validation_folds
    group = list(flows) if validation == "holdout_fraction" else list(flows)[:3]
    folds = _validation_folds(group, validation, 0.25)
    assert len(folds) == (1 if validation == "holdout_fraction" else 3)
    staged = {}
    evaluate = evaluation.evaluate_split

    def spy(train, test, hyper, cfg, chunk_length_s, **kwargs):
        assert kwargs["learner"] is not None
        result = evaluate(train, test, hyper, cfg, chunk_length_s, **kwargs)
        staged[(group.index(test), hyper)] = abs(result.pred_error)
        return result

    monkeypatch.setattr(evaluation, "evaluate_split", spy)
    audit = tmp_path / "audit.csv"
    grid_search(group, FULL_GRID, validation, cfg=CFG, chunk_length_s=0.6,
                holdout_fraction=0.25, audit_path=audit)
    monkeypatch.setattr(evaluation, "evaluate_split", evaluate)
    rows = _audit(audit)
    assert [params for params, _ in rows] == [h.as_tuple()
                                               for h in FULL_GRID.candidates()]
    for hyper, (_, error) in zip(FULL_GRID.candidates(), rows):
        fresh = [_fresh_error(train, test, hyper) for train, test in folds]
        assert [staged.get((group.index(test), hyper), float("inf"))
                for _, test in folds] == fresh, hyper
        # the audit prints 12 significant digits
        assert error == float(format(float(np.mean(fresh)), ".12g")), hyper


def _gram_calls(monkeypatch, flows, space):
    import flowcast.fkkf as fkkf_mod
    calls = []
    gram = fkkf_mod.gram

    def counting(*args, **kwargs):
        calls.append(1)
        return gram(*args, **kwargs)

    # the learner's Gram binding; kernel_vector's per-observation Grams
    # belong to filtering, which runs for every candidate
    monkeypatch.setattr(fkkf_mod, "gram", counting)
    grid_search(flows, space, "leave_one_out", cfg=CFG, chunk_length_s=0.6)
    monkeypatch.setattr(fkkf_mod, "gram", gram)
    return len(calls)


def test_gram_builds_scale_with_folds_and_bandwidths(flows, monkeypatch):
    group = list(flows)[:3]
    small = _singleton(state_bw_scale=(0.5, 1.0), obs_bw_scale=(1.0, 2.0))
    count = _gram_calls(monkeypatch, group, small)
    # per fold: 3 state Grams per state scale (two m x n, the subspace
    # being smaller than the pair count, and the successors against the
    # distinct states, whose columns hold the inducing successors) and the
    # centres' Gram per bandwidth pair
    assert count == 3 * (2 * 3 + 2 * 2)
    assert _gram_calls(monkeypatch, group, FULL_GRID) == count


def test_evaluate_split_once_per_candidate_and_fold_with_its_learner(flows,
                                                                     monkeypatch):
    group = list(flows)
    calls = []

    def record(train, test, hyper, cfg, chunk_length_s, *, learner):
        assert cfg is CFG and chunk_length_s == 0.6
        assert [f for f in group if f is not test] == list(train)
        assert learner.train_flows == tuple(train)
        calls.append((group.index(test), hyper.as_tuple(), learner))
        return SimpleNamespace(pred_error=float(hyper.kappa))

    monkeypatch.setattr("flowcast.hyperopt.evaluation.evaluate_split", record)
    grid_search(group, FULL_GRID, "leave_one_out", cfg=CFG, chunk_length_s=0.6)
    expected = {(k, h.as_tuple()) for k in range(len(group))
                for h in FULL_GRID.candidates()}
    assert len(calls) == len(expected)
    assert {(k, params) for k, params, _ in calls} == expected
    # one learner per fold, shared by all of that fold's candidates
    learners = {k: [lrn for fold, _, lrn in calls if fold == k] for k in range(len(group))}
    assert all(lrn is fold_learners[0] for fold_learners in learners.values()
               for lrn in fold_learners)
    assert len({id(fold_learners[0]) for fold_learners in learners.values()}) == len(group)
