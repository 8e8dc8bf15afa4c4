"""Command-line frontend: ingest -> cluster -> learn -> predict -> evaluate.

Every command echoes the config hash, writes its outputs atomically
(temp file + rename) and drops a JSON run manifest next to them; each
manifest records the numpy and scipy versions, the BLAS thread
variables and the BLAS library each of the two links under "runtime".
Exit codes: 2 parse errors, 3 missing model file, 4 numerical failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np
import scipy

from . import clustering, evaluation, fkkf, hyperopt, synth, trace_io
from .config import RunConfig, load_config
from .errors import FlowcastError, NumericalFailure, ParseError

DURATION_BUCKETS = (0.1, 1.0, 100.0)
# fold outcomes and timings depend on the BLAS thread count, so every
# manifest records these (null when unset)
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Ctx:
    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.audit_rows: list = []  # this run's hyper_audit.csv rows


def _atomic_write(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_manifest(ctx: _Ctx, command: str, outputs, record: dict) -> None:
    manifest = {
        "command": command,
        "config_hash": ctx.config.config_hash(),
        "seed": ctx.config.seed,
        "outputs": [str(p) for p in outputs],
        "runtime": {"numpy": np.__version__, "scipy": scipy.__version__,
                    **{var: os.environ.get(var) for var in _THREAD_VARS},
                    "blas": {"numpy": _blas_library(np), "scipy": _blas_library(scipy)}},
        **record,
    }
    path = ctx.out_dir / f"manifest_{command}.json"
    _atomic_write(path, lambda tmp: Path(tmp).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"))


def _blas_library(module) -> dict | None:
    """Name, version and OpenBLAS configuration of the BLAS module links,
    or None where its show_config has no "dicts" mode (numpy < 1.26,
    scipy < 1.11).  numpy and scipy each link their own (see
    fkkf._matmul)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _echo_hash(ctx: _Ctx) -> None:
    click.echo(f"config_hash={ctx.config.config_hash()}")


def _load_flows(ctx: _Ctx, path, fmt: str) -> list:
    """The flows of one file, refusing any sampled at another interval
    than experiment.sample_interval_s."""
    t_s = ctx.config.experiment.sample_interval_s
    flows = trace_io.load_traces(path, fmt, sample_interval_s=t_s)
    for i, flow in enumerate(flows):
        if not math.isclose(flow.sample_interval_s, t_s, rel_tol=1e-9):
            raise FlowcastError(f"flow {i} of {path} is sampled every "
                                f"{flow.sample_interval_s!r}s, but "
                                f"experiment.sample_interval_s is {t_s!r}s")
    return flows


def _load_store(ctx: _Ctx, path) -> list:
    return _load_flows(ctx, path, "csv_binned")


def _resolve_hyper(ctx: _Ctx, train_flows, chunk_length_s, group_id):
    """The configured hyperparameters, or the best of a grid search.

    Each search's audit rows go into hyper_audit.csv behind the group id
    and chunk length they belong to, also when no candidate was viable;
    the file holds the rows of this run's searches only.
    """
    hyp = ctx.config.hyper
    if hyp.source == "fixed":
        return hyp.fixed
    with tempfile.TemporaryDirectory(dir=ctx.out_dir) as tmp:
        search_audit = Path(tmp) / "audit.csv"
        try:
            best, _ = hyperopt.grid_search(
                train_flows, hyp.grid, hyp.validation, cfg=ctx.config.experiment,
                chunk_length_s=chunk_length_s, holdout_fraction=hyp.holdout_fraction,
                audit_path=search_audit)
        finally:
            if search_audit.exists():  # also written when no candidate was viable
                _record_audit(ctx, search_audit,
                              [str(group_id), format(chunk_length_s, ".12g")])
    return best


def _record_audit(ctx: _Ctx, search_audit: Path, label: list) -> None:
    """Add one search's audit rows behind label; rewrite hyper_audit.csv."""
    with open(search_audit, newline="") as fh:
        header, *rows = csv.reader(fh)
    ctx.audit_rows.extend(label + row for row in rows)

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group_id", "chunk_length_s", *header])
            writer.writerows(ctx.audit_rows)

    _atomic_write(ctx.out_dir / "hyper_audit.csv", write)


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML config file (defaults apply when omitted).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              help="Directory for artifacts.")
@click.pass_context
def main(ctx, config_path, seed, out_dir):
    """Spectral kernel Kalman filtering for per-flow traffic prediction."""
    try:
        config = load_config(config_path, None if seed is None else {"seed": seed})
    except ParseError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = _Ctx(config=config, out_dir=out)


def _per_length_record(per_length: dict) -> tuple:
    """Each chunk length's skipped folds per reason and count of members
    left out of training, for the manifest."""
    results = {format(length, ".12g"): per_length[length] for length in sorted(per_length)}
    return ({key: dict(sorted(result.skips.items())) for key, result in results.items()},
            {key: result.flows_left_out for key, result in results.items()})


def _run(ctx_obj, command, fn, record: dict | None = None):
    """Run a command's work and write its manifest.

    fn returns the output paths; what it puts into `record` meanwhile
    becomes extra manifest keys.
    """
    try:
        outputs = fn()
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    except FileNotFoundError as exc:
        click.echo(f"missing file: {exc}", err=True)
        sys.exit(3)
    except NumericalFailure as exc:
        click.echo(f"numerical failure in matrix {exc.matrix}: {exc}", err=True)
        sys.exit(4)
    except FlowcastError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _write_manifest(ctx_obj, command, outputs, record or {})


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv_events", "csv_binned"]),
              default="csv_events")
@click.pass_obj
def ingest(ctx, input_path, fmt):
    """Normalize raw CSVs (a file or a directory of them) into the store."""
    _echo_hash(ctx)

    def work():
        source = Path(input_path)
        if source.is_dir():
            traces = []
            for child in sorted(source.glob("*.csv")):
                traces.extend(_load_flows(ctx, child, fmt))
            traces.sort(key=lambda t: (t.key, t.start_time))
        else:
            traces = _load_flows(ctx, source, fmt)
        store = ctx.out_dir / "traces.csv"
        _atomic_write(store, lambda tmp: trace_io.write_binned(traces, tmp))
        buckets = [0, 0, 0, 0]
        for trace in traces:
            d = trace.duration_s
            if d < DURATION_BUCKETS[0]:
                buckets[0] += 1
            elif d < DURATION_BUCKETS[1]:
                buckets[1] += 1
            elif d < DURATION_BUCKETS[2]:
                buckets[2] += 1
            else:
                buckets[3] += 1
        click.echo(f"flows={len(traces)}")
        click.echo(f"duration_buckets <0.1s={buckets[0]} 0.1-1s={buckets[1]} "
                   f"1-100s={buckets[2]} >=100s={buckets[3]}")
        return [store]

    _run(ctx, "ingest", work)


@main.command()
@click.argument("traces_path", type=click.Path())
@click.pass_obj
def cluster(ctx, traces_path):
    """Group flows by spectral similarity; write the assignment CSV."""
    _echo_hash(ctx)

    def work():
        flows = _load_store(ctx, traces_path)
        clu = ctx.config.clustering
        chunk_cfg = ctx.config.signature_chunk_config()
        groups, _ = clustering.cluster(flows, clu.max_groups,
                                       clu.distance_threshold, chunk_cfg,
                                       clu.signature_frames)
        rows = clustering.assignment_rows(len(flows), groups)
        out = ctx.out_dir / "groups.csv"

        def write(tmp):
            with open(tmp, "w", newline="") as fh:
                fh.write("flow_id,group_id,distance_to_centroid\n")
                for flow_id, group_id, dist in rows:
                    fh.write(f"{flow_id},{group_id},{format(dist, '.12g')}\n")

        _atomic_write(out, write)
        click.echo(f"groups={len(groups)}")
        return [out]

    _run(ctx, "cluster", work)


def _read_groups(path):
    """group id -> member flow ids from a cluster assignment CSV.

    A row that is not three fields with integer flow and group ids raises
    ParseError; blank lines are skipped.
    """
    groups: dict[int, list] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if line_no == 1 or not line.strip():
                continue
            try:
                flow_id, group_id, _ = line.strip().split(",")
                groups.setdefault(int(group_id), []).append(int(flow_id))
            except ValueError:
                raise ParseError(f"malformed group row {line.strip()!r} in {path}",
                                 line=line_no) from None
    groups.pop(-1, None)
    return groups


def _store_flow(flows, flow_id: int, source):
    """flows[flow_id], refusing ids outside the store (negative ones too)."""
    if not 0 <= flow_id < len(flows):
        raise FlowcastError(f"flow {flow_id} from {source} not in store "
                            f"({len(flows)} flows)")
    return flows[flow_id]


def _group_flows(ctx: _Ctx, traces_path, groups_path, group_id: int) -> list:
    """The store flows of one group of a cluster assignment CSV."""
    flows = _load_store(ctx, traces_path)
    members = _read_groups(groups_path).get(group_id)
    if not members:
        raise FlowcastError(f"group {group_id} not found in {groups_path}")
    return [_store_flow(flows, i, groups_path) for i in members]


def _with_chunk_length(exp, chunk_length_s: float):
    """exp with chunk_length_s as its one length, checked as config load checks it."""
    try:
        return dataclasses.replace(exp, chunk_lengths_s=(chunk_length_s,))
    except ValueError as exc:
        raise ParseError(f"--chunk-length {chunk_length_s!r}: {exc}") from None


@main.command()
@click.argument("traces_path", type=click.Path())
@click.option("--groups", "groups_path", type=click.Path(), required=True)
@click.option("--group-id", type=int, required=True)
@click.option("--chunk-length", type=float, default=None,
              help="Chunk length in seconds (default: first sweep entry).")
@click.pass_obj
def learn(ctx, traces_path, groups_path, group_id, chunk_length):
    """Learn a model for one flow group and persist it."""
    _echo_hash(ctx)
    record = {}  # the manifest's "hyper": the model file keeps only kappa

    def work():
        exp = ctx.config.experiment
        if chunk_length is not None:
            exp = _with_chunk_length(exp, chunk_length)
        length = exp.chunk_lengths_s[0]
        group_flows = _group_flows(ctx, traces_path, groups_path, group_id)
        hyper = _resolve_hyper(ctx, group_flows, length, group_id)
        record["hyper"] = dataclasses.asdict(hyper)
        model = evaluation.split_learner(group_flows, exp, length).model(hyper)
        out = ctx.out_dir / f"model_group{group_id}.npz"
        _atomic_write(out, lambda tmp: fkkf.save_model(model, tmp))
        click.echo(f"model={out} centres={model.n_centres} subspace={model.subspace_size}")
        return [out]

    _run(ctx, "learn", work, record)


@main.command()
@click.argument("traces_path", type=click.Path())
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--flow-id", type=int, required=True)
@click.option("--start-step", type=int, default=None,
              help="Chunk index of the first observation (default: located peak).")
@click.pass_obj
def predict(ctx, traces_path, model_path, flow_id, start_step):
    """Filter a flow prefix and emit the (t, predicted, variance) forecast CSV."""
    _echo_hash(ctx)

    def work():
        if not os.path.exists(model_path):
            raise FileNotFoundError(model_path)
        model = fkkf.load_model(model_path)
        flow = _store_flow(_load_store(ctx, traces_path), flow_id, "--flow-id")
        exp = ctx.config.experiment
        fe = model.frontend
        if fe is None:
            raise FlowcastError(f"{model_path}: model has no spectral frontend "
                                f"(learned from frames, not flows)")
        _, horizon, pred = evaluation.forecast_flow(model, flow.samples, exp, start_step)
        steps = exp.horizon_steps
        var_kbit = fe.kbit_variance(
            fkkf.forecast_variance(model, pred.filtered_cov, steps))
        times = np.arange(horizon.start, horizon.stop) * fe.chunk_cfg.sample_interval_s
        actual = np.full(times.size, np.nan)
        have = flow.samples[horizon]
        actual[:have.size] = have
        out = ctx.out_dir / f"prediction_flow{flow_id}.csv"
        _atomic_write(out, lambda tmp: evaluation.write_prediction_csv(
            times, actual, pred.mean_kbit, var_kbit, tmp))
        click.echo(f"forecast_steps={steps} rows={times.size}")
        return [out]

    _run(ctx, "predict", work)


@main.command()
@click.argument("traces_path", type=click.Path())
@click.option("--groups", "groups_path", type=click.Path(), required=True)
@click.pass_obj
def evaluate(ctx, traces_path, groups_path):
    """Leave-one-out evaluation of every group; write the table-style report.

    The manifest records each group's skipped folds per chunk length and
    reason under "skips", and per chunk length the members left out of
    training as too short to frame under "flows_left_out"; report.csv
    records neither.
    """
    _echo_hash(ctx)
    skips, left_out = {}, {}

    def work():
        flows = _load_store(ctx, traces_path)
        group_map = _read_groups(groups_path)
        exp = ctx.config.experiment
        reports = []
        optimal_lengths = []
        for group_id in sorted(group_map):
            members = [_store_flow(flows, i, groups_path) for i in group_map[group_id]]
            if len(members) < 2:
                continue
            hyper = _resolve_hyper(ctx, members, exp.chunk_lengths_s[0], group_id)
            report, per_length = evaluation.build_group_report(group_id, members,
                                                               hyper, exp)
            skips[str(group_id)], left_out[str(group_id)] = _per_length_record(per_length)
            reports.append(report)
            optimal_lengths.append(report.optimal_chunk_len_s)
            click.echo(f"group {group_id}: pred_error={report.pred_error_optimal:+.3f} "
                       f"constant={report.constant_error:+.3f} "
                       f"optimal_len={report.optimal_chunk_len_s}s "
                       f"quality={report.quality}")
        out = ctx.out_dir / "report.csv"
        meta = {"config_hash": ctx.config.config_hash(), "seed": ctx.config.seed,
                "error_aggregation": "mean_signed"}
        _atomic_write(out, lambda tmp: evaluation.write_report_csv(reports, tmp, meta))
        if optimal_lengths:
            click.echo(f"mean_optimal_chunk_len_s={np.mean(optimal_lengths):.3f}")
        return [out]

    _run(ctx, "evaluate", work, {"skips": skips, "flows_left_out": left_out})


@main.command()
@click.argument("traces_path", type=click.Path())
@click.option("--groups", "groups_path", type=click.Path(), required=True)
@click.option("--group-id", type=int, required=True)
@click.pass_obj
def sweep(ctx, traces_path, groups_path, group_id):
    """Chunk-length sweep for one group; write per-length errors.

    The manifest records the skipped folds per chunk length and reason
    under "skips" and the members left out of training under
    "flows_left_out", keyed by the group id as in evaluate's.
    """
    _echo_hash(ctx)
    skips, left_out = {}, {}

    def work():
        group_flows = _group_flows(ctx, traces_path, groups_path, group_id)
        exp = ctx.config.experiment
        hyper = _resolve_hyper(ctx, group_flows, exp.chunk_lengths_s[0], group_id)
        optimal, per_length = evaluation.chunk_length_sweep(group_flows, hyper, exp)
        skips[str(group_id)], left_out[str(group_id)] = _per_length_record(per_length)
        out = ctx.out_dir / f"sweep_group{group_id}.csv"

        def write(tmp):
            with open(tmp, "w", newline="") as fh:
                fh.write("chunk_length_s,pred_error,constant_error,ar_error\n")
                # a length whose every fold was skipped shows in the manifest only
                for length in sorted(L for L in per_length if per_length[L].splits):
                    r = per_length[length]
                    fh.write(f"{format(length, '.12g')},{format(r.pred_error, '.12g')},"
                             f"{format(r.constant_error, '.12g')},"
                             f"{format(r.ar_error, '.12g')}\n")

        _atomic_write(out, write)
        click.echo(f"optimal_chunk_len_s={optimal}")
        return [out]

    _run(ctx, "sweep", work, {"skips": skips, "flows_left_out": left_out})


@main.command(name="synth")
@click.pass_obj
def synth_cmd(ctx):
    """Generate synthetic recurring-flow groups into the binned store."""
    _echo_hash(ctx)

    def work():
        cfg = ctx.config.synth
        templates = synth.default_templates(cfg.n_groups, cfg.peak_kbit)
        flows = []
        truth_rows = []
        for g, template in enumerate(templates):
            group = synth.generate_group(template, cfg.flows_per_group,
                                         cfg.duration_s,
                                         ctx.config.experiment.sample_interval_s,
                                         seed=ctx.config.seed + g, group_id=g)
            for flow in group:
                truth_rows.append((len(flows), g))
                flows.append(flow)
        store = ctx.out_dir / "traces.csv"
        _atomic_write(store, lambda tmp: trace_io.write_binned(flows, tmp))
        truth = ctx.out_dir / "truth_groups.csv"

        def write_truth(tmp):
            with open(tmp, "w", newline="") as fh:
                fh.write("flow_id,group_id\n")
                for flow_id, group_id in truth_rows:
                    fh.write(f"{flow_id},{group_id}\n")

        _atomic_write(truth, write_truth)
        click.echo(f"flows={len(flows)} groups={cfg.n_groups}")
        return [store, truth]

    _run(ctx, "synth", work)


if __name__ == "__main__":
    main()
