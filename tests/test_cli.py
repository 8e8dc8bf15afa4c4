import csv
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from flowcast import cli, evaluation, fkkf
from flowcast.cli import main
from flowcast.config import load_config
from flowcast.errors import ParseError, UndefinedError
from flowcast.evaluation import locate_peak_rise
from flowcast.trace_io import MAX_FLOW_BINS, load_traces


@pytest.fixture()
def runner():
    return CliRunner()


CONFIG_YAML = """\
# small synthetic setup for CLI tests
experiment:
  observe_steps: 4
  chunk_lengths_s: [0.6]
  subspace_size: 120
  kept_dim: 30
  peak_window_s: 0.15
clustering:
  max_groups: 5
  distance_threshold: 400.0
  signature_chunk_length_s: 0.6
synth:
  n_groups: 2
  flows_per_group: 4
  duration_s: 8.0
hyper:
  source: fixed
  fixed: {lambda_t: 0.05, lambda_o: 1.0e-3, state_bw_scale: 1.0, obs_bw_scale: 1.0, kappa: 1.0e-3}
seed: 7
"""


@pytest.fixture()
def workspace(tmp_path, runner):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_YAML)
    out = tmp_path / "out"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "synth"])
    assert result.exit_code == 0, result.output
    return cfg, out


def test_config_hash_echoed(workspace, runner):
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "synth"])
    assert "config_hash=" in result.output


def test_synth_writes_store_and_truth(workspace):
    _, out = workspace
    assert (out / "traces.csv").exists()
    truth = (out / "truth_groups.csv").read_text().splitlines()
    assert truth[0] == "flow_id,group_id"
    assert len(truth) == 1 + 8  # 2 groups x 4 flows


def test_synth_manifest(workspace):
    _, out = workspace
    manifest = json.loads((out / "manifest_synth.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert len(manifest["config_hash"]) == 12


def test_every_manifest_records_the_runtime(workspace, runner, monkeypatch):
    # fold outcomes and timings depend on the BLAS thread count
    import scipy
    cfg, out = workspace
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for args in (["synth"], ["cluster", str(out / "traces.csv")]):
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)] + args)
        assert result.exit_code == 0, result.output
    _learned_model(runner, cfg, out)
    manifests = sorted(out.glob("manifest_*.json"))
    assert [p.name for p in manifests] == ["manifest_cluster.json", "manifest_learn.json",
                                           "manifest_synth.json"]
    # numpy and scipy each link their own BLAS library
    blas = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        built = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = {key: built.get(key)
                      for key in ("name", "version", "openblas configuration")}
    for path in manifests:
        assert json.loads(path.read_text())["runtime"] == {
            "numpy": np.__version__, "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None, "blas": blas}, path.name


def test_runtime_blas_null_without_a_dicts_mode():
    class Old:  # show_config before numpy 1.26 and scipy 1.11 takes no mode
        @staticmethod
        def show_config():
            return None

    assert cli._blas_library(Old) is None


def test_hyper_audit_rows_name_their_group(workspace, runner, tmp_path):
    # two groups, a 2-point kappa grid each: a second run into the same
    # --out replaces the first run's rows
    cfg, out = workspace
    grid_cfg = tmp_path / "grid.yaml"
    grid_cfg.write_text(CONFIG_YAML.replace(
        "  source: fixed\n",
        "  source: grid\n  validation: holdout_fraction\n"
        "  grid: {lambda_t: [0.05], lambda_o: [1.0e-3], state_bw_scale: [1.0],"
        " obs_bw_scale: [1.0], kappa: [1.0e-3, 1.0e-2]}\n"))
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    for _ in range(2):
        result = runner.invoke(main, ["--config", str(grid_cfg), "--out", str(out),
                                      "evaluate", str(out / "traces.csv"),
                                      "--groups", str(out / "groups.csv")])
        assert result.exit_code == 0, result.output
    with open(out / "hyper_audit.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["group_id", "chunk_length_s", "lambda_t", "lambda_o",
                      "state_bw_scale", "obs_bw_scale", "kappa", "error", "reason"]
    assert [(row[0], row[1], row[6]) for row in rows] == [
        ("1", "0.6", "0.001"), ("1", "0.6", "0.01"),
        ("2", "0.6", "0.001"), ("2", "0.6", "0.01")]
    assert [path.name for path in out.iterdir() if path.is_dir()] == []


def test_ingest_binned_roundtrip(workspace, runner, tmp_path):
    cfg, out = workspace
    out2 = tmp_path / "out2"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out2),
                                  "ingest", str(out / "traces.csv"),
                                  "--format", "csv_binned"])
    assert result.exit_code == 0, result.output
    assert "flows=8" in result.output
    assert "duration_buckets" in result.output
    assert (out2 / "traces.csv").exists()


def test_ingest_events(runner, tmp_path):
    events = tmp_path / "events.csv"
    rows = ["src,src_port,dst,dst_port,proto,ts_s,bytes"]
    for i in range(200):
        rows.append(f"10.0.0.1,5001,10.0.0.2,80,TCP,{i*0.01:.2f},500")
    events.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(events)])
    assert result.exit_code == 0, result.output
    assert "flows=1" in result.output


def test_ingest_malformed_row_exit_2(runner, tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("src,src_port,dst,dst_port,proto,ts_s,bytes\n"
                      "10.0.0.1,5001,10.0.0.2,80,TCP,zero,500\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(events)])
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_ingest_empty_file(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(empty)])
    assert result.exit_code == 0
    assert "flows=0" in result.output


def test_ingest_empty_directory(runner, tmp_path):
    src = tmp_path / "input"
    src.mkdir()
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(src)])
    assert result.exit_code == 0
    assert "flows=0" in result.output


def test_ingest_directory_of_files(runner, tmp_path):
    src = tmp_path / "input"
    src.mkdir()
    header = "src,src_port,dst,dst_port,proto,ts_s,bytes\n"
    (src / "a.csv").write_text(header + "10.0.0.1,5001,10.0.0.2,80,TCP,0.0,100\n")
    (src / "b.csv").write_text(header + "10.0.0.3,5002,10.0.0.2,80,UDP,0.0,100\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(src)])
    assert result.exit_code == 0
    assert "flows=2" in result.output


def _store_at_interval(out, t_s):
    """The workspace store rewritten as if sampled every t_s seconds."""
    text = (out / "traces.csv").read_text().replace(" t_s=0.01 ", f" t_s={t_s} ")
    store = out / f"traces_{t_s}.csv"
    store.write_text(text)
    return store


def test_sweep_store_at_another_interval_exit_1(workspace, runner):
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    store = _store_at_interval(out, 0.02)
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "sweep",
                                  str(store), "--groups", str(out / "groups.csv"),
                                  "--group-id", "1"])
    _assert_one_line_exit_1(result, f"flow 0 of {store} is sampled every 0.02s, "
                                    f"but experiment.sample_interval_s is 0.01s")
    assert not (out / "sweep_group1.csv").exists()


def test_ingest_store_at_another_interval_exit_1(workspace, runner, tmp_path):
    cfg, out = workspace
    store = _store_at_interval(out, 0.02)
    out2 = tmp_path / "out2"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out2),
                                  "ingest", str(store), "--format", "csv_binned"])
    _assert_one_line_exit_1(result, f"flow 0 of {store} is sampled every 0.02s")
    assert not (out2 / "traces.csv").exists()


def test_ingest_events_spanning_more_than_the_bin_cap_exit_1(runner, tmp_path):
    # 1e13 s at 0.01 s would be 7 PiB of bins; refused before any allocation
    events = tmp_path / "events.csv"
    events.write_text("src,src_port,dst,dst_port,proto,ts_s,bytes\n"
                      "10.0.0.1,5001,10.0.0.2,80,TCP,0.00,500\n"
                      "10.0.0.1,5001,10.0.0.2,80,TCP,1e13,500\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(events)])
    _assert_one_line_exit_1(result, f"more than {MAX_FLOW_BINS} bins of 0.01 s")
    assert "src_addr='10.0.0.1'" in result.output
    assert not (out / "traces.csv").exists()


def test_ingest_binned_t_index_at_the_bin_cap_exit_2(runner, tmp_path):
    store = tmp_path / "store.csv"
    store.write_text("flow_id,t_index,kbit\n"
                     "#flow id=0 src=10.0.0.1 src_port=5001 dst=10.0.0.2 dst_port=80 "
                     "proto=TCP t_s=0.01 start=0.0\n"
                     "0,0,1.0\n"
                     f"0,{MAX_FLOW_BINS},1.0\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(store),
                                  "--format", "csv_binned"])
    _assert_parse_error_exit_2(result, f"line 4: t_index {MAX_FLOW_BINS} is at or above")
    assert not (out / "traces.csv").exists()


def test_cluster_recovers_groups(workspace, runner):
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "cluster", str(out / "traces.csv")])
    assert result.exit_code == 0, result.output
    assert "groups=2" in result.output
    lines = (out / "groups.csv").read_text().splitlines()
    assert lines[0] == "flow_id,group_id,distance_to_centroid"
    got = {}
    for line in lines[1:]:
        fid, gid, _ = line.split(",")
        got.setdefault(gid, []).append(int(fid))
    # compare against the generation truth
    truth_lines = (out / "truth_groups.csv").read_text().splitlines()[1:]
    truth = {}
    for line in truth_lines:
        fid, gid = line.split(",")
        truth.setdefault(gid, set()).add(int(fid))
    got_sets = sorted(sorted(v) for v in got.values())
    truth_sets = sorted(sorted(v) for v in truth.values())
    assert got_sets == truth_sets


def test_cluster_computes_each_signature_once(workspace, runner, monkeypatch):
    # the assignment distances reuse the signatures cluster grouped by
    from flowcast import clustering
    calls = []
    for name in ("signature", "transform"):
        def counted(*args, _fn=getattr(clustering, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(clustering, name, counted)
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "cluster", str(out / "traces.csv")])
    assert result.exit_code == 0, result.output
    assert (calls.count("signature"), calls.count("transform")) == (8, 8)


def _assert_parse_error_exit_2(result, text):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    lines = result.output.strip().splitlines()
    assert lines[-1].startswith("parse error: ") and text in lines[-1]


def _store_with_kbit(out, kbit):
    """The workspace store with flow 0's sample 50 replaced by kbit."""
    lines = (out / "traces.csv").read_text().splitlines()
    row = 52  # after the header and the #flow line
    assert lines[row].startswith("0,50,")
    lines[row] = f"0,50,{kbit}"
    store = out / "traces_bad.csv"
    store.write_text("\n".join(lines) + "\n")
    return store, row + 1


@pytest.mark.parametrize("kbit", ["nan", "inf", "-1.0"])
@pytest.mark.parametrize("command", ["cluster", "learn", "evaluate", "sweep"])
def test_store_value_not_finite_non_negative_exit_2(workspace, runner, kbit, command):
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "cluster", str(out / "traces.csv")])
    assert result.exit_code == 0, result.output
    store, line = _store_with_kbit(out, kbit)
    written = {"cluster": "groups.csv", "learn": "model_group1.npz",
               "evaluate": "report.csv", "sweep": "sweep_group1.csv"}[command]
    before = (out / written).read_bytes() if (out / written).exists() else None
    args = [] if command == "cluster" else ["--groups", str(out / "groups.csv")]
    args += ["--group-id", "1"] if command in ("learn", "sweep") else []
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  command, str(store)] + args)
    _assert_parse_error_exit_2(result, f"line {line}: kbit {float(kbit)} is not")
    after = (out / written).read_bytes() if (out / written).exists() else None
    assert after == before


@pytest.mark.parametrize("ts, nbytes, code, text", [
    ("0.02", "nan", 2, "line 3: non-finite ts_s/bytes"),
    ("nan", "500", 2, "line 3: non-finite ts_s/bytes"),
    ("inf", "500", 2, "line 3: non-finite ts_s/bytes"),
    ("0.02", "-1", 1, "line 3: negative byte count"),
])
def test_ingest_event_value_refused(runner, tmp_path, ts, nbytes, code, text):
    events = tmp_path / "events.csv"
    events.write_text("src,src_port,dst,dst_port,proto,ts_s,bytes\n"
                      "10.0.0.1,5001,10.0.0.2,80,TCP,0.00,500\n"
                      f"10.0.0.1,5001,10.0.0.2,80,TCP,{ts},{nbytes}\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "ingest", str(events)])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert text in result.output.strip().splitlines()[-1]
    assert not (out / "traces.csv").exists()


def test_learn_and_predict(workspace, runner):
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "learn", str(out / "traces.csv"),
                                  "--groups", str(out / "groups.csv"),
                                  "--group-id", "1"])
    assert result.exit_code == 0, result.output
    model_path = out / "model_group1.npz"
    assert model_path.exists()

    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "predict", str(out / "traces.csv"),
                                  "--model", str(model_path), "--flow-id", "0"])
    assert result.exit_code == 0, result.output
    assert "forecast_steps=20" in result.output
    lines = (out / "prediction_flow0.csv").read_text().splitlines()
    assert lines[0] == "t_s,actual_kbit,predicted_kbit,variance"
    assert len(lines) == 1 + 100  # 20 steps x 0.05 s at T_S = 0.01


def test_predict_variance_column(workspace, runner):
    # oracle: the forecast of the observed frames rebuilt by hand from the
    # located peak rise, and the forecast variance of its filtered covariance
    cfg, out = workspace
    model_path = _learned_model(runner, cfg, out)
    result = _predict_with_model(runner, cfg, out, model_path)
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in
            (out / "prediction_flow0.csv").read_text().splitlines()[1:]]

    model = fkkf.load_model(model_path)
    fe, exp = model.frontend, load_config(cfg).experiment
    samples = load_traces(out / "traces.csv", "csv_binned")[0].samples
    start = locate_peak_rise(samples, fe.chunk_cfg.chunk_interval_s,
                             fe.chunk_cfg.sample_interval_s, exp.peak_window_s,
                             exp.peak_factor)
    raw = fkkf.observation_frames(samples, fe.chunk_cfg, fe.chunk_cfg.chunk_length_s)
    observed = fe.reduce_observations(raw[start:start + exp.observe_steps])
    pred = fkkf.run_filter(model, observed, exp.horizon_steps)
    variance = fe.kbit_variance(
        fkkf.forecast_variance(model, pred.filtered_cov, exp.horizon_steps))
    first = (start + exp.observe_steps) * fe.chunk_cfg.hop_samples
    assert [row[0] for row in rows] == [
        format(float(t), ".12g") for t in
        (first + np.arange(len(rows))) * fe.chunk_cfg.sample_interval_s]
    assert [row[2] for row in rows] == [format(float(v), ".12g") for v in pred.mean_kbit]
    assert [row[3] for row in rows] == [format(float(v), ".12g") for v in variance]
    assert np.all(variance >= 0)


def test_predict_missing_model_exit_3(workspace, runner):
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "predict", str(out / "traces.csv"),
                                  "--model", str(out / "missing.npz"),
                                  "--flow-id", "0"])
    assert result.exit_code == 3


def _predict_with_model(runner, cfg, out, model_path):
    return runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                "predict", str(out / "traces.csv"),
                                "--model", str(model_path), "--flow-id", "0"])


def test_learn_manifest_records_the_hyperparameters(workspace, runner):
    # the model file keeps only kappa of the five
    cfg, out = workspace
    model_path = _learned_model(runner, cfg, out)
    manifest = json.loads((out / "manifest_learn.json").read_text())
    assert manifest["hyper"] == {"lambda_t": 0.05, "lambda_o": 1e-3, "state_bw_scale": 1.0,
                                 "obs_bw_scale": 1.0, "kappa": 1e-3}
    with np.load(model_path) as data:
        meta = json.loads(data["meta_json"].tobytes())
    assert meta["kappa"] == 1e-3 and "hyper" not in meta


def _assert_one_line_exit_1(result, text):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    lines = result.output.strip().splitlines()
    assert lines[-1].startswith("error: ") and text in lines[-1]


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5], ids=["v1", "v2", "v3", "v4", "v5"])
def test_predict_old_format_model_exit_1(workspace, runner, tmp_path, version):
    cfg, out = workspace
    model_path = tmp_path / f"model_v{version}.npz"
    meta = {"format_version": version, "has_frontend": False}
    np.savez_compressed(model_path, g_yy=np.eye(4), kbar_xx=np.ones((4, 2)),
                        meta_json=np.frombuffer(json.dumps(meta).encode(),
                                                dtype=np.uint8))
    result = _predict_with_model(runner, cfg, out, model_path)
    _assert_one_line_exit_1(result, f"model format version {version} is not supported")


@pytest.mark.parametrize("content", [b"\x80\x04garbage, not an archive" * 4, None],
                         ids=["garbage_bytes", "npz_without_meta"])
def test_predict_corrupt_model_exit_1(workspace, runner, tmp_path, content):
    cfg, out = workspace
    model_path = tmp_path / "corrupt.npz"
    if content is None:
        np.savez(model_path, weights=np.ones(3))
    else:
        model_path.write_bytes(content)
    result = _predict_with_model(runner, cfg, out, model_path)
    _assert_one_line_exit_1(result, "not a flowcast model archive")


def test_predict_model_with_short_pca_means_exit_1(workspace, runner, tmp_path):
    cfg, out = workspace
    with np.load(_learned_model(runner, cfg, out)) as data:
        arrays = dict(data)
    arrays["block0_means"] = arrays["block0_means"][:-1]
    model_path = tmp_path / "short_means.npz"
    np.savez_compressed(model_path, **arrays)
    result = _predict_with_model(runner, cfg, out, model_path)
    _assert_one_line_exit_1(result, "PCA block arrays disagree with each other")


@pytest.mark.parametrize("name", ["t_sub", "xo"])
def test_predict_model_with_nan_exit_1(workspace, runner, tmp_path, name):
    # a NaN in t_sub once ended in a traceback, one in xo in exit 0 with a
    # NaN forecast
    cfg, out = workspace
    with np.load(_learned_model(runner, cfg, out)) as data:
        arrays = dict(data)
    arrays[name].flat[0] = np.nan
    model_path = tmp_path / "nan.npz"
    np.savez_compressed(model_path, **arrays)
    result = _predict_with_model(runner, cfg, out, model_path)
    _assert_one_line_exit_1(result, f"array {name} holds a non-finite value")
    assert not (out / "prediction_flow0.csv").exists()


def test_predict_model_without_frontend_exit_1(workspace, runner, tmp_path):
    cfg, out = workspace
    rng = np.random.default_rng(0)
    states = np.cumsum(rng.normal(size=(31, 3)), axis=0)
    model = fkkf.learn_core(states[:-1], states[1:], states[:-1, :2],
                            fkkf.FkkfHyperparams(), subspace_size=10)
    model_path = tmp_path / "core.npz"
    fkkf.save_model(model, model_path)
    result = _predict_with_model(runner, cfg, out, model_path)
    _assert_one_line_exit_1(result, "model has no spectral frontend")


def test_numerical_failure_exit_4(workspace, runner, monkeypatch):
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    import flowcast.cli as cli_mod
    from flowcast.errors import NumericalFailure

    def broken_learn(*args, **kwargs):
        raise NumericalFailure("innovation_gain")

    monkeypatch.setattr(cli_mod.fkkf.StagedLearner, "model", broken_learn)
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "learn", str(out / "traces.csv"),
                                  "--groups", str(out / "groups.csv"),
                                  "--group-id", "1"])
    assert result.exit_code == 4
    assert "innovation_gain" in result.output


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_manifest_records_skipped_folds(workspace, runner, monkeypatch, command):
    # the fold holding out each group's first flow (by key) has no
    # locatable peak; the manifest counts it per group and chunk length,
    # and report.csv stays as it was
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    real = evaluation.evaluate_split

    def first_flow_undefined(train, test, *args, **kwargs):
        if all(test.key < flow.key for flow in train):
            raise UndefinedError("no peak rise")
        return real(train, test, *args, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_split", first_flow_undefined)
    args = [command, str(out / "traces.csv"), "--groups", str(out / "groups.csv")]
    if command == "sweep":
        args += ["--group-id", "1"]
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)] + args)
    assert result.exit_code == 0, result.output
    skips = json.loads((out / f"manifest_{command}.json").read_text())["skips"]
    # evaluate adds the report's 1 s column to the configured 0.6 s
    groups, lengths = ((["1", "2"], ["0.6", "1"]) if command == "evaluate"
                       else (["1"], ["0.6"]))
    assert skips == {group: {length: {"UndefinedError": 1} for length in lengths}
                     for group in groups}
    left_out = json.loads((out / f"manifest_{command}.json").read_text())["flows_left_out"]
    assert left_out == {group: {length: 0 for length in lengths} for group in groups}
    if command == "evaluate":
        assert "skip" not in (out / "report.csv").read_text().lower()


def test_manifest_keeps_a_length_whose_every_fold_was_skipped(workspace, runner,
                                                               monkeypatch):
    # no 1 s fold has a locatable peak: the 1 s column is nan in report.csv,
    # and the manifest still counts those folds under "1"
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    real = evaluation.evaluate_split

    def one_second_undefined(train, test, hyper, cfg, chunk_length_s, **kwargs):
        if chunk_length_s == 1.0:
            raise UndefinedError("no peak rise")
        return real(train, test, hyper, cfg, chunk_length_s, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_split", one_second_undefined)
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "evaluate",
                                  str(out / "traces.csv"),
                                  "--groups", str(out / "groups.csv")])
    assert result.exit_code == 0, result.output
    skips = json.loads((out / "manifest_evaluate.json").read_text())["skips"]
    assert {group: per_length["1"] for group, per_length in skips.items()} == {
        "1": {"UndefinedError": 4}, "2": {"UndefinedError": 4}}
    assert all(per_length["0.6"] == {} for per_length in skips.values())
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["pred_error_chunk_1s"] for row in rows] == ["nan", "nan"]


def test_evaluate_with_a_flow_shorter_than_the_lookahead(workspace, runner, tmp_path):
    # flow 0 cut to 150 samples cannot cover the 180-sample lookahead at
    # 0.6 s (300 at 1 s): no training set keeps it, its own fold is skipped
    # at each length, and the other group's row is unchanged
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    cut = tmp_path / "cut_traces.csv"
    with open(out / "traces.csv") as src, open(cut, "w") as dst:
        dst.writelines(line for line in src
                       if not line.startswith("0,") or int(line.split(",")[1]) < 150)
    rows = {}
    for name, store in (("whole", out / "traces.csv"), ("cut", cut)):
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / name),
                                      "evaluate", str(store),
                                      "--groups", str(out / "groups.csv")])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / name / "report.csv").read_text().splitlines()
        rows[name] = {line.split(",")[0]: line for line in lines if line[0].isdigit()}
    assert rows["cut"]["2"] == rows["whole"]["2"]
    manifest = json.loads((tmp_path / "cut" / "manifest_evaluate.json").read_text())
    assert manifest["skips"]["1"] == {"0.6": {"UndefinedError": 1},
                                      "1": {"UndefinedError": 1}}
    # the folds that train on flow 0 leave it out; report.csv's flow_count
    # still counts it
    assert manifest["flows_left_out"] == {"1": {"0.6": 1, "1": 1}, "2": {"0.6": 0, "1": 0}}


def _learned_model(runner, cfg, out):
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "learn", str(out / "traces.csv"),
                                  "--groups", str(out / "groups.csv"),
                                  "--group-id", "1"])
    assert result.exit_code == 0, result.output
    return out / "model_group1.npz"


def test_predict_negative_flow_id_exit_1(workspace, runner):
    cfg, out = workspace
    model_path = _learned_model(runner, cfg, out)
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "predict", str(out / "traces.csv"),
                                  "--model", str(model_path), "--flow-id", "-1"])
    _assert_one_line_exit_1(result, "flow -1 from --flow-id not in store (8 flows)")
    assert not list(out.glob("prediction_flow*.csv"))


def test_predict_negative_start_step_exit_1(workspace, runner):
    cfg, out = workspace
    model_path = _learned_model(runner, cfg, out)
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "predict", str(out / "traces.csv"),
                                  "--model", str(model_path), "--flow-id", "0",
                                  "--start-step", "-3"])
    _assert_one_line_exit_1(result, "start step -3 is negative")
    assert not list(out.glob("prediction_flow*.csv"))


def test_predict_start_step_at_last_chunk_exit_1(workspace, runner):
    cfg, out = workspace
    model_path = _learned_model(runner, cfg, out)
    samples = load_traces(out / "traces.csv", "csv_binned")[0].samples
    hop = fkkf.load_model(model_path).frontend.chunk_cfg.hop_samples
    last_chunk = samples.size // hop - 1
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "predict", str(out / "traces.csv"),
                                  "--model", str(model_path), "--flow-id", "0",
                                  "--start-step", str(last_chunk)])
    _assert_one_line_exit_1(result, "observed prefix extends past the flow end")
    assert len(result.output.strip().splitlines()) == 2  # config hash, error
    assert not list(out.glob("prediction_flow*.csv"))


@pytest.mark.parametrize("command", ["learn", "sweep"])
def test_group_not_found_exit_1(workspace, runner, command):
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    groups = out / "groups.csv"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command,
                                  str(out / "traces.csv"), "--groups", str(groups),
                                  "--group-id", "9"])
    _assert_one_line_exit_1(result, f"group 9 not found in {groups}")


def test_seed_option_overrides_config(workspace, runner):
    cfg, out = workspace
    result = runner.invoke(main, ["--config", str(cfg), "--seed", "3", "--out",
                                  str(out), "synth"])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest_synth.json").read_text())
    assert manifest["seed"] == 3
    seeded = load_config(cfg, overrides={"seed": 3}).config_hash()
    assert manifest["config_hash"] == seeded != load_config(cfg).config_hash()


@pytest.mark.parametrize("length", ["0.605", "-1", "inf"],
                         ids=["off_grid", "negative", "infinite"])
def test_learn_chunk_length_checked_exit_2(workspace, runner, length):
    # --chunk-length obeys the rules config load applies to chunk_lengths_s
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "learn", str(out / "traces.csv"),
                                  "--groups", str(out / "groups.csv"),
                                  "--group-id", "1", "--chunk-length", length])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    errors = result.stderr.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("parse error: --chunk-length ") and length in errors[0]
    assert not list(out.glob("model_group*.npz"))


def _write_groups(path, rows):
    path.write_text("flow_id,group_id,distance_to_centroid\n"
                    + "".join(row + "\n" for row in rows))


def test_malformed_group_row_exit_2(workspace, runner, tmp_path):
    cfg, out = workspace
    groups = tmp_path / "groups.csv"
    _write_groups(groups, ["0,1,0.5", "1,one,0.5", "2,1,0.5"])
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                  "learn", str(out / "traces.csv"),
                                  "--groups", str(groups), "--group-id", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    lines = result.output.strip().splitlines()
    assert lines[-1].startswith("parse error: line 3: malformed group row")


@pytest.mark.parametrize("command", ["learn", "evaluate", "sweep"])
def test_group_member_outside_store_exit_1(workspace, runner, tmp_path, command):
    cfg, out = workspace
    groups = tmp_path / "groups.csv"
    _write_groups(groups, ["0,1,0.5", "99,1,0.5"])
    args = ["--config", str(cfg), "--out", str(out), command,
            str(out / "traces.csv"), "--groups", str(groups)]
    if command != "evaluate":
        args += ["--group-id", "1"]
    result = runner.invoke(main, args)
    _assert_one_line_exit_1(result, "flow 99 from")


def _config_error(workspace, runner, tmp_path, section, key, value, command,
                  text=CONFIG_YAML):
    """The one stderr line of `command` run on text (CONFIG_YAML) with key
    set to value; asserts exit 2, no traceback and nothing written."""
    cfg, out = workspace
    runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                         "cluster", str(out / "traces.csv")])
    lines = [line for line in text.splitlines()
             if not line.strip().startswith(key + ":")]
    if section is None:  # a key of the config root
        lines.append(f"{key}: {value}")
    else:
        lines.insert(lines.index(section + ":") + 1, f"  {key}: {value}")
    bad = tmp_path / "bad.yaml"
    bad.write_text("\n".join(lines) + "\n")
    fresh = tmp_path / "fresh"
    traces, groups = str(out / "traces.csv"), str(out / "groups.csv")
    args = {"learn": ["learn", traces, "--groups", groups, "--group-id", "1"],
            "evaluate": ["evaluate", traces, "--groups", groups],
            "sweep": ["sweep", traces, "--groups", groups, "--group-id", "1"],
            "cluster": ["cluster", traces],
            "synth": ["synth"]}[command]
    result = runner.invoke(main, ["--config", str(bad), "--out", str(fresh), *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    errors = result.stderr.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("config error: ")
    assert not fresh.exists() or not any(fresh.iterdir())
    return errors[0]


def _as_loaded(value: str) -> str:
    """A YAML value as a config error shows it, without list brackets."""
    return str(yaml.safe_load(value)).strip("[]")


@pytest.mark.parametrize("section, key, value",
                         [("experiment", "chunk_lengths_s", "[0.605]"),
                          ("experiment", "chunk_lengths_s", "[.inf]"),
                          ("experiment", "peak_window_s", "0.155"),
                          ("experiment", "peak_window_s", ".inf"),
                          ("experiment", "predict_horizon_s", "0.33"),
                          ("clustering", "signature_chunk_length_s", "0.605")])
def test_timing_off_the_sample_grid_exit_2(workspace, runner, tmp_path, section, key,
                                           value):
    # each duration must be whole samples (whole chunk intervals for the
    # forecast horizon), a finite number of them; none may be rounded or
    # fail later with a traceback
    error = _config_error(workspace, runner, tmp_path, section, key, value, "evaluate")
    assert _as_loaded(value) in error


@pytest.mark.parametrize("section, key, value, command",
                         [("hyper", "validation", "kfold", "learn"),
                          ("hyper", "holdout_fraction", "1.5", "learn"),
                          ("experiment", "subspace_size", "0", "learn"),
                          ("experiment", "kept_dim", "0", "learn"),
                          ("experiment", "bandwidth_seed", "-1", "learn"),
                          ("experiment", "ar_order", "0", "evaluate"),
                          ("experiment", "peak_factor", "0", "evaluate"),
                          ("experiment", "peak_factor", "-1", "evaluate"),
                          ("experiment", "peak_factor", ".inf", "evaluate"),
                          ("clustering", "max_groups", "0", "cluster"),
                          ("clustering", "distance_threshold", "0", "cluster"),
                          ("clustering", "distance_threshold", "-1", "cluster"),
                          ("clustering", "signature_frames", "0", "cluster"),
                          ("synth", "n_groups", "0", "synth"),
                          ("synth", "flows_per_group", "0", "synth"),
                          ("synth", "duration_s", "0", "synth"),
                          ("synth", "duration_s", ".inf", "synth"),
                          ("synth", "peak_kbit", "0", "synth"),
                          ("synth", "peak_kbit", ".inf", "synth"),
                          # integer keys take integers: none is truncated,
                          # rounded or left to fail with a traceback
                          ("experiment", "observe_steps", "4.5", "evaluate"),
                          ("experiment", "observe_steps", "4.5", "sweep"),
                          ("experiment", "kept_dim", "30.5", "sweep"),
                          ("experiment", "ar_order", "8.5", "sweep"),
                          ("experiment", "bandwidth_seed", "0.5", "sweep"),
                          ("experiment", "subspace_size", "120.5", "learn"),
                          ("clustering", "signature_frames", "2.5", "cluster"),
                          ("clustering", "max_groups", "1.5", "cluster"),
                          ("synth", "n_groups", "2.5", "synth"),
                          ("synth", "flows_per_group", "3.5", "synth"),
                          (None, "seed", "7.9", "synth")])
def test_value_the_run_reads_later_exit_2(workspace, runner, tmp_path, section, key,
                                          value, command):
    # each value the command reads is refused when the config is loaded,
    # not with a traceback (or silently clamped) once the run reaches it
    error = _config_error(workspace, runner, tmp_path, section, key, value, command)
    assert key in error and _as_loaded(value) in error


@pytest.mark.parametrize("part, key, value",
                         [("grid", "kappa", "[]"),
                          ("grid", "kappa", "[.nan]"),
                          ("grid", "kappa", "[.inf]"),
                          ("grid", "lambda_t", "[0.1, -1]"),
                          ("fixed", "kappa", ".inf"),
                          ("fixed", "state_bw_scale", ".inf"),
                          ("fixed", "lambda_o", ".nan")])
def test_hyperparameter_refused_at_load_exit_2(workspace, runner, tmp_path, part, key,
                                               value):
    # every hyperparameter and grid value must be positive and finite and no
    # grid axis empty: none may fail inside learn or reach a model file that
    # predict refuses
    text = CONFIG_YAML.replace("source: fixed", f"source: {part}")
    error = _config_error(workspace, runner, tmp_path, "hyper", part,
                          f"{{{key}: {value}}}", "learn", text)
    assert key in error and _as_loaded(value) in error


def test_bad_config_exit_2(runner, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("unknown_section:\n  foo: 1\n")
    result = runner.invoke(main, ["--config", str(cfg), "--out",
                                  str(tmp_path / "out"), "synth"])
    assert result.exit_code == 2


@pytest.mark.parametrize("text, section",
                         [("clustering: abc\n", "clustering"),
                          ("experiment: []\n", "experiment"),
                          ("synth: 3\n", "synth"),
                          ("hyper:\n  fixed: 0.1\n", "fixed"),
                          ("hyper:\n  grid: [0.1, 1.0]\n", "grid")])
def test_config_section_not_a_mapping_exit_2(runner, tmp_path, text, section):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    result = runner.invoke(main, ["--config", str(cfg), "--out",
                                  str(tmp_path / "out"), "synth"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr.strip().splitlines() == [
        f"config error: section '{section}' must be a mapping"]


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.experiment.predict_horizon_s == 1.0
        assert cfg.hyper.source == "fixed"

    def test_hash_stable_and_sensitive(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 1\n")
        a = load_config(p).config_hash()
        b = load_config(p).config_hash()
        assert a == b
        p.write_text("seed: 2\n")
        assert load_config(p).config_hash() != a

    def test_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("experiment:\n  no_such_key: 3\n")
        with pytest.raises(ParseError):
            load_config(p)

    @pytest.mark.parametrize("text", ["experiment:\n", "clustering:\n",
                                      "hyper:\n  fixed:\n  grid:\n"])
    def test_empty_section_keeps_defaults(self, tmp_path, text):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        assert load_config(p) == load_config(None)

    def test_rejects_unknown_grid_keys(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("hyper:\n  grid:\n    lambda: [0.1]\n")
        with pytest.raises(ParseError, match=r"unknown keys in 'grid': \['lambda'\]"):
            load_config(p)

    def test_grid_section_parsed(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("hyper:\n  source: grid\n  grid:\n    lambda_t: [0.1]\n"
                     "    lambda_o: [0.001]\n    state_bw_scale: [1.0]\n"
                     "    obs_bw_scale: [1.0]\n    kappa: [0.001]\n")
        cfg = load_config(p)
        assert cfg.hyper.source == "grid"
        assert cfg.hyper.grid.lambda_t == (0.1,)

    def test_integer_key_refuses_a_bool(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("experiment:\n  kept_dim: true\n")
        with pytest.raises(ParseError, match="kept_dim must be an integer, got True"):
            load_config(p)

    def test_comments_allowed(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("# a comment\nseed: 3  # trailing comment\n")
        assert load_config(p).seed == 3
