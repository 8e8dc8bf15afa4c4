"""Tests of the benchmark itself: span arithmetic, wrapper hygiene,
seeded workload generation and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flowcast import fkkf, hyperopt
from flowcast.evaluation import ExperimentConfig
from harness import (END_TO_END, SetupSampler, per_layer_metrics, run_benchmark, tail,
                     throughput)
from tracing import LAYER_OF, OP_PROBE, Span, Tracer, patched, self_times, summarize
from workloads import TEST, TRAIN, WORKLOADS, Op, Sizes, flow_to_events, synth_seed

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = Sizes(
    cfg=ExperimentConfig(observe_steps=4, chunk_lengths_s=(0.4,), subspace_size=40,
                         kept_dim=10, peak_window_s=0.15),
    flow_duration_s=6.0, loo_flows=3, online_chunk_s=0.4, online_train_flows=3,
    online_test_flows=2, online_traced_ops=6, grid_flows=3, grid_chunk_s=0.4,
    grid_space=hyperopt.SearchSpace(lambda_t=(0.01, 0.05), lambda_o=(1e-3,),
                                    state_bw_scale=(1.0,), obs_bw_scale=(1.0, 2.0),
                                    kappa=(1e-3,)))


def test_self_time_of_hand_built_tree():
    spans = [
        Span(id=0, name="root", start=0.0, end=10.0),
        Span(id=1, name="a", start=1.0, end=4.0, parent=0),
        Span(id=2, name="b", start=3.0, end=6.0, parent=0),    # overlaps a
        Span(id=3, name="a1", start=2.0, end=3.0, parent=1),
        Span(id=4, name="c", start=8.0, end=12.0, parent=0),   # runs past root
        Span(id=5, name="a", start=20.0, end=21.5),
    ]
    # root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1; the rest have no children
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.5])
    table = summarize(spans)
    assert table["a"] == {"calls": 2, "self_s": pytest.approx(3.5)}


def test_tail_and_block_throughput():
    assert tail(list(range(100)), 90) == (89, 10)
    assert tail(list(range(27)), 60) == (16, 10)
    # ops of 0.1 s back to back, with one 2 s stall in the third block
    ends, t = [], 0.0
    for i in range(12):
        t += 2.1 if i == 9 else 0.1
        ends.append(t)
    ops = [Op(latency_s=0.1, end=e) for e in ends]
    assert throughput(ops, 4) == pytest.approx(10.0)
    assert throughput(ops[:3], 4) == pytest.approx(10.0)
    # a 1 s setup-sampling pause after the second op is not counted
    ends = [0.1, 0.2] + [1.2 + 0.1 * i for i in range(1, 7)]
    ops = [Op(latency_s=0.1, end=e) for e in ends]
    assert throughput(ops, 4, pauses=[(0.2, 1.2)]) == pytest.approx(10.0)
    assert throughput(ops[:3], 4, pauses=[(0.2, 1.2)]) == pytest.approx(10.0)


def test_setup_sampler_runs_between_ops(tmp_path):
    class Counting:
        setups = 0

        def setup(self):
            self.setups += 1

    spare = Counting()
    sampler = SetupSampler(spare, burst=3, every_s=3600.0)
    tracer = Tracer(after_op=sampler)
    op = tracer.wrap(OP_PROBE, lambda: None)
    op()
    op()     # within every_s of the first burst: no second burst
    assert spare.setups == 3 and len(sampler.times) == 3 and len(sampler.pauses) == 1
    start, end = sampler.pauses[0]
    assert tracer.spans[0].end <= start <= end <= tracer.spans[1].start


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_run_calls_between_ops_after_every_op(workload, tmp_path):
    wl = WORKLOADS[workload](1, TINY, str(tmp_path))
    wl.setup()
    calls = []
    outcome = wl.run(time.perf_counter(), between_ops=lambda: calls.append(1))
    assert outcome.ops and len(calls) == len(outcome.ops)
    if workload == "grid_search":
        assert len(outcome.ops) == wl.min_calls * len(wl.candidates)


def _bindings():
    owners = [m for name, m in sorted(sys.modules.items())
              if name.startswith("flowcast") and m is not None]
    owners.append(fkkf.SpectralFrontend)
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()
            if callable(v)}


def test_wrappers_are_restored_even_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with patched(Tracer(), LAYER_OF):
            assert fkkf.gram is not before[(repr(fkkf), "gram")]
            raise RuntimeError("boom")
    assert _bindings() == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_passes_agree(workload, tmp_path):
    before = _bindings()
    wl = WORKLOADS[workload](1, TINY, str(tmp_path))
    wl.setup()
    plain = Tracer(("bench.forecast", OP_PROBE))
    with patched(plain, [OP_PROBE]):
        untraced = wl.run_fixed(plain)
    traced_tracer = Tracer(("bench.forecast", OP_PROBE))
    with patched(traced_tracer, LAYER_OF):
        wl.setup()
        traced = wl.run_fixed(traced_tracer)
    assert _bindings() == before
    assert untraced.abs_errors and traced.abs_errors == untraced.abs_errors
    assert len(traced.ops) == len(untraced.ops)
    assert wl.check() == []
    names = {s.name for s in traced_tracer.spans}
    assert {"fkkf.run_filter", "kernelcore.kernel_vector"} <= names


def test_generation_is_deterministic_per_seed(tmp_path):
    def flows(workload, seed):
        wl = WORKLOADS[workload](seed, TINY, str(tmp_path))
        if workload == "online_forecast":
            train, requests = wl.make_inputs()
            return ([f.samples for g in sorted(train) for f in train[g]]
                    + [np.array(events) for _, _, events in requests])
        wl.setup()
        if workload == "loo_sweep":
            return [f.samples for g in sorted(wl.groups) for f in wl.groups[g]]
        return [f.samples for f in wl.flows]

    for workload in WORKLOADS:
        a, b, c = flows(workload, 5), flows(workload, 5), flows(workload, 6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b)), workload
        assert not all(np.array_equal(x, y) for x, y in zip(a, c)), workload


def test_training_and_test_seeds_are_disjoint():
    train = {synth_seed(s, g, TRAIN) for s in range(200) for g in range(16)}
    test = {synth_seed(s, g, TEST) for s in range(200) for g in range(16)}
    assert len(train) == len(test) == 200 * 16
    assert not train & test


def test_events_rebin_to_the_generated_flow(tmp_path):
    wl = WORKLOADS["online_forecast"](2, TINY, str(tmp_path))
    train, _ = wl.make_inputs()
    flow = train[TINY.online_groups[0]][0]
    from flowcast import trace_io
    binned = trace_io.bin_packets(flow_to_events(flow), flow.key,
                                  flow.sample_interval_s, start_time=0.0)
    n = binned.samples.size
    np.testing.assert_allclose(binned.samples, flow.samples[:n], rtol=1e-12)
    assert not flow.samples[n:].any()


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_run_prints_every_metric_and_restores_bindings(tmp_path, capsys):
    before = _bindings()
    for trace in (False, True):
        assert run_benchmark("grid_search", 1, 0.01, trace, 1, str(tmp_path),
                             sizes=TINY) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        wanted = per_layer_metrics() if trace else END_TO_END
        assert list(result["metrics"]) == [name for name, _ in wanted]
        assert result["correct"] and result["failed"] == 0
    assert _bindings() == before
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("tmp-")]


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loo_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
