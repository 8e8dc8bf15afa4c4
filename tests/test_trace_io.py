import math

import numpy as np
import pytest

from flowcast.errors import (EmptyFlow, InsufficientGroup, IoError,
                             MalformedEvent, ParseError)
from flowcast.trace_io import (KBIT_PER_BYTE, MAX_FLOW_BINS, FlowKey, FlowTrace,
                               Protocol, bin_packets, leave_one_out_splits,
                               load_traces, write_binned)

KEY = FlowKey("10.0.0.1", 5001, "10.0.0.2", 80, Protocol.TCP)
KEY2 = FlowKey("10.0.0.3", 5002, "10.0.0.2", 80, Protocol.UDP)


def test_bin_packets_two_events_one_bin():
    trace = bin_packets([(0.000, 125), (0.005, 125)], KEY, 0.01)
    assert trace.samples.tolist() == [2.0]  # 250 bytes = 2 kbit


def test_bin_packets_empty_is_error():
    with pytest.raises(EmptyFlow):
        bin_packets([], KEY, 0.01)


def test_bin_packets_negative_bytes():
    with pytest.raises(MalformedEvent):
        bin_packets([(0.0, -1)], KEY, 0.01)


@pytest.mark.parametrize("event", [(0.0, float("nan")), (0.0, float("inf")),
                                   (float("nan"), 10), (float("inf"), 10)])
def test_bin_packets_non_finite_event(event):
    with pytest.raises(MalformedEvent, match="non-finite"):
        bin_packets([(0.0, 10), event], KEY, 0.01, start_time=0.0)


def _loop_bin_packets(events, sample_interval_s, start_time):
    """Reference: one event at a time, checks in the order bin_packets gives them."""
    n_bins = int(math.floor((float(events[-1][0]) - start_time) / sample_interval_s
                            + 1e-9)) + 1
    byte_bins = np.zeros(max(n_bins, 0))
    for ts, nbytes in events:
        if not (math.isfinite(ts) and math.isfinite(nbytes)):
            raise MalformedEvent(f"non-finite event: {nbytes} bytes at t={ts}")
        if nbytes < 0:
            raise MalformedEvent(f"negative byte count {nbytes} at t={ts}")
        idx = int(math.floor((float(ts) - start_time) / sample_interval_s + 1e-9))
        if idx < 0 or idx >= n_bins:
            raise MalformedEvent(f"event at t={ts} outside [start, last] (unsorted input?)")
        byte_bins[idx] += float(nbytes)
    return byte_bins * KBIT_PER_BYTE


def _outcome(fn):
    try:
        return fn().tobytes()
    except MalformedEvent as exc:
        return str(exc)


NAN = float("nan")


@pytest.mark.parametrize("bad", [
    {}, {50: (0.5, NAN)}, {50: (0.5, -5.0)}, {50: (NAN, 10.0)}, {50: (3.0, 10.0)},
    {80: (0.8, -5.0), 40: (NAN, 10.0)}, {60: (3.0, -5.0)}, {60: (NAN, -5.0)},
], ids=["clean", "nan_bytes", "negative", "nan_time", "out_of_order", "first_wins",
        "negative_before_range", "non_finite_before_negative"])
def test_bin_packets_matches_event_loop(bad):
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.0, 2.0, size=300)).round(3)  # many events share a bin
    events = [(float(t), float(b)) for t, b in zip(ts, rng.exponential(700.0, 300))]
    for i, event in bad.items():
        events[i] = event
    got = _outcome(lambda: bin_packets(events, KEY, 0.01, start_time=0.0).samples)
    assert got == _outcome(lambda: _loop_bin_packets(events, 0.01, 0.0))


def test_bin_packets_equals_add_at():
    # oracle: np.add.at, which also adds each bin's events in event order
    rng = np.random.default_rng(11)
    ts = np.sort(rng.uniform(0.0, 5.0, size=5000))
    nbytes = rng.exponential(700.0, 5000)
    events = [(float(t), float(b)) for t, b in zip(ts, nbytes)]
    expected = np.zeros(int(math.floor(ts[-1] / 0.01 + 1e-9)) + 1)
    np.add.at(expected, np.floor(ts / 0.01 + 1e-9).astype(np.intp), nbytes)
    got = bin_packets(events, KEY, 0.01, start_time=0.0).samples
    assert got.tobytes() == (expected * KBIT_PER_BYTE).tobytes()


def test_bin_packets_reads_events_of_any_numeric_type():
    # oracle: the events converted as one float array, then added in order
    events = [(np.int64(0), 1), (np.float64(0.001), 10), [0.002, np.int64(20)],
              (np.float32(0.0135), 30.5), (0.02, np.float32(7.25))]
    ts, nbytes = np.array(events, dtype=float).T
    expected = np.zeros(3)
    np.add.at(expected, np.floor(ts / 0.01 + 1e-9).astype(np.intp), nbytes)
    got = bin_packets(events, KEY, 0.01, start_time=0.0).samples
    assert got.tobytes() == (expected * KBIT_PER_BYTE).tobytes()


@pytest.mark.parametrize("events", [[(0.0, 10.0), (0.01, 5.0, 1.0)],
                                    [(0.0, 10.0, 1.0), (0.01, 5.0)],
                                    [(0.0, 10.0, 1.0), (0.01, 5.0, 1.0)],
                                    [(0.0,), (0.01,)]])
def test_bin_packets_refuses_events_not_pairs(events):
    with pytest.raises(ValueError):
        bin_packets(events, KEY, 0.01, start_time=0.0)


def test_bin_packets_span_beyond_the_bin_cap():
    with pytest.raises(MalformedEvent, match=f"more than {MAX_FLOW_BINS} bins"):
        bin_packets([(0.0, 10.0), (1e13, 10.0)], KEY, 0.01)
    # one bin past the cap, at a unit interval where the bin count is exact
    with pytest.raises(MalformedEvent, match="more than"):
        bin_packets([(0.0, 10.0)], KEY, 1.0, start_time=-float(MAX_FLOW_BINS))


def test_bin_packets_uniform_rate_oracle():
    # 10 s of events at 1250 bytes per 0.01 s -> 1000 bins of 10 kbit.
    # Oracle: direct summation over the event list.
    events = [(round(i * 0.01, 6), 1250) for i in range(1000)]
    trace = bin_packets(events, KEY, 0.01)
    assert trace.samples.size == 1000
    expected = np.zeros(1000)
    for ts, nbytes in events:
        expected[int(ts / 0.01 + 1e-9)] += nbytes * 8 / 1000
    np.testing.assert_array_equal(trace.samples, expected)


def test_bin_packets_trailing_partial_interval_kept():
    trace = bin_packets([(0.0, 100), (0.095, 100)], KEY, 0.01)
    assert trace.samples.size == 10
    assert trace.samples[9] == pytest.approx(0.8)


def test_byte_total_preserved_exactly():
    # every bin's byte count is recoverable by rounding kbit * 125
    rng = np.random.default_rng(3)
    events = [(float(i) * 0.01, int(rng.integers(0, 10_000))) for i in range(500)]
    trace = bin_packets(events, KEY, 0.01)
    recovered = int(np.rint(np.sum(np.rint(trace.samples * 125))))
    assert recovered == sum(b for _, b in events)


def test_bin_packets_order_within_bin_irrelevant():
    a = bin_packets([(0.001, 10), (0.002, 20), (0.003, 30)], KEY, 0.01,
                    start_time=0.0)
    b = bin_packets([(0.003, 30), (0.001, 10), (0.002, 20)], KEY, 0.01,
                    start_time=0.0)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_flow_trace_validation():
    with pytest.raises(ValueError):
        FlowTrace(KEY, 0.0, -0.01, np.ones(3))
    with pytest.raises(ValueError):
        FlowTrace(KEY, 0.0, 0.01, np.array([1.0, -2.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FlowTrace(KEY, 0.0, 0.01, np.array([1.0, bad]))
    trace = FlowTrace(KEY, 0.0, 0.01, np.ones(250))
    assert trace.duration_s == pytest.approx(2.5)


class TestLeaveOneOut:
    def test_group_of_four(self):
        group = [FlowTrace(KEY, float(i), 0.01, np.ones(5)) for i in range(4)]
        splits = leave_one_out_splits(group)
        assert len(splits) == 4
        assert all(len(train) == 3 for train, _ in splits)

    def test_minimal_group(self):
        group = [FlowTrace(KEY, float(i), 0.01, np.ones(5)) for i in range(2)]
        splits = leave_one_out_splits(group)
        assert len(splits) == 2
        assert all(len(train) == 1 for train, _ in splits)

    def test_group_of_eight(self):
        group = [FlowTrace(KEY, float(i), 0.01, np.ones(5)) for i in range(8)]
        assert len(leave_one_out_splits(group)) == 8

    def test_each_flow_tested_exactly_once(self):
        group = [FlowTrace(KEY, float(i), 0.01, np.ones(5)) for i in range(5)]
        splits = leave_one_out_splits(group)
        tested = [id(test) for _, test in splits]
        assert sorted(tested) == sorted(id(f) for f in group)
        for train, test in splits:
            assert all(id(t) != id(test) for t in train)

    def test_too_small(self):
        with pytest.raises(InsufficientGroup):
            leave_one_out_splits([FlowTrace(KEY, 0.0, 0.01, np.ones(5))])


class TestEventsCsv:
    HEADER = "src,src_port,dst,dst_port,proto,ts_s,bytes\n"

    def test_two_flows(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [self.HEADER]
        for i in range(1000):
            rows.append(f"10.0.0.1,5001,10.0.0.2,80,TCP,{i * 0.01:.3f},100\n")
            rows.append(f"10.0.0.3,5002,10.0.0.2,80,UDP,{i * 0.01:.3f},200\n")
        path.write_text("".join(rows))
        traces = load_traces(path, "csv_events")
        assert len(traces) == 2
        assert all(t.samples.size == 1000 for t in traces)

    def test_duplicate_timestamp_rows_summed(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,0.000,100\n"
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,0.000,150\n")
        (trace,) = load_traces(path, "csv_events")
        # oracle: grouped sum, 250 bytes -> 2 kbit
        assert trace.samples.tolist() == [pytest.approx(2.0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("")
        assert load_traces(path, "csv_events") == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER)
        assert load_traces(path, "csv_events") == []

    def test_schema_violation_reports_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,0.000,100\n"
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,not_a_number,100\n")
        with pytest.raises(ParseError) as err:
            load_traces(path, "csv_events")
        assert err.value.line == 3

    @pytest.mark.parametrize("ts, nbytes", [("0.01", "nan"), ("0.01", "inf"),
                                            ("nan", "100"), ("inf", "100")])
    def test_non_finite_field_reports_line(self, tmp_path, ts, nbytes):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,0.000,100\n"
                        + f"10.0.0.1,5001,10.0.0.2,80,TCP,{ts},{nbytes}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            load_traces(path, "csv_events")
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_traces(path, "csv_events")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_traces(tmp_path / "nope.csv", "csv_events")

    def test_deterministic_ordering(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER
                        + "10.0.0.9,5009,10.0.0.2,80,TCP,0.000,100\n"
                        + "10.0.0.1,5001,10.0.0.2,80,TCP,0.000,100\n")
        traces = load_traces(path, "csv_events")
        assert [t.key.src_addr for t in traces] == ["10.0.0.1", "10.0.0.9"]


class TestBinnedRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        traces = [
            FlowTrace(KEY, 0.0, 0.01, rng.uniform(0, 50, size=300)),
            FlowTrace(KEY2, 1.5, 0.02, rng.uniform(0, 10, size=100)),
        ]
        path = tmp_path / "store.csv"
        write_binned(traces, path)
        loaded = load_traces(path, "csv_binned")
        assert len(loaded) == 2
        by_key = {t.key: t for t in loaded}
        for orig in traces:
            got = by_key[orig.key]
            assert got.sample_interval_s == orig.sample_interval_s
            assert got.start_time == orig.start_time
            np.testing.assert_array_equal(got.samples, orig.samples)

    def test_empty_binned_file(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("")
        assert load_traces(path, "csv_binned") == []

    @pytest.mark.parametrize("kbit", ["nan", "inf", "-inf", "-1.0"])
    def test_kbit_not_finite_non_negative_reports_line(self, tmp_path, kbit):
        path = tmp_path / "store.csv"
        write_binned([FlowTrace(KEY, 0.0, 0.01, np.ones(3))], path)
        lines = path.read_text().splitlines()
        lines[3] = f"0,1,{kbit}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 4"):
            load_traces(path, "csv_binned")

    @pytest.mark.parametrize("timing", ["t_s=nan start=0.0", "t_s=0.0 start=0.0",
                                        "t_s=inf start=0.0", "t_s=0.01 start=inf"])
    def test_bad_flow_timing_reports_line(self, tmp_path, timing):
        path = tmp_path / "store.csv"
        path.write_text("flow_id,t_index,kbit\n#flow id=0 src=10.0.0.1 src_port=5001 "
                        f"dst=10.0.0.2 dst_port=80 proto=TCP {timing}\n0,0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_traces(path, "csv_binned")

    def test_t_index_at_the_bin_cap_reports_line(self, tmp_path):
        path = tmp_path / "store.csv"
        write_binned([FlowTrace(KEY, 0.0, 0.01, np.ones(3))], path)
        lines = path.read_text().splitlines()
        lines[3] = f"0,{MAX_FLOW_BINS},1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 4: t_index {MAX_FLOW_BINS} is at or above"):
            load_traces(path, "csv_binned")

    def test_row_before_metadata(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("flow_id,t_index,kbit\n0,0,1.0\n")
        with pytest.raises(ParseError):
            load_traces(path, "csv_binned")


def test_flow_key_equality_fieldwise():
    a = FlowKey("h1", 1, "h2", 2, Protocol.TCP)
    b = FlowKey("h1", 1, "h2", 2, Protocol.TCP)
    c = FlowKey("h1", 1, "h2", 2, Protocol.UDP)
    assert a == b and a != c
    with pytest.raises(ValueError):
        FlowKey("h1", 70000, "h2", 2, Protocol.TCP)
