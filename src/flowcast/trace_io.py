"""Ingest packet events or pre-binned data into per-flow kbit series.

A flow is one socket-to-socket connection; flow boundaries are assumed
pre-segmented in the input files (no pcap parsing here).  Byte counts
are converted with 8/1000 bytes -> kbit (decimal kilo).

Two CSV schemas are supported:

``csv_events``
    header ``src,src_port,dst,dst_port,proto,ts_s,bytes``; one row per
    packet, ``ts_s`` in decimal seconds.

``csv_binned``
    header ``flow_id,t_index,kbit``; one section per flow introduced by
    a metadata line of the form
    ``#flow id=<i> src=... src_port=... dst=... dst_port=... proto=TCP|UDP t_s=<T_S> start=<t0>``.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFlow, InsufficientGroup, IoError, MalformedEvent, ParseError

KBIT_PER_BYTE = 8.0 / 1000.0

EVENTS_HEADER = ["src", "src_port", "dst", "dst_port", "proto", "ts_s", "bytes"]
BINNED_HEADER = ["flow_id", "t_index", "kbit"]

# Most bins one flow may span: 1 GiB of float64, 15.5 days at 0.01 s.
# The bins are allocated from the span, so a far-off timestamp would
# otherwise ask for petabytes before any other check.
MAX_FLOW_BINS = 2 ** 27


class Protocol(str, enum.Enum):
    TCP = "TCP"
    UDP = "UDP"


@dataclass(frozen=True, order=True)
class FlowKey:
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    protocol: Protocol

    def __post_init__(self):
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")


@dataclass
class FlowTrace:
    """Uniformly sampled kbit-per-interval series for one flow."""

    key: FlowKey
    start_time: float
    sample_interval_s: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.sample_interval_s > 0:
            raise ValueError("sample_interval_s must be positive")
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.samples.size and self.samples.min() < 0:
            raise ValueError("samples must be non-negative")

    @property
    def duration_s(self) -> float:
        return self.samples.size * self.sample_interval_s


def bin_packets(events, key: FlowKey, sample_interval_s: float,
                start_time: float | None = None) -> FlowTrace:
    """Sum event bytes into T_S-wide bins and convert to kbit.

    Events must be sorted by timestamp.  The trailing partial interval is
    kept as a final bin so no bytes are dropped.
    """
    if not sample_interval_s > 0:
        raise ValueError("sample_interval_s must be positive")
    events = list(events)
    if not events:
        raise EmptyFlow(f"no events for flow {key}")
    if start_time is None:
        start_time = float(events[0][0])
    last_ts = float(events[-1][0])
    if not (math.isfinite(start_time) and math.isfinite(last_ts)):
        raise MalformedEvent(f"non-finite time bounds [{start_time}, {last_ts}]")
    n_bins = int(math.floor((last_ts - start_time) / sample_interval_s + 1e-9)) + 1
    if n_bins > MAX_FLOW_BINS:
        raise MalformedEvent(f"flow {key} spans {last_ts - start_time} s, more than "
                             f"{MAX_FLOW_BINS} bins of {sample_interval_s} s")
    # a column at a time, which costs half of np.array over the event
    # tuples; strict, so events that are not all pairs raise ValueError
    ts, nbytes = (np.array(column, dtype=float) for column in zip(*events, strict=True))
    idx = np.floor((ts - start_time) / sample_interval_s + 1e-9)
    # a non-finite time has a nan or infinite bin, which is out of range
    valid = np.isfinite(nbytes) & (nbytes >= 0) & (idx >= 0) & (idx < n_bins)
    if not valid.all():
        ts, nbytes = events[int(valid.argmin())]  # the first invalid event
        if not (math.isfinite(ts) and math.isfinite(nbytes)):
            raise MalformedEvent(f"non-finite event: {nbytes} bytes at t={ts}")
        if nbytes < 0:
            raise MalformedEvent(f"negative byte count {nbytes} at t={ts}")
        raise MalformedEvent(f"event at t={ts} outside [start, last] (unsorted input?)")
    byte_bins = np.bincount(idx.astype(np.intp), weights=nbytes,
                            minlength=n_bins)  # added in event order
    return FlowTrace(key=key, start_time=start_time,
                     sample_interval_s=sample_interval_s,
                     samples=byte_bins * KBIT_PER_BYTE)


def leave_one_out_splits(group):
    """Each flow once as test, all other group members as training set."""
    group = list(group)
    if len(group) < 2:
        raise InsufficientGroup(f"need >= 2 flows, got {len(group)}")
    return [(group[:i] + group[i + 1:], group[i]) for i in range(len(group))]


# --- CSV loading ------------------------------------------------------------


def load_traces(path, format: str, sample_interval_s: float = 0.01):
    """Load one FlowTrace per distinct FlowKey, ordered by (key, start_time)."""
    if format == "csv_events":
        traces = _load_events(path, sample_interval_s)
    elif format == "csv_binned":
        traces = _load_binned(path)
    else:
        raise ValueError(f"unknown format: {format}")
    traces.sort(key=lambda t: (t.key, t.start_time))
    return traces


def _open_for_read(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _parse_key(fields: dict, line: int) -> FlowKey:
    try:
        return FlowKey(src_addr=fields["src"], src_port=int(fields["src_port"]),
                       dst_addr=fields["dst"], dst_port=int(fields["dst_port"]),
                       protocol=Protocol(fields["proto"]))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad flow key: {exc}", line=line) from exc


def _load_events(path, sample_interval_s: float):
    per_flow: dict[FlowKey, list] = {}
    with _open_for_read(path) as fh:
        first = fh.readline()
        if not first:
            return []
        header = [h.strip() for h in first.strip().split(",")]
        if header != EVENTS_HEADER:
            raise ParseError(f"expected header {','.join(EVENTS_HEADER)}", line=1)
        for lineno, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            if len(row) != len(EVENTS_HEADER):
                raise ParseError(f"expected {len(EVENTS_HEADER)} fields, got {len(row)}",
                                 line=lineno)
            fields = dict(zip(EVENTS_HEADER, (v.strip() for v in row)))
            key = _parse_key(fields, lineno)
            try:
                ts = float(fields["ts_s"])
                nbytes = float(fields["bytes"])
            except ValueError as exc:
                raise ParseError(f"non-numeric ts_s/bytes: {exc}", line=lineno) from exc
            if not (math.isfinite(ts) and math.isfinite(nbytes)):
                raise ParseError(f"non-finite ts_s/bytes: {ts}, {nbytes}", line=lineno)
            if nbytes < 0:
                raise MalformedEvent(f"line {lineno}: negative byte count {nbytes}")
            per_flow.setdefault(key, []).append((ts, nbytes))
    traces = []
    for key, events in per_flow.items():
        events.sort(key=lambda e: e[0])
        traces.append(bin_packets(events, key, sample_interval_s))
    return traces


def _load_binned(path):
    traces = []
    current = None  # (key, t_s, start, {t_index: kbit})
    with _open_for_read(path) as fh:
        first = fh.readline()
        if not first:
            return []
        header = [h.strip() for h in first.strip().split(",")]
        if header != BINNED_HEADER:
            raise ParseError(f"expected header {','.join(BINNED_HEADER)}", line=1)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#flow"):
                if current is not None:
                    traces.append(_finish_binned(current, lineno))
                try:
                    meta = dict(part.split("=", 1) for part in line.split()[1:])
                except ValueError as exc:
                    raise ParseError(f"bad #flow metadata: {exc}", line=lineno) from exc
                key = _parse_key(meta, lineno)
                try:
                    t_s = float(meta["t_s"])
                    start = float(meta.get("start", "0"))
                except (KeyError, ValueError) as exc:
                    raise ParseError(f"bad #flow metadata: {exc}", line=lineno) from exc
                if not (0 < t_s < math.inf and math.isfinite(start)):
                    raise ParseError(f"bad #flow metadata: t_s={t_s}, start={start}",
                                     line=lineno)
                current = (key, t_s, start, {})
                continue
            if current is None:
                raise ParseError("data row before any #flow metadata line", line=lineno)
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"expected 3 fields, got {len(parts)}", line=lineno)
            try:
                t_index = int(parts[1])
                kbit = float(parts[2])
            except ValueError as exc:
                raise ParseError(f"non-numeric row: {exc}", line=lineno) from exc
            if t_index < 0:
                raise ParseError(f"negative t_index {t_index}", line=lineno)
            if t_index >= MAX_FLOW_BINS:
                raise ParseError(f"t_index {t_index} is at or above the limit of "
                                 f"{MAX_FLOW_BINS} bins per flow", line=lineno)
            if not 0 <= kbit < math.inf:
                raise ParseError(f"kbit {kbit} is not a finite non-negative number",
                                 line=lineno)
            bins = current[3]
            bins[t_index] = bins.get(t_index, 0.0) + kbit
    if current is not None:
        traces.append(_finish_binned(current, -1))
    return traces


def _finish_binned(current, lineno: int) -> FlowTrace:
    key, t_s, start, bins = current
    if not bins:
        raise ParseError(f"flow {key} has no samples", line=lineno)
    samples = np.zeros(max(bins) + 1)
    for idx, kbit in bins.items():
        samples[idx] = kbit
    return FlowTrace(key=key, start_time=start, sample_interval_s=t_s, samples=samples)


def write_binned(traces, path) -> None:
    """Write traces in the csv_binned schema (the synth/ingest store format)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(BINNED_HEADER) + "\n")
            for i, trace in enumerate(traces):
                k = trace.key
                fh.write(f"#flow id={i} src={k.src_addr} src_port={k.src_port} "
                         f"dst={k.dst_addr} dst_port={k.dst_port} proto={k.protocol.value} "
                         f"t_s={trace.sample_interval_s!r} start={trace.start_time!r}\n")
                for t_index, kbit in enumerate(trace.samples):
                    fh.write(f"{i},{t_index},{format(kbit, '.17g')}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
