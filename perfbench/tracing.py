"""Spans and counters recorded from outside the library.

Layers are timed by replacing module attributes of ``flowcast`` with
thin wrappers.  A function imported by name into another module (for
example ``kernelcore.gram`` bound as ``fkkf.gram``) is replaced at every
binding, so calls through either name are seen.  ``patched`` restores
every binding it replaced, also when the body raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Public functions of each layer, as "module.attr" or "module.Class.attr".
# The spectral layer includes the STFT framing that lives in fkkf.
LAYER_TARGETS = {
    "trace_io": ("trace_io.bin_packets",),
    "clustering": ("clustering.signature",),
    "spectral": ("spectral.transform", "spectral.overlap_average",
                 "fkkf.window_frames", "fkkf.observation_frames"),
    "reduction": ("reduction.fit_standardizer", "reduction.fit_pca",
                  "reduction.project", "reduction.inverse_project"),
    "kernelcore": ("kernelcore.gram", "kernelcore.kernel_vector",
                   "kernelcore.median_heuristic"),
    "fkkf": ("fkkf.learn", "fkkf.learn_core", "fkkf.project",
             "fkkf.innovation_update", "fkkf.prediction_update",
             "fkkf.reconstruct", "fkkf.run_filter",
             "fkkf.SpectralFrontend.frames_to_kbit",
             "fkkf.save_model", "fkkf.load_model"),
    "evaluation": ("evaluation.evaluate_split", "evaluation.locate_peak_rise",
                   "evaluation.ar_baseline"),
    "hyperopt": ("hyperopt.grid_search",),
}

LAYER_OF = {target: layer for layer, targets in LAYER_TARGETS.items()
            for target in targets}

# The one wrapper the untraced run installs: each call is one op of the
# loo_sweep and grid_search workloads, and its exceptions are the
# failures counted by reason.
OP_PROBE = "evaluation.evaluate_split"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    op: int | None = None
    error: str | None = None
    matrix: str | None = None
    counts: dict = field(default_factory=dict)


def _gram_entries(args, kwargs, result):
    return {"entries": int(result.shape[0]) * int(result.shape[1])}


def _project_steps(args, kwargs, result):
    return {"steps": int(args[1] if len(args) > 1 else kwargs["steps"])}


def _model_size(args, kwargs, result):
    return {"pairs_m": int(result.n_pairs), "subspace_n": int(result.subspace_size)}


# Counts taken at a layer boundary from the call's arguments or result.
COUNTERS = {
    "kernelcore.gram": _gram_entries,
    "fkkf.project": _project_steps,
    "fkkf.learn_core": _model_size,
}


class Tracer:
    """In-memory span recorder for one single-threaded run.

    A call of an ``op_root`` target that starts outside any op opens a
    new op; every span inside it carries that op's id.  ``after_op``, if
    given, is called after each op's span has closed.
    """

    def __init__(self, op_roots=(OP_PROBE,), after_op=None):
        self.spans: list[Span] = []
        self.op_roots = frozenset(op_roots)
        self.after_op = after_op
        self._stack: list[Span] = []
        self._op: int | None = None
        self._next_op = 0

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        opens_op = name in self.op_roots

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            new_op = opens_op and self._op is None
            if new_op:
                self._op = self._next_op
                self._next_op += 1
            span = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                        parent=parent, op=self._op)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                span.matrix = getattr(exc, "matrix", None)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if new_op:
                    self._op = None
                    if self.after_op is not None:
                        self.after_op()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def ops(self) -> list:
        """Root spans of every op, in call order."""
        return [s for s in self.spans if s.name in self.op_roots
                and (s.parent is None or self.spans[s.parent].op != s.op)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _resolve(target: str):
    """(owner object, attribute name) of a "module.attr" or "module.Class.attr"."""
    module_name, _, rest = target.partition(".")
    owner = importlib.import_module(f"flowcast.{module_name}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each target at every flowcast binding; restore all on exit."""
    replaced = []
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(target, original)
            if isinstance(owner, type):
                bindings = [owner]
            else:
                bindings = [mod for name, mod in sorted(sys.modules.items())
                            if (name == "flowcast" or name.startswith("flowcast."))
                            and mod is not None]
            for holder in bindings:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        replaced.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(replaced):
            setattr(holder, name, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per target: calls, self seconds, and summed counters."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in span.counts.items():
            if key in ("pairs_m", "subspace_n"):
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return table
