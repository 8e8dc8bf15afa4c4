"""The framing convention: sliding-window DFT frames and their inverse.

A kbit time series sampled every T_S seconds is cut into windows of w
seconds starting every T_C seconds (T_S < T_C <= w, so consecutive
windows overlap).  Each window is DFT-transformed; only the
coefficients up to the Nyquist index are kept, stored with real and
imaginary parts interleaved (re0, im0, re1, im1, ...).  The inverse
de-interleaves, restores the upper half of the spectrum by conjugate
symmetry and applies the inverse DFT; overlapping windows are averaged
back into one series.  With a rectangular window that average is the
least-squares inverse of the framing (Griffin & Lim 1984).

Two callers frame differently:

    transform      zero-pads past the series end, so a series of N
                   samples always yields ceil(N / (T_C/T_S)) frames; it
                   returns the frame matrix, one row per frame
                   (clustering signatures)
    fkkf           keeps only the windows that fit inside the series
                   (the model's lookahead states and observations)

Both go through forward_frames; every inverse goes through
inverse_frames.  The model and the experiments turn durations into
sample or step counts only through whole_multiple, which refuses a
duration that is not a whole multiple.

Conventions: rectangular window (overlap, not tapering, controls
artifacts); forward DFT unnormalized, inverse scaled by 1/L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, FrameDimMismatch

_REL_TOL = 1e-9


def whole_multiple(value: float, base: float, name: str) -> int:
    """value / base as a positive integer; ValueError unless it is one.

    The tolerance is relative, so float noise such as 0.15 / 0.01 =
    14.999999999999998 counts as 15.  An infinite or NaN ratio is not one.
    """
    ratio = value / base
    if math.isfinite(ratio):
        rounded = int(round(ratio))
        if rounded >= 1 and abs(ratio - rounded) <= _REL_TOL * max(1.0, abs(ratio)):
            return rounded
    raise ValueError(f"{name}={value!r} is not a positive whole multiple of {base!r}s")


@dataclass(frozen=True)
class ChunkConfig:
    """Chunking geometry: sample interval T_S, chunk cadence T_C, chunk length w."""

    sample_interval_s: float = 0.01
    chunk_interval_s: float = 0.05
    chunk_length_s: float = 1.0

    def __post_init__(self):
        if not self.sample_interval_s > 0:
            raise ValueError("sample_interval_s must be positive")
        if not self.chunk_interval_s > self.sample_interval_s:
            raise ValueError("chunk_interval_s must exceed sample_interval_s")
        if self.chunk_length_s < self.chunk_interval_s:
            raise ValueError("chunk_length_s must be >= chunk_interval_s")
        # reading each count validates it once; later reads find it kept
        self.hop_samples, self.chunk_samples

    @functools.cached_property
    def hop_samples(self) -> int:
        """Samples between consecutive chunk starts (T_C / T_S)."""
        return whole_multiple(self.chunk_interval_s, self.sample_interval_s,
                              "chunk_interval_s")

    @functools.cached_property
    def chunk_samples(self) -> int:
        """Samples per chunk (w / T_S)."""
        return whole_multiple(self.chunk_length_s, self.sample_interval_s, "chunk_length_s")


def strided_windows(series: np.ndarray, width: int, hop: int, count: int) -> np.ndarray:
    """Read-only view of `count` windows of `width` samples, one every `hop`.

    Row t is series[t*hop : t*hop + width]; every window must fit inside
    the 1-D series.  The same view as sliding_window_view's every hop-th
    row, built without its argument handling.
    """
    if series.ndim != 1 or (count and (count - 1) * hop + width > series.size):
        raise ValueError(f"{count} windows of {width} every {hop} do not fit in "
                         f"a series of shape {series.shape}")
    step = series.strides[0]
    return np.lib.stride_tricks.as_strided(series, (count, width), (hop * step, step),
                                           writeable=False)


def forward_frames(series: np.ndarray, width: int, hop: int, count: int) -> np.ndarray:
    """Interleaved DFT frames of `count` windows of `width` samples, one every `hop`.

    Row t holds the spectrum of series[t*hop : t*hop + width]; every
    window must fit inside the series.
    """
    series = np.asarray(series, dtype=float)
    windows = strided_windows(series, width, hop, count)
    # rfft's rows are contiguous complex, i.e. (re0, im0, re1, im1, ...)
    return np.fft.rfft(windows, axis=1).view(np.float64)


def inverse_frames(frames: np.ndarray, width: int) -> np.ndarray:
    """Windows of `width` samples rebuilt from interleaved frames, one per row."""
    frames = np.atleast_2d(frames)
    expected = 2 * (width // 2 + 1)
    if frames.shape[1] != expected:
        raise FrameDimMismatch(
            f"frame dim {frames.shape[1]} incompatible with chunk of {width} samples "
            f"(expected {expected})")
    spec = frames[:, 0::2] + 1j * frames[:, 1::2]
    return np.fft.irfft(spec, n=width, axis=1)


def transform(series: np.ndarray, config: ChunkConfig) -> np.ndarray:
    """Frame matrix of a whole series, zero-padded past its end.

    Row i is the interleaved frame of samples [i*hop, i*hop + chunk_samples);
    there are ceil(len(series) / hop) rows, so every sample starts exactly
    one frame's worth of positions.
    """
    series = np.asarray(series, dtype=float).ravel()
    if series.size == 0:
        raise EmptySeries("cannot chunk an empty series")
    hop = config.hop_samples
    width = config.chunk_samples
    n_chunks = -(-series.size // hop)  # ceil
    padded = np.zeros((n_chunks - 1) * hop + width)
    padded[:series.size] = series
    return forward_frames(padded, width, hop, n_chunks)


def _overlap_sums(chunks: np.ndarray, hop: int):
    """Sum of hop-spaced chunks per sample, and how many chunks cover it.

    Chunk i's column j lands on sample i*hop + j.  bincount adds its
    weights in input order, chunk by chunk, so each sample adds its
    covering chunks in ascending chunk order, as a loop over the chunks
    would.
    """
    chunks = np.atleast_2d(np.asarray(chunks, dtype=float))
    count, width = chunks.shape
    full = (count - 1) * hop + width
    sample = (np.arange(count)[:, None] * hop + np.arange(width)).ravel()
    return (np.bincount(sample, weights=chunks.ravel(), minlength=full),
            np.bincount(sample, minlength=full).astype(float))


def overlap_average(chunks: np.ndarray, hop: int, out_length: int) -> np.ndarray:
    """Place chunks at hop-spaced offsets and average overlapping samples."""
    acc, cover = _overlap_sums(chunks, hop)
    return (acc / cover)[:out_length]


def overlap_variance(chunk_vars: np.ndarray, hop: int, out_length: int) -> np.ndarray:
    """Variance of overlap_average's output for independent chunks.

    Each sample averages the chunks covering it with weight 1/cover, so
    their variances add with weight 1/cover^2.
    """
    acc, cover = _overlap_sums(chunk_vars, hop)
    return (acc / cover ** 2)[:out_length]


def reassemble(frames: np.ndarray, config: ChunkConfig, n_samples: int) -> np.ndarray:
    """The first n_samples of the series transform(series, config) framed.

    Every frame is inverse-transformed and the chunks are overlap-averaged.
    """
    chunks = inverse_frames(frames, config.chunk_samples)
    return overlap_average(chunks, config.hop_samples, n_samples)
