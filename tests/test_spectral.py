import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast.errors import EmptySeries, FrameDimMismatch
from flowcast.spectral import (ChunkConfig, _overlap_sums, forward_frames,
                               inverse_frames, overlap_average, reassemble,
                               strided_windows, transform)
from oracles import naive_dft

CFG = ChunkConfig(sample_interval_s=0.01, chunk_interval_s=0.05, chunk_length_s=1.0)


def one_frame(x):
    """The frame of one whole chunk through the framing primitive."""
    return forward_frames(x, x.size, 1, 1)[0]


def one_chunk(frame, width):
    return inverse_frames(frame, width)[0]


def dft_frame(chunk):
    """Oracle frame: naive DFT up to Nyquist, interleaved."""
    spec = naive_dft(chunk)[:chunk.size // 2 + 1]
    frame = np.empty(2 * spec.size)
    frame[0::2] = spec.real
    frame[1::2] = spec.imag
    return frame


class TestChunkConfig:
    def test_defaults(self):
        assert CFG.hop_samples == 5
        assert CFG.chunk_samples == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkConfig(0.01, 0.01, 1.0)  # T_C must exceed T_S
        with pytest.raises(ValueError):
            ChunkConfig(0.01, 0.05, 0.04)  # w < T_C
        with pytest.raises(ValueError):
            ChunkConfig(0.01, 0.053, 1.0)  # not a multiple


class TestChunk:
    """transform's zero-padded chunks, checked frame by frame against the
    naive DFT of the chunk each frame should cover."""

    def test_paper_dimensionality_1000_samples(self):
        # 10 s flow at T_S=0.01 with T_C=0.05, w=1 -> 200 chunks of 100
        assert transform(np.arange(1000.0), CFG).shape == (200, 102)

    def test_single_chunk_identity(self):
        cfg = ChunkConfig(0.01, 1.0, 1.0)
        series = np.arange(100.0)
        out = transform(series, cfg)
        assert out.shape == (1, 102)
        np.testing.assert_allclose(out[0], dft_frame(series), atol=1e-9)

    def test_partial_tail_zero_padded(self):
        # oracle: index arithmetic -- chunk i covers [5i, 5i+100), zero past 120
        series = np.ones(120)
        out = transform(series, CFG)
        assert out.shape == (24, 102)
        for i in range(24):
            starts = 5 * i
            valid = max(0, min(100, 120 - starts))
            chunk = np.concatenate([np.ones(valid), np.zeros(100 - valid)])
            np.testing.assert_allclose(out[i], dft_frame(chunk), atol=1e-9)
        assert out[4, 0] == pytest.approx(100.0)  # chunk 4 still fully covered
        assert out[5, 0] == pytest.approx(95.0)   # chunks 5..23 partially padded

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            transform(np.array([]), CFG)

    def test_overlap_count(self):
        # consecutive chunks overlap by (w - T_C)/T_S samples
        series = np.random.default_rng(7).uniform(0, 10, size=300)
        out = transform(series, CFG)
        for i in (0, 1, 40):
            chunk = np.zeros(100)
            covered = series[5 * i:5 * i + 100]
            chunk[:covered.size] = covered
            np.testing.assert_allclose(out[i], dft_frame(chunk), atol=1e-9)


class TestForwardFrame:
    def test_zero_chunk(self):
        frame = one_frame(np.zeros(100))
        assert frame.shape == (102,)
        np.testing.assert_array_equal(frame, np.zeros(102))

    def test_cosine_concentrates_at_bin_three(self):
        # oracle: direct O(L^2) DFT summation
        t = np.arange(100)
        x = np.cos(2 * np.pi * 3 * t / 100)
        frame = one_frame(x)
        oracle = naive_dft(x)
        np.testing.assert_allclose(frame[0::2], oracle[:51].real, atol=1e-9)
        np.testing.assert_allclose(frame[1::2], oracle[:51].imag, atol=1e-9)
        assert frame[6] == pytest.approx(50.0, rel=1e-9)  # re of coef 3 = L/2
        mags = np.hypot(frame[0::2], frame[1::2])
        assert mags[3] > 10 * np.max(np.delete(mags, 3))

    def test_frame_dim_for_100_samples(self):
        assert one_frame(np.random.default_rng(0).uniform(size=100)).size == 102
        assert transform(np.ones(100), ChunkConfig(0.01, 0.05, 1.0)).shape[1] == 102

    def test_too_short(self):
        # a one-sample chunk cannot be configured: T_C > T_S and w >= T_C
        with pytest.raises(ValueError):
            ChunkConfig(0.01, 0.01, 0.01)
        assert ChunkConfig(0.01, 0.02, 0.02).chunk_samples == 2

    def test_dc_and_nyquist_imag_zero(self):
        frame = one_frame(np.random.default_rng(1).uniform(size=64))
        assert frame[1] == 0.0            # DC imaginary part
        assert frame[-1] == 0.0           # Nyquist imaginary part (even L)


class TestInverseFrame:
    def test_zero_frame(self):
        np.testing.assert_array_equal(one_chunk(np.zeros(102), 100),
                                      np.zeros(100))

    def test_roundtrip(self):
        x = np.random.default_rng(2).uniform(0, 50, size=100)
        back = one_chunk(one_frame(x), 100)
        np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-12)

    def test_roundtrip_odd_length(self):
        x = np.random.default_rng(3).uniform(0, 5, size=99)
        back = one_chunk(one_frame(x), 99)
        np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-12)

    def test_dc_only(self):
        frame = np.zeros(102)
        frame[0] = 7.0
        np.testing.assert_allclose(one_chunk(frame, 100),
                                   np.full(100, 7.0 / 100), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(FrameDimMismatch):
            one_chunk(np.zeros(100), 100)


class TestReassemble:
    def test_roundtrip_via_transform(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 100, size=1000)
        back = reassemble(transform(x, CFG), CFG, 1000)
        assert back.size == 1000
        np.testing.assert_allclose(back, x, rtol=1e-6, atol=1e-9)

    def test_single_frame_truncated(self):
        cfg = ChunkConfig(0.01, 1.0, 1.0)
        x = np.arange(60.0)
        frames = transform(x, cfg)
        assert frames.shape[0] == 1
        back = reassemble(frames, cfg, 60)
        assert back.size == 60
        np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-9)

    def test_equal_overlaps_average_to_same(self):
        frame = one_frame(np.full(100, 3.0))
        back = reassemble(np.vstack([frame, frame]), CFG, 105)
        np.testing.assert_allclose(back, np.full(105, 3.0), rtol=1e-9)

    def test_inconsistent_dims(self):
        with pytest.raises(FrameDimMismatch):
            reassemble(np.zeros((2, 50)), CFG, 10)


def test_parseval():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=100)
    frame = one_frame(x)
    half = frame[0::2] + 1j * frame[1::2]
    # rebuild the full spectrum by conjugate symmetry
    full = np.concatenate([half, np.conj(half[-2:0:-1])])
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(full) ** 2) / 100
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_frame_count_monotone_in_chunk_interval():
    x = np.ones(1000)
    counts = []
    for t_c in (0.02, 0.05, 0.1, 0.25):
        cfg = ChunkConfig(0.01, t_c, 1.0)
        counts.append(transform(x, cfg).shape[0])
    assert counts == sorted(counts, reverse=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_roundtrip_property(length, seed):
    x = np.random.default_rng(seed).uniform(0, 10, size=length)
    back = one_chunk(one_frame(x), length)
    np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-9)


def test_overlap_average_counts():
    chunks = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
    out = overlap_average(chunks, hop=2, out_length=5)
    np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 3.0, 3.0])


@pytest.mark.parametrize("count, width, hop", [(20, 60, 5), (7, 12, 3), (1, 10, 5),
                                               (20, 60, 7), (5, 7, 3), (3, 4, 9)])
def test_overlap_sums_equal_the_chunk_loop(count, width, hop):
    # oracle: each chunk added at its offset in chunk order, for widths of
    # whole hops and not, and a hop longer than the width (uncovered gaps)
    chunks = np.random.default_rng(width).normal(size=(count, width))
    acc = np.zeros((count - 1) * hop + width)
    cover = np.zeros_like(acc)
    for i, c in enumerate(chunks):
        acc[i * hop:i * hop + width] += c
        cover[i * hop:i * hop + width] += 1.0
    got_acc, got_cover = _overlap_sums(chunks, hop)
    assert got_acc.tobytes() == acc.tobytes()
    assert got_cover.tobytes() == cover.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_forward_frames_reads_the_series_as_float64(dtype):
    # oracle: the same series cast to float64 first; a single-precision
    # spectrum would not have the interleaved float64 layout
    x = (np.random.default_rng(3).normal(size=40) * 100).astype(dtype)
    got = forward_frames(x, 10, 5, 7)
    assert got.shape == (7, 12) and got.dtype == np.float64
    np.testing.assert_array_equal(got, forward_frames(x.astype(float), 10, 5, 7))


@pytest.mark.parametrize("size, width, hop", [(900, 60, 5), (900, 100, 5), (37, 7, 3),
                                              (10, 10, 4)])
def test_strided_windows_equal_sliding_window_view(size, width, hop):
    # oracle: numpy's sliding windows, every hop-th one, as many as fit
    x = np.random.default_rng(size).normal(size=size)
    count = (size - width) // hop + 1
    expected = np.lib.stride_tricks.sliding_window_view(x, width)[::hop]
    got = strided_windows(x, width, hop, count)
    assert got.shape == expected.shape == (count, width)
    np.testing.assert_array_equal(got, expected)
    assert not got.flags.writeable


def test_strided_windows_refuse_windows_past_the_end():
    x = np.arange(11.0)
    assert strided_windows(x, 5, 3, 3)[-1].tolist() == [6.0, 7.0, 8.0, 9.0, 10.0]
    for series, count in ((x[:10], 3), (x, 4), (x.reshape(1, -1), 1)):
        with pytest.raises(ValueError, match="do not fit"):
            strided_windows(series, 5, 3, count)
