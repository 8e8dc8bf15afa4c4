import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast import kernelcore
from flowcast.errors import BadDimension, ZeroBandwidth
from flowcast.kernelcore import KernelSpec, gram, kernel_vector, median_heuristic
from oracles import exhaustive_median_bandwidth, naive_gram


class TestMedianHeuristic:
    def test_two_points(self):
        bw = median_heuristic(np.array([[0.0], [2.0]]), subset_size=10, seed=0)
        assert bw == pytest.approx(2.0)

    def test_matches_exhaustive_on_full_subset(self):
        # oracle: O(n^2) exhaustive pairwise computation
        rng = np.random.default_rng(0)
        grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), axis=-1)
        points = grid.reshape(-1, 2) + 0.0 * rng.normal()
        bw = median_heuristic(points, subset_size=100, seed=1)
        assert bw == pytest.approx(exhaustive_median_bandwidth(points), rel=1e-12)

    def test_identical_points(self):
        with pytest.raises(ZeroBandwidth):
            median_heuristic(np.ones((20, 3)), subset_size=20, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(1000, 4))
        a = median_heuristic(points, subset_size=50, seed=7)
        b = median_heuristic(points, subset_size=50, seed=7)
        assert a == b

    def test_single_sample_rejected(self):
        with pytest.raises(ZeroBandwidth):
            median_heuristic(np.ones((1, 2)))


def _plain_gram(a, b, spec):
    """The expression gram evaluates, in full-size temporaries."""
    na, nb = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
    d2 = na[:, None] + nb[None, :] - 2.0 * (a @ b.T)
    np.clip(d2, 0.0, None, out=d2)
    expected = np.exp(-d2 / (2.0 * spec.effective_bandwidth ** 2))
    if b is a:
        expected = 0.5 * (expected + expected.T)
        np.fill_diagonal(expected, 1.0)
    return expected


class TestGram:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        g = gram(x, x, KernelSpec(bandwidth=1.3))
        assert np.all(np.diag(g) == 1.0)
        np.testing.assert_array_equal(g, g.T)

    def test_closed_form_offdiagonal(self):
        # distance = eff_bw * sqrt(2) -> kernel value e^-1
        spec = KernelSpec(bandwidth=0.5, scale_factor=2.0)
        d = spec.effective_bandwidth * np.sqrt(2.0)
        g = gram(np.array([[0.0], [d]]), np.array([[0.0], [d]]), spec)
        assert g[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("same", [True, False], ids=["a_is_b", "distinct"])
    def test_bit_equal_to_the_plain_expression(self, same):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(70, 12)) * 3.0
        b = a if same else rng.normal(size=(55, 12))
        spec = KernelSpec(bandwidth=1.7, scale_factor=0.8)
        assert gram(a, b, spec).tobytes() == _plain_gram(a, b, spec).tobytes()

    @pytest.mark.parametrize("block", [97, 1], ids=["ragged", "rowwise"])
    @pytest.mark.parametrize("same", [True, False], ids=["a_is_b", "distinct"])
    def test_row_blocks_bit_equal_to_the_plain_expression(self, same, block,
                                                          monkeypatch):
        # gram forms na + nb a block of rows at a time in the cross
        # product's buffer; a small block gives many blocks, the last short
        monkeypatch.setattr(kernelcore, "_GRAM_BLOCK", block)
        rng = np.random.default_rng(10)
        a = rng.normal(size=(83, 7)) * 2.0
        b = a if same else rng.normal(size=(41, 7))
        spec = KernelSpec(bandwidth=1.1, scale_factor=1.3)
        assert gram(a, b, spec).tobytes() == _plain_gram(a, b, spec).tobytes()

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(50, 10))
        b = rng.normal(size=(60, 10))
        spec = KernelSpec(bandwidth=2.2, scale_factor=0.7)
        got = gram(a, b, spec)
        expected = naive_gram(a, b, spec.effective_bandwidth)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(BadDimension):
            gram(np.ones((3, 2)), np.ones((3, 3)), KernelSpec(bandwidth=1.0))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        g = gram(rng.normal(size=(30, 4)), rng.normal(size=(20, 4)),
                 KernelSpec(bandwidth=0.8))
        assert np.all(g > 0.0) and np.all(g <= 1.0)

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 6))
        g = gram(x, x, KernelSpec(bandwidth=1.1))
        assert np.linalg.eigvalsh(g)[0] >= -1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        g1 = gram(x, x, KernelSpec(bandwidth=0.9))
        g2 = gram(3.0 * x, 3.0 * x, KernelSpec(bandwidth=2.7))
        np.testing.assert_allclose(g1, g2, atol=1e-12)


class TestKernelVector:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.train = rng.normal(size=(30, 4))
        self.spec = KernelSpec(bandwidth=1.0)

    def test_self_entry_is_one(self):
        v = kernel_vector(self.train, self.train[7], self.spec)
        assert v[7] == pytest.approx(1.0, rel=1e-12)

    def test_far_point_decays(self):
        v = kernel_vector(self.train, np.full(4, 1e3), self.spec)
        assert np.all(v < 1e-6)

    def test_consistent_with_gram(self):
        y = np.random.default_rng(9).normal(size=4)
        v = kernel_vector(self.train, y, self.spec)
        np.testing.assert_array_equal(v, gram(self.train, y[None], self.spec)[:, 0])

    def test_requires_single_row(self):
        with pytest.raises(BadDimension):
            kernel_vector(self.train, self.train[:2], self.spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=1.0, scale_factor=0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.1, max_value=10.0))
def test_gram_psd_property(n, seed, bandwidth):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    g = gram(x, x, KernelSpec(bandwidth=bandwidth))
    assert np.linalg.eigvalsh(g)[0] >= -1e-10
