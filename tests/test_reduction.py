import numpy as np
import pytest
import scipy.linalg

from flowcast.errors import BadDimension, InsufficientData
from flowcast.reduction import (fit_pca, fit_standardizer, inverse_project,
                                project)


class TestStandardizer:
    def test_two_point_case(self):
        std = fit_standardizer(np.array([[0.0], [2.0]]))
        assert std.means.tolist() == [1.0]
        assert std.stds.tolist() == [1.0]

    def test_constant_column_passed_through(self):
        data = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
        std = fit_standardizer(data)
        out = std.apply(data)
        np.testing.assert_allclose(out[:, 0], 0.0)  # centered, not scaled
        assert std.stds[0] < 1e-12

    def test_standardized_stats_oracle(self):
        # oracle: direct two-pass mean/std computation on a random matrix
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 3.0, size=(200, 102))
        std = fit_standardizer(data)
        out = std.apply(data)
        means = np.array([np.mean(out[:, j]) for j in range(102)])
        stds = np.array([np.sqrt(np.mean((out[:, j] - means[j]) ** 2))
                         for j in range(102)])
        assert np.max(np.abs(means)) < 1e-9
        np.testing.assert_allclose(stds, 1.0, atol=1e-9)

    def test_apply_invert_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-3, 7, size=(50, 8))
        std = fit_standardizer(data)
        np.testing.assert_allclose(std.invert(std.apply(data)), data, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            fit_standardizer(np.ones((1, 4)))


def _standardized(rng, rows, cols, rank=None):
    if rank is None:
        data = rng.normal(size=(rows, cols))
    else:
        data = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    std = fit_standardizer(data)
    return std.apply(data), std, data


class TestFitPca:
    def test_full_dim_explains_everything(self):
        rng = np.random.default_rng(2)
        standardized, _, _ = _standardized(rng, 60, 10)
        basis = fit_pca(standardized, 10)
        assert basis.cumulative_explained_variance == pytest.approx(1.0, abs=1e-9)

    def test_rank_two_data(self):
        # oracle: explicit 2-factor generative model
        rng = np.random.default_rng(3)
        standardized, _, _ = _standardized(rng, 80, 12, rank=2)
        basis = fit_pca(standardized, 2)
        assert basis.cumulative_explained_variance == pytest.approx(1.0, abs=1e-9)

    def test_low_rank_plus_noise_concentrates(self):
        rng = np.random.default_rng(4)
        data = (rng.normal(size=(300, 20)) @ rng.normal(size=(20, 102))
                + 0.05 * rng.normal(size=(300, 102)))
        std = fit_standardizer(data)
        basis = fit_pca(std.apply(data), 80)
        assert basis.cumulative_explained_variance > 0.99

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(5)
        standardized, _, _ = _standardized(rng, 100, 30)
        basis = fit_pca(standardized, 12)
        gram = basis.components.T @ basis.components
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-8)

    def test_ratio_non_increasing_and_bounded(self):
        rng = np.random.default_rng(6)
        standardized, _, _ = _standardized(rng, 100, 30)
        basis = fit_pca(standardized, 30)
        assert np.all(np.diff(basis.explained_variance_ratio) <= 1e-12)
        assert basis.explained_variance_ratio.sum() <= 1 + 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(7)
        standardized, _, _ = _standardized(rng, 100, 10)
        basis = fit_pca(standardized, 5)
        for j in range(5):
            col = basis.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_matches_svd_of_the_block(self):
        # oracle: numpy's SVD of the N x D block itself.  Five directions
        # carry singular values 40..20 and the rest <= 1, so the kept
        # subspace is well separated from the discarded one
        rng = np.random.default_rng(9)
        rows, cols, kept = 400, 60, 5
        left = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
        right = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
        svals = np.concatenate([np.linspace(40.0, 20.0, kept),
                                np.linspace(1.0, 0.01, cols - kept)])
        block = (left * svals) @ right.T
        basis = fit_pca(block, kept)
        _, s, vt = np.linalg.svd(block, full_matrices=False)
        angles = scipy.linalg.subspace_angles(basis.components, vt[:kept].T)
        assert angles.max() <= 1e-10
        np.testing.assert_allclose(basis.explained_variance_ratio,
                                   s[:kept] ** 2 / np.sum(s ** 2), rtol=0, atol=1e-12)
        for j in range(kept):
            col = basis.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0
            # each component is the SVD's, up to that sign
            assert abs(col @ vt[j]) == pytest.approx(1.0, abs=1e-10)

    def test_kept_dim_out_of_range(self):
        rng = np.random.default_rng(8)
        standardized, _, _ = _standardized(rng, 20, 10)
        with pytest.raises(BadDimension):
            fit_pca(standardized, 11)
        with pytest.raises(BadDimension):
            fit_pca(standardized, 0)


class TestProjection:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.data = (rng.normal(size=(120, 6)) @ rng.normal(size=(6, 18))
                     + 0.01 * rng.normal(size=(120, 18)))
        self.std = fit_standardizer(self.data)
        self.basis = fit_pca(self.std.apply(self.data), 6)
        self.full_basis = fit_pca(self.std.apply(self.data), 18)

    def test_reconstruction_error_matches_discarded_variance(self):
        # oracle: residual-norm computation vs (1 - cum ratio) * total variance
        standardized = self.std.apply(self.data)
        reduced = project(self.basis, self.std, self.data)
        recon = reduced @ self.basis.components.T
        resid = np.sum((standardized - recon) ** 2)
        total = np.sum(standardized ** 2)
        discarded = (1.0 - self.basis.cumulative_explained_variance) * total
        assert resid == pytest.approx(discarded, rel=1e-6, abs=1e-9)

    def test_zero_row_maps_to_zero(self):
        zero_raw = self.std.invert(np.zeros((1, 18)))
        out = project(self.basis, self.std, zero_raw)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_full_dim_is_isometry(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(10, 18))
        reduced = project(self.full_basis, self.std, rows)
        pre = self.std.apply(rows)
        for i in range(10):
            for j in range(i):
                d_orig = np.linalg.norm(pre[i] - pre[j])
                d_red = np.linalg.norm(reduced[i] - reduced[j])
                assert d_red == pytest.approx(d_orig, abs=1e-8)

    def test_project_then_inverse_on_reduced_space(self):
        reduced = project(self.basis, self.std, self.data)
        again = project(self.basis, self.std,
                        inverse_project(self.basis, self.std, reduced))
        np.testing.assert_allclose(again, reduced, atol=1e-8)

    def test_inverse_of_zero_gives_means(self):
        out = inverse_project(self.basis, self.std, np.zeros((1, 6)))
        np.testing.assert_allclose(out[0], self.std.means, atol=1e-12)

    def test_full_dim_roundtrip_identity(self):
        # oracle: matrix identity check at kept_dim = original_dim
        rows = self.data[:7]
        back = inverse_project(self.full_basis, self.std,
                               project(self.full_basis, self.std, rows))
        np.testing.assert_allclose(back, rows, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(BadDimension):
            project(self.basis, self.std, np.ones((2, 7)))
        with pytest.raises(BadDimension):
            inverse_project(self.basis, self.std, np.ones((2, 7)))

    def test_cumulative_variance_monotone(self):
        standardized = self.std.apply(self.data)
        cums = [fit_pca(standardized, k).cumulative_explained_variance
                for k in range(1, 19)]
        assert all(b >= a - 1e-12 for a, b in zip(cums, cums[1:]))
