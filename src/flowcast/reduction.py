"""Standardization and PCA, always fitted on training data only.

Held-out flows are transformed with the training-fitted means, stds and
components; nothing here refits on test data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, InsufficientData

# Columns with std below this are centered but not scaled (near-constant
# spectral coefficients of quiet flows).
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray
    stds: np.ndarray

    @property
    def dim(self) -> int:
        return self.means.size

    def scales(self) -> np.ndarray:
        """Per-column divisors: the stds, with degenerate columns unscaled."""
        return np.where(self.stds < DEGENERATE_STD, 1.0, self.stds)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.dim:
            raise BadDimension(f"expected {self.dim} columns, got {rows.shape[1]}")
        return (rows - self.means) / self.scales()

    def invert(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.dim:
            raise BadDimension(f"expected {self.dim} columns, got {rows.shape[1]}")
        return rows * self.scales() + self.means


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal components (original_dim x kept_dim), variance-ordered."""

    components: np.ndarray
    explained_variance_ratio: np.ndarray
    original_dim: int
    kept_dim: int

    @property
    def cumulative_explained_variance(self) -> float:
        return float(np.sum(self.explained_variance_ratio))


def fit_standardizer(data: np.ndarray) -> Standardizer:
    """Per-column means and (population) stds of the training rows."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < 2:
        raise InsufficientData(f"need >= 2 rows, got {data.shape[0]}")
    return Standardizer(means=data.mean(axis=0), stds=data.std(axis=0))


def fit_pca(standardized: np.ndarray, kept_dim: int) -> PcaBasis:
    """PCA of an (already standardized) N x D matrix Z.

    The kept components are the leading eigenvectors of the D x D Z'Z,
    whose eigenvalues are the squared singular values of Z (negative
    roundoff clamped to zero); the explained-variance total is ||Z||_F^2,
    so no N x D factorization is formed.  The components' sign is fixed so
    each column's largest-magnitude entry is positive, making the basis
    deterministic across runs.
    """
    data = np.atleast_2d(np.asarray(standardized, dtype=float))
    rows, cols = data.shape
    if not 1 <= kept_dim <= min(rows - 1, cols):
        raise BadDimension(
            f"kept_dim {kept_dim} out of range [1, {min(rows - 1, cols)}]")
    evals, evecs = np.linalg.eigh(data.T @ data)
    var = np.maximum(evals[::-1][:kept_dim], 0.0)
    total = np.einsum("ij,ij->", data, data)
    ratio = var / total if total > 0 else np.zeros_like(var)
    components = evecs[:, ::-1][:, :kept_dim].copy()
    for j in range(kept_dim):
        col = components[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, j] = -col
    return PcaBasis(components=components, explained_variance_ratio=ratio,
                    original_dim=cols, kept_dim=kept_dim)


def project(basis: PcaBasis, standardizer: Standardizer, rows: np.ndarray) -> np.ndarray:
    """Standardize with the training statistics, then project onto the basis."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != basis.original_dim:
        raise BadDimension(f"expected {basis.original_dim} columns, got {rows.shape[1]}")
    return standardizer.apply(rows) @ basis.components


def inverse_project(basis: PcaBasis, standardizer: Standardizer,
                    reduced_rows: np.ndarray) -> np.ndarray:
    """Left-inverse of project on the retained subspace; de-standardizes."""
    reduced_rows = np.atleast_2d(np.asarray(reduced_rows, dtype=float))
    if reduced_rows.shape[1] != basis.kept_dim:
        raise BadDimension(f"expected {basis.kept_dim} columns, got {reduced_rows.shape[1]}")
    return standardizer.invert(reduced_rows @ basis.components.T)
