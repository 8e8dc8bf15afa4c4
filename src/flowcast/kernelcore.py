"""Gaussian kernel, bandwidth selection and Gram-matrix construction.

All embeddings in the filter are built on a single isotropic Gaussian
kernel per space (one for states, one for observations).  The length
scale is chosen with the median heuristic and multiplied by a
user-tunable scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import BadDimension, ZeroBandwidth

DEFAULT_SUBSET_SIZE = 500
_GRAM_BLOCK = 1 << 16  # entries of na + nb formed at once in gram


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel with effective length scale bandwidth * scale_factor."""

    bandwidth: float
    scale_factor: float = 1.0

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.scale_factor > 0:
            raise ValueError("scale_factor must be positive")

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.scale_factor


def median_heuristic(samples: np.ndarray, subset_size: int = DEFAULT_SUBSET_SIZE,
                     seed: int = 0) -> float:
    """Bandwidth = sqrt(median of pairwise squared distances) on a seeded subset.

    Raises ZeroBandwidth when the subset collapses to a single point;
    callers must perturb their data or fail.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 2:
        raise ZeroBandwidth("need at least two samples")
    if subset_size < 2:
        raise ZeroBandwidth("subset_size must be at least 2")
    take = min(subset_size, samples.shape[0])
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(samples.shape[0], size=take, replace=False))
    sq = pdist(samples[idx], metric="sqeuclidean")
    med = float(np.median(sq))
    if med <= 0.0:
        raise ZeroBandwidth("median pairwise distance is zero")
    return float(np.sqrt(med))


def gram(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix G[i, j] = exp(-||a_i - b_j||^2 / (2 * eff_bw^2)).

    When ``a is b`` the result is made exactly symmetric with a unit
    diagonal (both hold mathematically; this removes float drift).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    same = b is a
    b2 = a if same else np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b2.shape[1]:
        raise BadDimension(f"column mismatch: {a.shape[1]} vs {b2.shape[1]}")
    na = np.einsum("ij,ij->i", a, a)
    nb = na if same else np.einsum("ij,ij->i", b2, b2)
    # exp(-(na + nb - 2 a b') / denom) in the buffer of the cross product,
    # na + nb formed a block of rows at a time; each in-place step is the
    # IEEE operation of the plain expression, in the same order
    g = a @ b2.T
    g *= 2.0
    rows = max(1, _GRAM_BLOCK // max(1, g.shape[1]))
    for start in range(0, g.shape[0], rows):
        block = g[start:start + rows]
        np.subtract(na[start:start + rows, None] + nb[None, :], block, out=block)
    np.clip(g, 0.0, None, out=g)
    g /= -(2.0 * spec.effective_bandwidth ** 2)
    np.exp(g, out=g)
    if same:
        g += g.T  # numpy buffers the overlapping operand
        g *= 0.5
        np.fill_diagonal(g, 1.0)
    return g


def kernel_vector(train: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel responses of a single point against the training rows."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise BadDimension("y must be a single row")
    return gram(np.atleast_2d(train), y[None, :], spec)[:, 0]
