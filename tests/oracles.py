"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch with different
algorithms and different arithmetic than the package code: a quadratic-time
neighbor scan, brute-force partition enumeration, and direct numerical
integration of the closed-form target quantities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import trapezoid
from scipy.stats import multivariate_normal, norm


def brute_knn(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs k-nearest-neighbor reference.

    Computes the full (n, n) squared-distance matrix, excludes
    self-distances, and sorts each row by (squared distance, index); two
    distinct squared distances can share a rounded square root, so sorting
    by the root would break such ties differently. Returns
    ``(indices, distances)`` of shape ``(n, k)`` each.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    sq = (diff * diff).sum(axis=-1)
    np.fill_diagonal(sq, np.inf)
    order = np.lexsort((np.tile(np.arange(n), (n, 1)), sq), axis=1)[:, :k]
    return order, np.sqrt(np.take_along_axis(sq, order, axis=1))


def equal_block_partitions(items: tuple[int, ...], block_size: int):
    """Yield every partition of ``items`` into blocks of ``block_size``.

    Each partition is a tuple of sorted blocks; the first remaining item is
    always placed first in its block, so no partition appears twice.
    """
    items = tuple(items)
    if not items:
        yield ()
        return
    if len(items) % block_size:
        raise ValueError("items do not divide into equal blocks")
    from itertools import combinations

    head, rest = items[0], items[1:]
    for partners in combinations(rest, block_size - 1):
        block = (head, *partners)
        remaining = tuple(i for i in rest if i not in partners)
        for sub in equal_block_partitions(remaining, block_size):
            yield (block, *sub)


def quad_gaussian_entropy_1d(variance: float, alpha: float, grid: int = 20001, span: float = 12.0) -> float:
    """Order-alpha entropy of N(0, variance) by direct 1-D quadrature."""
    sigma = math.sqrt(variance)
    x = np.linspace(-span * sigma, span * sigma, grid)
    f = norm.pdf(x, scale=sigma)
    integral = trapezoid(f**alpha, x)
    return math.log(integral) / (1.0 - alpha)


def quad_gaussian_mi_3d(cov: np.ndarray, alpha: float, grid: int = 161, span: float = 8.0) -> float:
    """Order-alpha mutual information of a trivariate Gaussian by quadrature.

    Integrates ``f^alpha * (f_1 f_2 f_3)^(1-alpha)`` on a tensor grid over
    ``[-span*sigma, span*sigma]^3`` with the trapezoid rule, then applies
    ``log(.)/(alpha - 1)``. The covariance must have unit diagonal.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (3, 3) or not np.allclose(np.diag(cov), 1.0):
        raise ValueError("expected a 3x3 covariance with unit diagonal")
    x = np.linspace(-span, span, grid)
    joint = multivariate_normal(mean=np.zeros(3), cov=cov)
    marg = norm.pdf(x)
    slices = np.empty(grid)
    x23 = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    prod23 = np.outer(marg, marg).reshape(-1)
    for i, x1 in enumerate(x):
        pts = np.column_stack([np.full(len(x23), x1), x23])
        integrand = joint.pdf(pts) ** alpha * (marg[i] * prod23) ** (1.0 - alpha)
        inner = trapezoid(integrand.reshape(grid, grid), x, axis=1)
        slices[i] = trapezoid(inner, x)
    integral = trapezoid(slices, x)
    return math.log(integral) / (alpha - 1.0)


def segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the segment ``[a, b]``."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)
