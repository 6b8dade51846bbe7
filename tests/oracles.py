"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch with different
algorithms and different arithmetic than the package code: a quadratic-time
neighbor scan, brute-force partition enumeration, a Monte Carlo of the graph
constant on the periodic box, and direct numerical integration of the
closed-form target quantities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, trapezoid
from scipy.spatial import cKDTree
from scipy.special import betainc
from scipy.stats import multivariate_normal, norm, poisson


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


def torus_gamma(d: int, p: float, spec, n: int, reps: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo graph constant on the periodic unit box: ``(mean, std_error)``.

    Each of ``reps`` samples of ``n`` uniform points gets its neighbor
    distances on the flat torus (``cKDTree(boxsize=1.0)``), and contributes
    ``L_p / n^(1-p/d)`` summed over the ranks in ``spec``. The torus has no
    boundary, so the mean converges to the limit constant without the unit
    cube's ``n^(-1/d)`` boundary term (Yukich, LNM 1675).
    """
    table = _torus_distances(d, n, reps, seed, max(spec))
    cols = [k - 1 for k in sorted(spec)]
    values = (table[:, :, cols] ** p).sum(axis=(1, 2)) / n ** (1.0 - p / d)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(reps))


# The last table of torus distances, reused by calls that differ only in
# the power or in ranks it holds: a grid of cells then searches each sample
# once.
_TORUS_TABLE: dict = {}


def _torus_distances(d: int, n: int, reps: int, seed: int, k: int) -> np.ndarray:
    """Distances to ranks 1..k (or more) on the torus, shape ``(reps, n, >= k)``."""
    key = (d, n, reps, seed)
    table = _TORUS_TABLE.get(key)
    if table is None or table.shape[2] < k:
        table = np.empty((reps, n, k))
        for rep, stream in enumerate(np.random.SeedSequence(seed).spawn(reps)):
            pts = np.random.default_rng(stream).random((n, d))
            # Each point is its own nearest hit, so rank j is the (j+1)-th.
            table[rep], _ = cKDTree(pts, boxsize=1.0).query(pts, k=list(range(2, k + 2)))
        _TORUS_TABLE.clear()
        _TORUS_TABLE[key] = table
    return table


def boundary_coefficient_quad(d: int, p: float, k: int) -> float:
    """The unit cube's boundary coefficient ``b_k`` from its double-integral definition.

    A point at depth ``t`` below one face, among unit-density Poisson points
    on the inner side, has ``E R^p(t) = int p r^(p-1) P(Poisson(v(r, t)) < k) dr``
    for its k-th neighbor distance ``R``, where ``v(r, t)`` is the volume of
    the radius-``r`` ball on that side. Then
    ``b_k = 2d int_0^inf (E R^p(t) - E R^p(inf)) dt / E R^p(inf)``.
    Both integrals are adaptive ``quad``; nothing is taken in closed form
    beyond the ball and its cap volume.
    """
    ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)

    def tail(r, share):
        return p * r ** (p - 1.0) * poisson.cdf(k - 1, ball * r**d * share)

    def excess(t):
        # Balls with r <= t lie inside, so only r > t differs from the full space.
        def f(r):
            share = 1.0 - 0.5 * betainc((d + 1) / 2.0, 0.5, 1.0 - (t / r) ** 2)
            return tail(r, share) - tail(r, 1.0)

        return quad(f, t, math.inf, limit=200)[0]

    full = quad(lambda r: tail(r, 1.0), 0.0, math.inf, limit=200)[0]
    return 2.0 * d * quad(excess, 0.0, math.inf, limit=200)[0] / full


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
