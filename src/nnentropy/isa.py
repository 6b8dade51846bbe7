"""Independent subspace analysis driven by the mutual-information estimator.

The pipeline is the classical two-stage reduction: whiten the observations,
run a symmetric fixed-point ICA to get one-dimensional components, then
group the components into blocks of the known subspace dimension by
maximizing the sum of within-block mutual information (greedy agglomeration
plus pairwise-swap refinement). Separation quality against a known mixing
matrix is scored with a block-structure index in [0, 1] (0 means perfect
block-permutation recovery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError
from .estimators import EstimatorSettings, _copula_entropy, empirical_copula

# Unused here: the benchmark's tracer (perfbench/spans.py) wraps this
# attribute of the module, so it stays until the tracer goes (ROADMAP item 6).
from .estimators import renyi_mi  # noqa: F401
from .points import PointSet, as_point_set, check_integer

__all__ = [
    "IsaProblem",
    "IsaSolution",
    "FastICAResult",
    "whiten",
    "fastica",
    "pairwise_mi_matrix",
    "group_components",
    "block_norm_matrix",
    "amari_block_index",
    "run_isa",
]

# Cap on full swap sweeps: the search ends on its own, since every swap it
# accepts strictly raises the objective; the cap bounds its cost.
_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class IsaProblem:
    """Observed mixtures plus the block structure to recover.

    ``observations`` is the (n, q) sample of mixed signals; sources are
    ``num_sources`` independent blocks of ``subspace_dim`` coordinates
    each, with ``q >= subspace_dim * num_sources``. When the true mixing
    matrix is known it enables scoring of the recovered separation.
    """

    observations: PointSet
    subspace_dim: int
    num_sources: int
    true_mixing: np.ndarray | None = None

    def __post_init__(self) -> None:
        obs = as_point_set(self.observations)
        object.__setattr__(self, "observations", obs)
        d = check_integer(self.subspace_dim, "subspace_dim")
        m = check_integer(self.num_sources, "num_sources", 2)
        object.__setattr__(self, "subspace_dim", d)
        object.__setattr__(self, "num_sources", m)
        if obs.d < d * m:
            raise ValueError(
                f"observations have {obs.d} coordinates; need at least subspace_dim * num_sources = {d * m}"
            )
        if self.true_mixing is not None:
            a = np.atleast_2d(np.asarray(self.true_mixing, dtype=np.float64))
            if a.shape != (obs.d, d * m):
                raise ValueError(
                    f"true_mixing must have shape ({obs.d}, {d * m}), got {a.shape}"
                )
            object.__setattr__(self, "true_mixing", a)


@dataclass(frozen=True, eq=False)
class IsaSolution:
    """A recovered separation.

    ``separation`` maps (centered) observations to grouped components;
    ``blocks`` partitions the component indices into blocks of the
    subspace dimension; ``objective`` is the attained sum of within-block
    mutual information; ``score`` is the block-structure index against the
    true mixing when known (lower is better, 0 is perfect). ``iterations``
    and ``converged`` report the ICA stage of :func:`run_isa` (None when
    the components were grouped without it).
    """

    separation: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    objective: float
    score: float | None = None
    warnings: tuple[str, ...] = ()
    iterations: int | None = None
    converged: bool | None = None


@dataclass(frozen=True, eq=False)
class FastICAResult:
    """Unmixing matrix from the fixed-point iteration, with diagnostics."""

    w: np.ndarray
    iterations: int
    converged: bool
    warnings: tuple[str, ...] = ()


def whiten(points, n_components: int) -> tuple[PointSet, np.ndarray]:
    """Center, whiten and project a sample; returns the output and the matrix.

    The sample is projected onto its ``n_components`` leading
    eigendirections (largest variances) and scaled to identity sample
    covariance (to float precision); the returned matrix has shape
    ``(n_components, d)``.

    Raises
    ------
    DegenerateSampleError
        If the sample covariance has rank below ``n_components``.
    """
    ps = as_point_set(points)
    if ps.n < 2:
        raise DegenerateSampleError("whitening needs at least two points")
    X = ps.points
    centered = X - X.mean(axis=0)
    cov = (centered.T @ centered) / (ps.n - 1)
    w, u = np.linalg.eigh(cov)
    keep = check_integer(n_components, "n_components")
    if keep > ps.d:
        raise ValueError(f"n_components must be in [1, {ps.d}], got {n_components}")
    # eigh returns ascending eigenvalues; the leading directions are last.
    if w[ps.d - keep] <= 1e-12 * max(w[-1], 1.0):
        raise DegenerateSampleError("singular covariance: sample does not span the requested rank")
    w_top = w[ps.d - keep :][::-1]
    u_top = u[:, ps.d - keep :][:, ::-1]
    matrix = (u_top / np.sqrt(w_top)).T
    return PointSet(centered @ matrix.T), matrix


def _orthonormal_rows(m: np.ndarray) -> np.ndarray:
    """Symmetric decorrelation: the closest matrix with orthonormal rows."""
    w, v = np.linalg.eigh(m @ m.T)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise DegenerateSampleError("unmixing matrix became singular during iteration")
    return (v / np.sqrt(w)) @ v.T @ m


def fastica(points, seed=0, max_iter: int = 500) -> FastICAResult:
    """Symmetric fixed-point ICA with the tanh nonlinearity.

    Expects whitened input. All rows are updated in parallel and
    re-orthonormalized each step; iteration stops when every row's overlap
    with its previous value is within 1e-6 of 1, or after ``max_iter``
    iterations (recorded as a warning in the result, not an error).
    """
    ps = as_point_set(points)
    max_iter = check_integer(max_iter, "max_iter")
    X = ps.points
    n, q = X.shape
    rng = np.random.default_rng(seed)
    w0, r0 = np.linalg.qr(rng.standard_normal((q, q)))
    w = (w0 * np.sign(np.diag(r0))).T

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = X @ w.T
        g = np.tanh(y)
        g_prime_mean = (1.0 - g * g).mean(axis=0)
        w_new = (g.T @ X) / n - g_prime_mean[:, None] * w
        w_new = _orthonormal_rows(w_new)
        overlap = np.abs((w_new * w).sum(axis=1))
        w = w_new
        if np.max(np.abs(overlap - 1.0)) < 1e-6:
            converged = True
            break
    warnings = ()
    if not converged:
        warnings = (f"fixed-point iteration did not converge within {max_iter} iterations",)
    return FastICAResult(w=w, iterations=iterations, converged=converged, warnings=warnings)


def pairwise_mi_matrix(ics, settings: EstimatorSettings) -> np.ndarray:
    """Symmetric matrix of pairwise mutual information between components.

    The components are ranked once and each pair is scored on its two
    columns of that copula (see :func:`_copula_mi`).
    """
    copula = empirical_copula(ics).points
    q = copula.shape[1]
    matrix = np.zeros((q, q))
    for i in range(q):
        for j in range(i + 1, q):
            matrix[i, j] = matrix[j, i] = _copula_mi(copula, [i, j], settings)
    return matrix


def _copula_mi(copula: np.ndarray, cols, settings: EstimatorSettings) -> float:
    """:func:`renyi_mi` of columns ``cols`` of the sample whose copula is given.

    Ranks are taken per column, so a column slice of the copula is the
    copula of that column slice, and the value equals ``renyi_mi`` on the
    raw columns bitwise.
    """
    return -_copula_entropy(copula[:, cols], settings).value


def _greedy_blocks(matrix: np.ndarray, d: int, m: int) -> list[list[int]]:
    """Grow blocks greedily from the pairwise-association matrix.

    Each block is seeded with the unassigned component of highest total
    association and grown by repeatedly adding the unassigned component
    with the highest average link to the block. Ties break toward the
    lowest component index.
    """
    unassigned = list(range(d * m))
    blocks: list[list[int]] = []
    for _ in range(m):
        totals = matrix[np.ix_(unassigned, unassigned)].sum(axis=1)
        seed_pos = int(np.lexsort((unassigned, -totals))[0])
        block = [unassigned.pop(seed_pos)]
        while len(block) < d:
            links = matrix[np.ix_(unassigned, block)].mean(axis=1)
            pos = int(np.lexsort((unassigned, -links))[0])
            block.append(unassigned.pop(pos))
        blocks.append(sorted(block))
    return blocks


def group_components(
    ics, subspace_dim: int, num_sources: int, settings: EstimatorSettings
) -> IsaSolution:
    """Partition components into blocks maximizing within-block dependence.

    The objective is the sum over blocks of the joint mutual information of
    the block's components. Search: greedy agglomeration on the pairwise-MI
    matrix, then sweeps of cross-block pairwise swaps, accepting a swap only
    when it strictly increases the objective; the objective therefore never
    decreases, and termination is guaranteed.

    The search is deterministic. The components are ranked once for the
    pairs and once for the blocks, and each pair and block gets one neighbor
    search, on its columns of that copula; the values equal
    :func:`renyi_mi` on the raw columns, bitwise, so the normalizing
    constant is the same for every pair and for every block.
    """
    ps = as_point_set(ics)
    d, m = check_integer(subspace_dim, "subspace_dim"), check_integer(num_sources, "num_sources")
    if ps.d != d * m:
        raise ValueError(
            f"{ps.d} components cannot be grouped into {m} blocks of {d}"
        )
    copula = empirical_copula(ps).points

    mi_cache: dict[frozenset, float] = {}

    def block_mi(block) -> float:
        key = frozenset(block)
        if key not in mi_cache:
            if len(block) == 1:
                mi_cache[key] = 0.0
            else:
                mi_cache[key] = _copula_mi(copula, sorted(block), settings)
        return mi_cache[key]

    if d == 1:
        blocks = [[c] for c in range(m)]
    else:
        blocks = _greedy_blocks(pairwise_mi_matrix(ps, settings), d, m)
        blocks = _swap_refine(blocks, block_mi)

    blocks_sorted = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
    objective = math.fsum(block_mi(b) for b in blocks_sorted)
    order = [c for b in blocks_sorted for c in b]
    permutation = np.eye(d * m)[order]
    return IsaSolution(separation=permutation, blocks=blocks_sorted, objective=objective)


def _swap_refine(blocks: list[list[int]], block_mi) -> list[list[int]]:
    """Pairwise-swap local search; accepts strictly improving swaps only."""
    for _ in range(_MAX_SWEEPS):
        improved = False
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for xi in range(len(blocks[bi])):
                    for yj in range(len(blocks[bj])):
                        a, b = blocks[bi], blocks[bj]
                        x, y = a[xi], b[yj]
                        new_a = [c for c in a if c != x] + [y]
                        new_b = [c for c in b if c != y] + [x]
                        delta = (
                            block_mi(new_a) + block_mi(new_b) - block_mi(a) - block_mi(b)
                        )
                        if delta > 0.0:
                            blocks[bi], blocks[bj] = sorted(new_a), sorted(new_b)
                            improved = True
        if not improved:
            break
    return blocks


def block_norm_matrix(g, subspace_dim: int, num_sources: int) -> np.ndarray:
    """Collapse a (dm, dm) matrix to the (m, m) grid of block Frobenius norms."""
    d, m = check_integer(subspace_dim, "subspace_dim"), check_integer(num_sources, "num_sources")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (d * m, d * m):
        raise ValueError(f"matrix must have shape ({d * m}, {d * m}), got {g.shape}")
    return np.sqrt((g.reshape(m, d, m, d) ** 2).sum(axis=(1, 3)))


def amari_block_index(g, subspace_dim: int, num_sources: int) -> float:
    """Block-structure score of a square mixing-unmixing product.

    The (dm, dm) matrix is collapsed to an (m, m) grid of block Frobenius
    norms, then scored by how far each row and column is from having a
    single dominant entry. The result lies in [0, 1]: exactly 0 for scaled
    block permutations, 1 for a flat (all-equal-blocks) matrix.
    """
    m = check_integer(num_sources, "num_sources", 2)
    norms = block_norm_matrix(g, subspace_dim, m)
    row_max = norms.max(axis=1, keepdims=True)
    col_max = norms.max(axis=0, keepdims=True)
    if (row_max == 0).any() or (col_max == 0).any():
        raise ValueError("matrix has an all-zero block row or column")
    rows = (norms / row_max).sum(axis=1) - 1.0
    cols = (norms / col_max).sum(axis=0) - 1.0
    return float((rows.sum() + cols.sum()) / (2.0 * m * (m - 1)))


def run_isa(problem: IsaProblem, settings: EstimatorSettings, seed=0) -> IsaSolution:
    """Run the full separation pipeline on an ISA problem.

    Whitens the observations (projecting to ``subspace_dim * num_sources``
    leading directions when the observation space is larger), unmixes them
    with the fixed-point ICA, groups the components, and composes the full
    separation matrix. A known true mixing matrix yields a block-structure
    score; the ICA stage's iteration count and convergence flag are
    carried on the solution, and non-convergence also surfaces in
    ``warnings``.
    ``seed`` drives only the ICA initialization.
    """
    d, m = problem.subspace_dim, problem.num_sources
    dm = d * m
    white, w_white = whiten(problem.observations, n_components=dm)
    ica = fastica(white, seed=seed)
    components = PointSet(white.points @ ica.w.T)
    grouped = group_components(components, d, m, settings)
    separation = grouped.separation @ ica.w @ w_white
    score = None
    if problem.true_mixing is not None:
        score = amari_block_index(separation @ problem.true_mixing, d, m)
    return IsaSolution(
        separation=separation,
        blocks=grouped.blocks,
        objective=grouped.objective,
        score=score,
        warnings=ica.warnings,
        iterations=ica.iterations,
        converged=ica.converged,
    )
