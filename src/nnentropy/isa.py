"""Independent subspace analysis driven by the mutual-information estimator.

The pipeline is the classical two-stage reduction: whiten the observations,
run a symmetric fixed-point ICA to get one-dimensional components, then
group the components into blocks of the known subspace dimension by
maximizing the sum of within-block mutual information (greedy agglomeration
plus pairwise-swap refinement; a pair is scored once, by the pairwise-MI
matrix). A swap whose change to the sum of within-block pairwise-MI entries
is at most ``-_SWAP_SCREEN`` nats is skipped without scoring its new blocks,
so the final partition is a local optimum under screened swaps. Separation
quality against a known mixing matrix is scored with a block-structure index
in [0, 1] (0 means perfect block-permutation recovery).

The ICA stops on its contrast, not on its rows: inside a block of dependent
sources a rotation of the components cannot be identified, so the rows may
keep turning after the contrast has settled. The dense n x q products of the
pipeline run on the calling thread (``points._times_transpose``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .errors import DegenerateSampleError
from .estimators import EstimatorSettings, empirical_copula

# Unused here: the benchmark's tracer (perfbench/spans.py) wraps this
# attribute of the module, so it stays until the tracer goes (ROADMAP item 6).
from .estimators import renyi_mi  # noqa: F401
from .points import PointSet, _times_transpose, as_point_set, check_integer

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
# A swap whose pairwise-sum change (see _swap_refine) is at most -_SWAP_SCREEN
# nats is not scored. Every improving swap seen on wireframe and planted
# panels changes that sum by more than -0.5; every swap at paper scale, where
# none improves, by less than -1.2. At subspace_dim 2 the sum is the swap's
# true change, so there the screen skips no improving swap.
_SWAP_SCREEN = 1.0
_MAX_ITER = 500  # cap on fixed-point ICA iterations (see fastica)
# fastica has converged once its contrast changes by at most
# _CONTRAST_RTOL times its size on _CONTRAST_STEPS consecutive iterations.
_CONTRAST_RTOL = 1e-5
_CONTRAST_STEPS = 3


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
    cov = _times_transpose(centered.T, centered.T) / (ps.n - 1)
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
    return PointSet(_times_transpose(centered, matrix)), matrix


def _orthonormal_rows(m: np.ndarray) -> np.ndarray:
    """Symmetric decorrelation: the closest matrix with orthonormal rows."""
    w, v = np.linalg.eigh(m @ m.T)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise DegenerateSampleError("unmixing matrix became singular during iteration")
    return (v / np.sqrt(w)) @ v.T @ m


def fastica(points, seed=0) -> FastICAResult:
    """Symmetric fixed-point ICA with the tanh nonlinearity.

    Expects whitened input. All rows are updated in parallel and
    re-orthonormalized each step. The iteration stops once the contrast
    ``J = sum_i mean log(2 cosh y_i)`` of the components ``y = X w.T`` has
    changed by at most ``_CONTRAST_RTOL * |J|`` (1e-5) on ``_CONTRAST_STEPS``
    (3) consecutive iterations (``converged``), or after ``_MAX_ITER``
    (500) iterations while it still moves (recorded as a warning in the
    result, not an error). ``J`` is the log cosh contrast plus ``log 2``
    per component; the constant changes no step, only the scale the
    tolerance is relative to. The rows themselves need not settle: within a
    block of dependent sources they can rotate without changing ``J``.
    The products run on the calling thread, so the result does not depend
    on the BLAS thread count.
    """
    # Column-major, so the products below run along contiguous memory.
    X = np.asfortranarray(as_point_set(points).points)
    n, q = X.shape
    rng = np.random.default_rng(seed)
    w0, r0 = np.linalg.qr(rng.standard_normal((q, q)))
    w = (w0 * np.sign(np.diag(r0))).T

    converged = False
    iterations = 0
    contrast = math.nan
    steady = 0
    for iterations in range(1, _MAX_ITER + 1):
        y = _times_transpose(X, w)
        g = np.tanh(y)
        previous, contrast = contrast, _contrast(y)
        g_prime_mean = 1.0 - np.einsum("ij,ij->j", g, g) / n
        w = _orthonormal_rows(_times_transpose(g.T, X.T) / n - g_prime_mean[:, None] * w)
        steady = steady + 1 if abs(contrast - previous) <= _CONTRAST_RTOL * abs(contrast) else 0
        if steady == _CONTRAST_STEPS:
            converged = True
            break
    warnings = ()
    if not converged:
        warnings = (f"fixed-point iteration did not converge within {_MAX_ITER} iterations",)
    return FastICAResult(w=w, iterations=iterations, converged=converged, warnings=warnings)


def _contrast(y: np.ndarray) -> float:
    """``sum_i mean log(2 cosh y_i)`` over the columns of ``y``; overwrites ``y``.

    ``log(2 cosh t) = |t| + log1p(exp(-2|t|))``, which does not overflow.
    """
    np.abs(y, out=y)
    total = y.sum()
    y *= -2.0
    np.exp(y, out=y)
    np.log1p(y, out=y)
    return (total + y.sum()) / len(y)


def pairwise_mi_matrix(ics, settings: EstimatorSettings) -> np.ndarray:
    """Symmetric matrix of pairwise mutual information between components.

    The components are ranked once and each pair is scored on its two
    columns of that copula. Ranks are taken per column, so a column slice of
    the copula is the copula of that column slice, and each entry equals
    :func:`renyi_mi` on the raw columns, bitwise.
    """
    return _pairwise_copula_mi(empirical_copula(ics).points, settings)


def _pairwise_copula_mi(copula: np.ndarray, settings: EstimatorSettings) -> np.ndarray:
    """:func:`pairwise_mi_matrix` of the sample whose copula is given."""
    q = copula.shape[1]
    matrix = np.zeros((q, q))
    for i in range(q):
        for j in range(i + 1, q):
            matrix[i, j] = matrix[j, i] = estimators._copula_mi(copula[:, [i, j]], settings).value
    return matrix


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
    decreases, and termination is guaranteed. A swap is scored only when it
    changes the sum of within-block pairwise-MI entries by more than
    ``-_SWAP_SCREEN`` (1 nat); the others are skipped unscored. The result
    is therefore a local optimum under screened swaps: no swap that passes
    the screen raises the objective.

    The search is deterministic. The components are ranked once, for the
    pairs and the blocks alike. Each pair is searched once, for the
    pairwise-MI matrix, and read from it as a 2-block; each larger block is
    searched once, on first use. Every search is on the block's columns of
    a copula, so the values equal :func:`renyi_mi` on the raw columns,
    bitwise, and the normalizing constant is the same for every block.
    """
    ps = as_point_set(ics)
    d, m = check_integer(subspace_dim, "subspace_dim"), check_integer(num_sources, "num_sources")
    if ps.d != d * m:
        raise ValueError(
            f"{ps.d} components cannot be grouped into {m} blocks of {d}"
        )
    copula = empirical_copula(ps).points
    scores: dict[frozenset, float] = {frozenset([c]): 0.0 for c in range(ps.d)}

    def block_mi(block) -> float:
        key = frozenset(block)
        if key not in scores:
            scores[key] = estimators._copula_mi(copula[:, sorted(block)], settings).value
        return scores[key]

    if d == 1:
        blocks = [[c] for c in range(m)]
    else:
        matrix = _pairwise_copula_mi(copula, settings)
        scores.update({frozenset((i, j)): matrix[i, j] for i in range(ps.d) for j in range(i)})
        blocks = _swap_refine(_greedy_blocks(matrix, d, m), matrix, block_mi)

    blocks_sorted = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
    objective = math.fsum(block_mi(b) for b in blocks_sorted)
    order = [c for b in blocks_sorted for c in b]
    permutation = np.eye(d * m)[order]
    return IsaSolution(separation=permutation, blocks=blocks_sorted, objective=objective)


def _swap_refine(blocks: list[list[int]], matrix: np.ndarray, block_mi) -> list[list[int]]:
    """Pairwise-swap local search; accepts strictly improving swaps only.

    ``matrix`` is the pairwise-MI matrix M. Swapping ``x`` of block ``a`` with
    ``y`` of block ``b`` changes the sum of within-block pairwise entries by
    ``pw = sum(M[c, y] - M[c, x] for c in a - x) + sum(M[c, x] - M[c, y] for
    c in b - y)``; a swap with ``pw <= -_SWAP_SCREEN`` is skipped without
    calling ``block_mi``.
    """
    for _ in range(_MAX_SWEEPS):
        improved = False
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for xi in range(len(blocks[bi])):
                    for yj in range(len(blocks[bj])):
                        a, b = blocks[bi], blocks[bj]
                        x, y = a[xi], b[yj]
                        rest_a = [c for c in a if c != x]
                        rest_b = [c for c in b if c != y]
                        pw = (matrix[rest_a, y] - matrix[rest_a, x]).sum() + (
                            matrix[rest_b, x] - matrix[rest_b, y]
                        ).sum()
                        if pw <= -_SWAP_SCREEN:
                            continue
                        new_a, new_b = rest_a + [y], rest_b + [x]
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
    components = PointSet(_times_transpose(white.points, ica.w))
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
