"""Exact k-nearest-neighbor search with deterministic tie handling.

:func:`knn_all` is the package's one neighbor search and the only place
that selects a search method. Distance ties are broken by ascending point
index, and every code path computes squared lengths with the same
expression, ``(diff * diff).sum(axis=-1)``, so the kd-tree search and the
exhaustive reference scan return bitwise-identical indices and lengths.
The kd-tree serves every dimension. Its reported neighbor distances are
trusted only where they are separated by a clear relative gap; all other
rows (ties, near-ties at floating-point resolution and duplicate points)
are resolved exactly in one batched pass that queries one distance ball
per distinct point and sorts every ball by (length, index).

The tree is queried one block of rows at a time, so the search's scratch
memory beyond the tree and the output arrays is one block of rows plus the
tie batch: it does not grow with the number of clear rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientPointsError
from .points import as_point_set, check_integer, check_workers

__all__ = ["knn_all"]

# The default search uses the kd-tree at every dimension and never switches to
# the exhaustive scan; the attribute reads as infinity for code that derives
# the default's path from it (``perfbench/spans.py``).
BRUTE_FORCE_DIMENSION = math.inf

# Relative gap below which two reported kd-tree distances are treated as a
# potential tie and the row is re-resolved with the reference arithmetic.
# Cross-library float discrepancies are a few ulp (~1e-16 relative), so
# 1e-9 is a wide safety margin while being hit essentially never for
# continuous data.
_TIE_RTOL = 1e-9

# Cap on scratch elements per block: coordinate differences in the
# exhaustive scan and in the batched tie resolution.
_BLOCK_ELEMENTS = 2**24

# Rows per kd-tree query. The search holds the k + 2 reported neighbors, the
# gap test and the recomputed lengths of one block at a time. Measured on 2
# cores at n = 200,000, d = 3, k = 3: blocks of 16,384 rows hold 21 MiB in
# all where one query over every row held 75 MiB. Split into blocks of 16,384
# to 65,536 rows, a threaded query costs 3-5% more CPU time than in one call;
# blocks of 4,096 rows cost up to 15% more.
_QUERY_BLOCK_ROWS = 16_384

# Inputs with fewer coordinates than this (rows x d) are queried on the
# calling thread. Measured on 2 cores for d = 2 to 25, a second thread
# saves at most 0.5 ms of wall time per query up to 8192 coordinates and
# costs as much CPU time; from 10240 up it cuts wall time by 20-45%.
_THREADED_QUERY_ELEMENTS = 10_000


def knn_all(points, k: int, method: str = "kdtree", workers: int = -1):
    """Indices and lengths of each point's ``k`` nearest other points.

    The kd-tree search holds, besides the tree and the output arrays, the
    scratch of one block of rows (their ``k + 2`` reported neighbors, the
    gap test and the recomputed lengths) plus the batch of tie rows.

    Parameters
    ----------
    points : PointSet or array_like, shape (n, d)
        The sample.
    k : int
        Number of neighbor ranks, ``1 <= k <= n - 1``.
    method : {"kdtree", "brute"}
        "kdtree" searches a kd-tree at every dimension; "brute" is the
        exhaustive reference scan the kd-tree is tested against. Both
        return identical output.
    workers : int
        Cap on the worker threads of the kd-tree query; -1 uses all cores.
        Inputs of fewer than 10,000 coordinates (rows x d) are queried on
        the calling thread whatever the cap, because starting threads
        costs more than they save there. The output does not depend on it.

    Returns
    -------
    indices : ndarray, shape (n, k), intp
        ``indices[i, j]`` is the (j+1)-th nearest other point of point
        ``i``, ordered by distance with ties broken by ascending index.
    lengths : ndarray, shape (n, k), float64
        The corresponding Euclidean distances (zero for duplicates).
    """
    ps = as_point_set(points)
    X = ps.points
    n = X.shape[0]
    k = check_integer(k, "k")
    workers = check_workers(workers)
    if k >= n:
        raise InsufficientPointsError(
            f"k={k} neighbor ranks requested but the sample has only {n} points "
            f"(need at least k + 1)"
        )
    if method == "kdtree":
        return _knn_kdtree(X, k, workers)
    if method == "brute":
        return _knn_brute(X, k)
    raise ValueError(f"unknown method {method!r}")


def _knn_brute(X: np.ndarray, k: int):
    """Exhaustive reference scan: O(n^2 d) time, memory-blocked.

    Used only for ``method="brute"``, the reference the kd-tree search is
    tested against.
    """
    n, d = X.shape
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    ar = np.arange(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = X[start:stop, None, :] - X[None, :, :]
        sq = (diff * diff).sum(axis=-1)
        for row, i in enumerate(range(start, stop)):
            order = np.lexsort((ar, sq[row]))
            order = order[order != i][:k]
            indices[i] = order
            lengths[i] = np.sqrt(sq[row, order])
    return indices, lengths


def _knn_kdtree(X: np.ndarray, k: int, workers: int):
    """kd-tree search, exact at every dimension.

    The tree is asked for ``k + 2`` neighbors of every point, one block of
    ``_QUERY_BLOCK_ROWS`` rows at a time. A row is taken as reported when
    the point itself comes first and consecutive reported distances have a
    clear relative gap; only then can the tree's ordering be trusted to
    match the tie-broken reference. All other rows, from every block, go to
    :func:`_resolve_ties` together after the last block.
    """
    n = X.shape[0]
    m = min(k + 2, n)
    if X.size < _THREADED_QUERY_ELEMENTS:
        workers = 1
    tree = cKDTree(X)
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    tie_rows, tie_radii = [], []
    for start in range(0, n, _QUERY_BLOCK_ROWS):
        stop = min(start + _QUERY_BLOCK_ROWS, n)
        dist_s, idx_s = tree.query(X[start:stop], k=m, workers=workers)
        block = np.arange(start, stop)
        gaps = np.diff(dist_s, axis=1)
        clear = (idx_s[:, 0] == block) & (gaps > _TIE_RTOL * dist_s[:, 1:]).all(axis=1)

        rows, sel = block[clear], idx_s[clear, 1 : k + 1]
        diff = X[sel] - X[rows][:, None, :]
        indices[rows] = sel
        lengths[rows] = np.sqrt((diff * diff).sum(axis=-1))

        if not clear.all():
            # The farthest reported distance, widened by the tie tolerance, is
            # a ball radius that holds every point tied with the k-th neighbor.
            tie_rows.append(block[~clear])
            tie_radii.append(dist_s[~clear, -1] * (1.0 + _TIE_RTOL))

    if tie_rows:
        rows = np.concatenate(tie_rows)
        indices[rows], lengths[rows] = _resolve_ties(
            tree, X, rows, np.concatenate(tie_radii), k
        )
    return indices, lengths


def _resolve_ties(tree: cKDTree, X: np.ndarray, rows, radii, k: int):
    """Exact neighbors of ``X[rows]`` from distance balls of the given radii.

    Rows at identical coordinates have bitwise-identical distances to every
    point, so they share one ball and one sorted order: one ball is queried
    per distinct point, its candidates are sorted once by (length, index),
    and each row takes the first ``k`` entries other than itself. A pile of
    ``m`` duplicates thus costs one ball instead of ``m``. Candidates are
    processed in chunks of at most ``_BLOCK_ELEMENTS`` coordinates.

    The ball queries run on the calling thread: starting worker threads
    costs more than a typical batch of tie rows, and threads would save
    wall time, not CPU time, only on the largest batches.
    """
    d = X.shape[1]
    points, group = _distinct_rows(X[rows])
    radius = np.zeros(len(points))
    np.maximum.at(radius, group, radii)

    # A ball holds its own point, so k + 1 entries leave k others. The radii
    # cover the k + 2 points the tree reported, so a smaller ball means the
    # tree's two queries disagreed; it is retried with a wider radius.
    sizes = tree.query_ball_point(points, radius, return_length=True)
    while (short := np.nonzero(sizes < k + 1)[0]).size:
        radius[short] = np.maximum(radius[short] * 2.0, 1e-300)
        sizes[short] = tree.query_ball_point(points[short], radius[short], return_length=True)

    # The first k + 1 entries of each sorted ball.
    head_idx = np.empty((len(points), k + 1), dtype=np.intp)
    head_sq = np.empty((len(points), k + 1), dtype=np.float64)
    for chunk in _chunks(sizes * d, _BLOCK_ELEMENTS):
        balls = tree.query_ball_point(points[chunk], radius[chunk])
        counts = sizes[chunk]
        cand = np.fromiter(itertools.chain.from_iterable(balls), np.intp, counts.sum())
        owner = np.repeat(np.arange(counts.size), counts)
        diff = X[cand] - points[chunk][owner]
        sq = (diff * diff).sum(axis=-1)
        order = np.lexsort((cand, sq, owner))
        head = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k + 1)]
        head_idx[chunk] = cand[head]
        head_sq[chunk] = sq[head]

    # Skip each row's own index if it sits among its ball's first k + 1.
    head_idx, head_sq = head_idx[group], head_sq[group]
    slot = np.arange(k + 1)
    own = np.where(head_idx == rows[:, None], slot, k).min(axis=1)
    cols = slot[:k] + (slot[:k] >= own[:, None])
    return (
        np.take_along_axis(head_idx, cols, axis=1),
        np.sqrt(np.take_along_axis(head_sq, cols, axis=1)),
    )


def _distinct_rows(P: np.ndarray):
    """Distinct rows of ``P`` in lexicographic order, and each row's group.

    The grouping of ``np.unique(P, axis=0, return_inverse=True)``; a lexsort
    over the columns is several times faster than its structured sort.
    """
    order = np.lexsort(P.T[::-1])
    ordered = P[order]
    first = np.ones(len(P), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(P), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return ordered[first], group


def _chunks(weights: np.ndarray, budget: int):
    """Consecutive slices of ``weights`` whose sums stay within ``budget``.

    An item heavier than the budget gets a slice of its own.
    """
    ends = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(start, stop)
        start = stop
