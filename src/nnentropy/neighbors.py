"""Exact k-nearest-neighbor search with deterministic tie handling.

:func:`knn_all` is the package's one neighbor search and the only place
that selects a search method. Distance ties are broken by ascending point
index, and every code path computes squared lengths with the same
expression, ``(diff * diff).sum(axis=-1)``, so the kd-tree search and the
exhaustive reference scan return bitwise-identical indices and lengths.
The kd-tree serves every dimension, with leaves that grow with it (16
points per 4 dimensions). Its reported neighbor distances are trusted only
where they are separated by a clear relative gap; all other rows (ties,
near-ties at floating-point resolution and duplicate points) are resolved
exactly after the clear ones: each distinct point asks the tree for more
nearest neighbors, doubling their number until every point tied with its
k-th neighbor is among them, and sorts them by (length, index). Distances
that overflow or underflow float64 stop the search with
:class:`DegenerateSampleError`.

Duplicate points are screened for once, before any query, by sorting the
first coordinate: if no value of it repeats, no point does. Otherwise all
rows are grouped by point, and the rows of every point that occurs more
than once (a pile) go straight to the tie resolution, which first asks a
pile of ``s`` rows for more than ``s`` neighbors; below that all its
reported distances are 0 and cannot settle it.

The other rows are queried one block at a time, and the blocks follow the
tree's own leaf order (``cKDTree.indices``): consecutive queries start from
neighboring points, so the search walks the tree's memory in order, and each
row's result is written back at its input position. Tie rows are resolved
the same way, one slice of distinct points at a time, each slice's rows
written back before the next. Beyond the tree and the output arrays, the
search holds one block of rows or one slice of tie points with their
candidates, plus a few integers per tie row (per row where points
repeat): it does not grow with the number of clear rows. On a Gaussian
sample rounded to one decimal, where 98% of the rows are tie rows, a search
at k = 3 peaks at 18.2 MiB (traced) for 100,000 x 3 points, 4.6 MiB of it
output, and at 55 MiB for 400,000.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateSampleError, InsufficientPointsError
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

# Cap on the coordinate differences per block of the exhaustive scan.
_BLOCK_ELEMENTS = 2**24

# Rows per kd-tree query, and distinct points per slice of tie resolution.
# The blocks hold only rows alone at their point; the rows of duplicated
# points are never among them. The search holds the k + 2 reported
# neighbors, the gap test and the recomputed lengths of one block at a time.
# Measured on 2 cores at n = 200,000, d = 3, k = 3, blocks in leaf order:
# blocks of 16,384 rows hold 21 MiB in all where one query over every row
# held 75 MiB. Split into blocks of 16,384 rows, a threaded query costs 12%
# more CPU time than one call (65,536 rows: 7%, 4,096 rows: 23%); on the
# calling thread the block size makes no difference. In leaf order the
# query takes half the CPU time it takes in input order, at every block
# size. As slices of tie points, on a rounded 100,000 x 3 sample: 16,384
# points hold 18.2 MiB in all; slices of 4,096 points held about 3 MiB
# less, at a CPU cost (up to 12% more) that alternating runs on 2 cores did
# not separate from noise.
_QUERY_BLOCK_ROWS = 16_384

# Inputs with fewer coordinates than this (rows x d) are queried on the
# calling thread. Measured on 2 cores for d = 2 to 25, a second thread
# saves at most 0.5 ms of wall time per query up to 8192 coordinates and
# costs as much CPU time; from 10240 up it cuts wall time by 20-45%.
_THREADED_QUERY_ELEMENTS = 10_000

# Points per kd-tree leaf for every 4 dimensions: a tree over d coordinates
# has leaves of 16 * max(1, d // 4) points, scipy's default of 16 up to
# d = 7. Measured on one core (knn_all at k = 3 on Gaussian samples, median
# of 9 alternating runs), leaves of 16 -> this rule took at 3,000 points
# d = 8: 69 -> 59 ms, d = 12: 173 -> 116 ms, d = 16: 228 -> 149 ms,
# d = 20: 246 -> 161 ms, d = 25: 304 -> 173 ms, and at 600 x 25 12.4 ->
# 8.5 ms. Larger leaves helped less as n grew (20,000 x 12, median of 7:
# 5.7 s at 16, 4.3 s at 32, 4.0 s at 64, 4.2 s at 128); at d = 5 to 7
# leaves of 32 saved under 7% and at d <= 4 nothing.
_LEAF_POINTS = 16


def knn_all(points, k: int, method: str = "kdtree", workers: int = -1):
    """Indices and lengths of each point's ``k`` nearest other points.

    The kd-tree search sends the rows of duplicated points straight to the
    tie resolution and queries the other rows in blocks taken in the tree's
    leaf order. Besides the tree and the output arrays it holds the scratch
    of one block of rows (their ``k + 2`` reported neighbors, the gap test
    and the recomputed lengths), the indices of the tie rows grouped by
    point (of every row, where points repeat), and one slice of tie points
    with their candidates at a time.

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

    Raises
    ------
    DegenerateSampleError
        If a neighbor distance overflows float64, or underflows to zero
        between points whose coordinates differ.
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

    :func:`_point_groups` screens the sample for duplicate points. The rows
    of points that occur more than once (piles) never reach the block
    queries of :func:`_query_blocks`: their first two reported distances
    are both 0, so no query can settle them. They and the rows the blocks
    leave unsettled go to :func:`_resolve_ties` together, in the screen's
    grouping by point where it grouped the rows, otherwise each row a point
    of its own.
    """
    n, d = X.shape
    if X.size < _THREADED_QUERY_ELEMENTS:
        workers = 1
    groups = _point_groups(X)
    tree = cKDTree(X, leafsize=_LEAF_POINTS * max(1, d // 4))
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    order = tree.indices
    if groups is None:
        rows = _query_blocks(tree, X, order, k, workers, indices, lengths)
        starts = np.arange(rows.size + 1)
    else:
        rows, starts = groups
        sizes = np.diff(starts)
        tied = np.ones(n, dtype=bool)
        tied[rows[starts[:-1][sizes == 1]]] = False
        tied[_query_blocks(tree, X, order[~tied[order]], k, workers, indices, lengths)] = True
        keep = tied[rows[starts[:-1]]]
        rows = rows[np.repeat(keep, sizes)]
        starts = np.concatenate([[0], np.cumsum(sizes[keep])])
    if rows.size:
        _resolve_ties(tree, X, rows, starts, k, indices, lengths)
    return indices, lengths


def _query_blocks(tree: cKDTree, X: np.ndarray, order, k: int, workers: int, indices, lengths):
    """Write the neighbors of the rows in ``order`` that the tree settles; return the rest.

    The rows are asked for ``k + 2`` neighbors, one block of
    ``_QUERY_BLOCK_ROWS`` rows at a time, the blocks being consecutive
    slices of ``order``, the tree's leaf order. A row is settled when the
    point itself comes first and consecutive reported distances have a
    clear relative gap; only then can the tree's ordering be trusted to
    match the tie-broken reference. The unsettled rows are returned in
    leaf order. A function of its own so that the last block's arrays are
    freed before the ties are resolved.
    """
    n = X.shape[0]
    tie_rows = [order[:0]]  # an empty result where every row is piled
    for start in range(0, order.size, _QUERY_BLOCK_ROWS):
        block = order[start : start + _QUERY_BLOCK_ROWS]
        dist_s, idx_s = _query(tree, X, X[block], min(k + 2, n), workers)
        gaps = np.diff(dist_s, axis=1)
        clear = (idx_s[:, 0] == block) & (gaps > _TIE_RTOL * dist_s[:, 1:]).all(axis=1)

        rows, sel = block[clear], idx_s[clear, 1 : k + 1]
        diff = X[sel] - X[rows][:, None, :]
        indices[rows] = sel
        lengths[rows] = np.sqrt((diff * diff).sum(axis=-1))
        tie_rows.append(block[~clear])
    return np.concatenate(tie_rows)


def _point_groups(X: np.ndarray):
    """Every row grouped by the point it holds, and each group's start; or None.

    Sorting column 0 screens for duplicate points: if none of its values
    repeats, no point does, and the rows are not grouped (None). Otherwise
    the points come in lexicographic order and each group's rows in
    ascending order; the last start is ``len(X)``. This is the grouping of
    ``np.unique(X, axis=0)``; a lexsort over the columns is several times
    faster than its structured sort.
    """
    column = np.sort(X[:, 0])
    if not (column[1:] == column[:-1]).any():
        return None
    rows = np.lexsort(X.T[::-1])
    P = X[rows]
    first = np.ones(len(P) + 1, dtype=bool)
    first[1:-1] = (P[1:] != P[:-1]).any(axis=1)
    return rows, np.flatnonzero(first)


def _query(tree: cKDTree, X: np.ndarray, x: np.ndarray, m: int, workers: int):
    """The tree's ``m`` nearest neighbors in ``X`` of each row of ``x``, by distance.

    A distance the tree reports as infinite has overflowed float64, and a
    zero distance between points whose coordinates differ has underflowed:
    no tie test or length can recover either, so the search stops there,
    before any tie query grows.
    """
    dist, idx = tree.query(x, k=m, workers=workers)
    if not np.isfinite(dist[:, -1]).all():
        raise DegenerateSampleError(
            "the sample's neighbor distances overflow float64; rescale the data"
        )
    # Each row of x is a point of X and finds a copy of itself at distance 0;
    # only rows with a second zero can hold a zero between differing points.
    piled = dist[:, 1] == 0
    at, col = np.nonzero(dist[piled] == 0)
    if (X[idx[piled][at, col]] != x[piled][at]).any():
        raise DegenerateSampleError(
            "the sample's neighbor distances underflow float64; rescale the data"
        )
    return dist, idx


def _resolve_ties(tree: cKDTree, X: np.ndarray, rows, starts, k: int, indices, lengths):
    """Write the exact neighbors of ``X[rows]`` into ``indices`` and ``lengths``.

    ``rows`` come grouped by point, each group's start in ``starts``, whose
    last entry is ``len(rows)``. Rows at identical coordinates have
    bitwise-identical distances to every point, so they share one query and
    one sorted order: a pile of duplicates costs one query instead of one
    per row. The distinct points are resolved in slices of
    ``_QUERY_BLOCK_ROWS`` points by :func:`_resolve_slice`, a function of
    its own so that each slice's arrays are freed before the next slice
    starts. Only the grouped row indices and the groups' starts outlive a
    slice. On a Gaussian
    100,000 x 3 sample rounded to one decimal (98,316 tie rows at 47,672
    distinct points), ``knn_all`` at k = 3 peaks at 18.2 MiB traced,
    4.6 MiB of it output; one batch of all tie rows held 38 MiB.
    """
    for s in range(0, len(starts) - 1, _QUERY_BLOCK_ROWS):
        bounds = starts[s : s + _QUERY_BLOCK_ROWS + 1]
        part = rows[bounds[0] : bounds[-1]]
        _resolve_slice(tree, X, part, bounds - bounds[0], k, indices, lengths)


def _resolve_slice(tree: cKDTree, X: np.ndarray, rows, starts, k: int, indices, lengths):
    """Resolve one slice of tie rows, grouped by point between ``starts``.

    Each distinct point is asked for ``m = k + 2`` neighbors. Where the
    farthest reported distance is not clearly beyond the (k+1)-th, a point
    tied with the (k+1)-th may be missing, so ``m`` doubles for those points,
    up to every point. A point of ``s`` rows waits until ``m > s`` (or
    ``m = n``) before it is first asked: below that all ``m`` reported
    distances are 0 and the round cannot end for it. A round queries
    ``_QUERY_BLOCK_ROWS * (k + 2) // m`` points at a time, so its candidates
    stay about one query block, on the calling thread: starting worker
    threads costs more than a typical batch of tie rows. The candidates are
    sorted by (length, index) and each row takes the first ``k`` entries
    other than itself.
    """
    n = X.shape[0]
    points, sizes = X[rows[starts[:-1]]], np.diff(starts)
    # The first k + 1 candidates of each distinct point, by (length, index).
    head_idx = np.empty((len(points), k + 1), dtype=np.intp)
    head_sq = np.empty((len(points), k + 1), dtype=np.float64)
    todo, m = np.arange(len(points)), min(k + 2, n)
    while todo.size:
        step = max(1, _QUERY_BLOCK_ROWS * (k + 2) // m)
        wait = (sizes[todo] >= m) & (m < n)
        wider, ready = [todo[wait]], todo[~wait]
        for start in range(0, ready.size, step):
            part = ready[start : start + step]
            dist, cand = _query(tree, X, points[part], m, 1)
            done = (m == n) | (dist[:, -1] - dist[:, k] > _TIE_RTOL * dist[:, -1])
            wider.append(part[~done])
            part, cand = part[done], cand[done]
            diff = X[cand] - points[part][:, None, :]
            sq = (diff * diff).sum(axis=-1)
            head = np.lexsort((cand, sq), axis=-1)[:, : k + 1]
            head_idx[part] = np.take_along_axis(cand, head, axis=1)
            head_sq[part] = np.take_along_axis(sq, head, axis=1)
        todo, m = np.concatenate(wider), min(2 * m, n)

    # Skip each row's own index if it sits among its point's first k + 1.
    head_idx, head_sq = head_idx.repeat(sizes, axis=0), head_sq.repeat(sizes, axis=0)
    slot = np.arange(k + 1)
    own = np.where(head_idx == rows[:, None], slot, k).min(axis=1)
    cols = slot[:k] + (slot[:k] >= own[:, None])
    indices[rows] = np.take_along_axis(head_idx, cols, axis=1)
    lengths[rows] = np.sqrt(np.take_along_axis(head_sq, cols, axis=1))

