"""Exact k-nearest-neighbor search with deterministic tie handling.

:func:`knn_all` is the package's one neighbor search and the only place
that selects a search method. Distance ties are broken by ascending point
index, and every code path computes squared lengths with the same
expression, ``(diff * diff).sum(axis=-1)``, so the kd-tree search and the
exhaustive reference scan return bitwise-identical indices and lengths.
Distances that overflow or underflow float64 stop the search with
:class:`DegenerateSampleError`.

The kd-tree serves every dimension, with leaves that grow with it (16
points per 4 dimensions), and the search asks it about each distinct point
in one pass. The rows are first grouped by the point they hold. Sorting the
first coordinate screens for duplicate points: if no value of it repeats,
no point does, and each row is a point of its own, taken in the tree's own
leaf order (``cKDTree.indices``), so that consecutive queries start from
neighboring points and walk the tree's memory in order. Otherwise the rows
are grouped by point in lexicographic order.

The distinct points are searched one slice at a time, and each is first
asked for its ``k + 2`` nearest neighbors. The tree's reported distances
are trusted only where they are separated by a clear relative gap: a point
whose gaps are all clear is alone at its coordinates, and its row takes the
tree's order as it is. Any other point (ties, near-ties at floating-point
resolution and duplicate points) sorts its candidates by (length, index)
once the farthest is clearly beyond the (k+1)-th, and until then asks for
twice as many, so that every point tied with its k-th neighbor is among
them. A point of ``s`` rows (a pile) is first asked for more than ``s``
neighbors; below that all its reported distances are 0 and cannot settle
it. Every row takes its point's result, written back at its input position.

Beyond the tree and the output arrays, the search holds one slice of
points with their candidates, and where points repeat the grouped row
indices and each point's number of rows. At k = 3 it peaks (traced) at
12.6 MiB for 100,000 x 3 uniform points and at 20.2 MiB for 200,000,
4.6 and 9.2 MiB of it output. On a Gaussian sample rounded to one decimal,
where 98% of the rows are tied or piled, it peaks at 15.1 MiB for
100,000 x 3 points and at 45 MiB for 400,000.
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
# potential tie and the point's candidates are sorted with the reference
# arithmetic. Cross-library float discrepancies are a few ulp (~1e-16
# relative), so 1e-9 is a wide safety margin while being hit essentially
# never for continuous data.
_TIE_RTOL = 1e-9

# Cap on the coordinate differences per block of the exhaustive scan.
_BLOCK_ELEMENTS = 2**24

# Distinct points per slice of the search; a slice's first round asks all its
# points in one kd-tree query. The search holds the reported neighbors, the
# gap test and the recomputed lengths of one slice at a time. Measured on 2
# cores at n = 200,000, d = 3, k = 3, in leaf order: slices of 16,384 points
# hold 20.2 MiB in all where one query over every row held 75 MiB. Split into
# blocks of 16,384 rows, a threaded query costs 12% more CPU time than one
# call (65,536 rows: 7%, 4,096 rows: 23%); on the calling thread the block
# size makes no difference. In leaf order the query takes half the CPU time
# it takes in input order, at every block size. On a rounded 100,000 x 3
# sample, slices of 16,384 points hold 15.1 MiB in all and slices of 4,096
# points 10.4 MiB, at a CPU cost (up to 12% more) that alternating runs on 2
# cores did not separate from noise.
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

    The kd-tree search groups the rows by the point they hold and asks the
    tree about each distinct point once for ``k + 2`` neighbors, and again,
    for twice as many, only while a tie leaves it unsettled. Besides the
    tree and the output arrays it holds one slice of points with their
    candidates at a time, and where points repeat the grouped row indices
    and each point's number of rows.

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

    :func:`_point_groups` groups the rows by the point they hold, and
    :func:`_search_slice` searches the distinct points in slices of
    ``_QUERY_BLOCK_ROWS``, consecutive in the grouping's order.
    """
    n, d = X.shape
    if X.size < _THREADED_QUERY_ELEMENTS:
        workers = 1
    tree = cKDTree(X, leafsize=_LEAF_POINTS * max(1, d // 4))
    rows, sizes = _point_groups(X, tree.indices)
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    stop = 0
    for s in range(0, sizes.size, _QUERY_BLOCK_ROWS):
        part = sizes[s : s + _QUERY_BLOCK_ROWS]
        start, stop = stop, stop + part.sum()
        _search_slice(tree, X, rows[start:stop], part, k, workers, indices, lengths)
    return indices, lengths


def _point_groups(X: np.ndarray, order):
    """Every row grouped by the point it holds, and each point's number of rows.

    Sorting column 0 screens for duplicate points: if none of its values
    repeats, no point does, and each row is a point of its own, in
    ``order`` (the tree's leaf order); the sizes are then a read-only view
    of a single 1, which takes no memory per row. Otherwise the points come
    in lexicographic order and each point's rows in ascending order. This is
    the grouping of ``np.unique(X, axis=0)``; a lexsort over the columns is
    several times faster than its structured sort.
    """
    column = np.sort(X[:, 0])
    if not (column[1:] == column[:-1]).any():
        return order, np.broadcast_to(np.intp(1), order.shape)
    rows = np.lexsort(X.T[::-1])
    P = X[rows]
    first = np.ones(len(P) + 1, dtype=bool)
    first[1:-1] = (P[1:] != P[:-1]).any(axis=1)
    return rows, np.diff(np.flatnonzero(first))


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


def _search_slice(tree: cKDTree, X: np.ndarray, rows, sizes, k: int, workers: int, indices, lengths):
    """Write the exact neighbors of one slice of distinct points to their rows.

    ``rows`` come grouped by point, each point's number of rows in
    ``sizes``. Rows at identical coordinates have bitwise-identical
    distances to every point, so a point is asked once for all its rows.
    The first round asks every point for ``m = k + 2`` neighbors, in one
    query with ``workers`` threads. Where all reported gaps are clear, the
    point is alone at its coordinates and comes first in its own result,
    and its row takes the next ``k`` in the tree's order. Any other point
    sorts its candidates by (length, index) if the farthest is clearly
    beyond the (k+1)-th; otherwise a point tied with the (k+1)-th may be
    missing, so ``m`` doubles for it, up to every point, on the calling
    thread. A point of ``s`` rows waits until ``m > s`` (or ``m = n``)
    before it is first asked: below that all ``m`` reported distances are 0
    and cannot settle it. A round queries ``_QUERY_BLOCK_ROWS * (k + 2) //
    m`` points at a time, so its candidates stay about one first-round
    query. A function of its own so that each slice's arrays are freed
    before the next slice starts.
    """
    n = X.shape[0]
    starts = np.cumsum(sizes) - sizes
    todo, m = np.arange(len(sizes)), min(k + 2, n)
    while todo.size:
        step = max(1, _QUERY_BLOCK_ROWS * (k + 2) // m)
        wait = (sizes[todo] >= m) & (m < n)
        wider, ready = [todo[wait]], todo[~wait]
        for start in range(0, ready.size, step):
            part = ready[start : start + step]
            first = rows[starts[part]]
            dist, cand = _query(tree, X, X[first], m, workers)
            clear = (np.diff(dist, axis=1) > _TIE_RTOL * dist[:, 1:]).all(axis=1)
            lone, sel = first[clear], cand[clear, 1 : k + 1]
            diff = X[sel] - X[lone][:, None, :]
            indices[lone] = sel
            lengths[lone] = np.sqrt((diff * diff).sum(axis=-1))

            done = (m == n) | (dist[:, -1] - dist[:, k] > _TIE_RTOL * dist[:, -1])
            wider.append(part[~done])
            tied = done & ~clear
            if not tied.any():
                continue
            part, cand = part[tied], cand[tied]
            diff = X[cand] - X[first[tied]][:, None, :]
            sq = (diff * diff).sum(axis=-1)
            head = np.lexsort((cand, sq), axis=-1)[:, : k + 1]
            # Each row of these points takes the first k of its point's first
            # k + 1 other than itself.
            size = sizes[part]
            own = rows[np.repeat(starts[part] - np.cumsum(size) + size, size) + np.arange(size.sum())]
            head_idx = np.take_along_axis(cand, head, axis=1).repeat(size, axis=0)
            head_sq = np.take_along_axis(sq, head, axis=1).repeat(size, axis=0)
            slot = np.arange(k + 1)
            skip = np.where(head_idx == own[:, None], slot, k).min(axis=1)
            cols = slot[:k] + (slot[:k] >= skip[:, None])
            indices[own] = np.take_along_axis(head_idx, cols, axis=1)
            lengths[own] = np.sqrt(np.take_along_axis(head_sq, cols, axis=1))
        todo, m, workers = np.concatenate(wider), min(2 * m, n), 1
