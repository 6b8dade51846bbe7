"""Exact k-nearest-neighbor search with deterministic tie handling.

:func:`knn_all` is the package's one neighbor search and the only place
that selects a search method. Distance ties are broken by ascending point
index, and every code path computes squared lengths with one function,
:func:`_squared_lengths`, so the kd-tree search and the exhaustive
reference scan return bitwise-identical indices and lengths.
Distances that overflow or underflow float64 stop the search with
:class:`DegenerateSampleError`; where every distance underflows, before
the tree is queried.

The kd-tree serves every dimension, with leaves that grow with it (16
points per 4 dimensions), and holds each distinct point once. Sorting the
first coordinate screens for duplicate points: if no value of it repeats,
no point does, and the tree is built over the rows themselves. Otherwise
the rows are grouped by the point they hold, in lexicographic order, and
the tree is built over one copy of each point; a point's rows are its
multiplicity. The search asks about the tree's points in its own leaf
order (``cKDTree.indices``), so that consecutive queries start from
neighboring points and walk the tree's memory in order.

The distinct points are searched one slice at a time, and each is asked
once for its ``k + 2`` nearest neighbors. A point's rows all take its
first ``k + 1`` rows by (length, index), each but itself: its own rows,
at length 0, then the rows of its nearest points, each point's rows in
ascending order. A point of more than ``k`` rows (a pile) is settled by
its own rows. The tree's reported distances are trusted only where they
are separated by a clear relative gap: where the gaps are clear up to the
first point beyond the one that completes the ``k + 1`` rows, the rows are
read in the tree's order. Otherwise (ties and near-ties at floating-point
resolution) the rows of the points not clearly beyond it are sorted by
(length, index), once the farthest reported point is clearly beyond it,
and until then the point asks for twice as many, so that every point tied
with the one that completes its rows is among them. Every row is written
back at its input position.

Beyond the tree and the output arrays, the search holds one slice's query
results, the bookkeeping of one chunk of ``_QUERY_BLOCK_ROWS // (k + 1)``
of its points (4,096 at k = 3), and where points repeat the grouped row
indices, one copy of each point and each point's number of rows. At k = 3
it peaks (traced) at 10.0 MiB for 100,000 x 3 uniform points and at
17.6 MiB for 200,000 x 3 Gaussian points, 4.6 and 9.2 MiB of it output. On
a Gaussian sample rounded to one decimal, where 98% of the rows are tied
or piled, it peaks at 14.3 MiB for 100,000 x 3 points (13.2 MiB for its
copula).
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
# points in one kd-tree query. The search holds the reported neighbors of one
# slice at a time and settles them in chunks of this many head rows,
# _QUERY_BLOCK_ROWS // (k + 1) points: the gap test, the recomputed lengths
# and the heads exist for one chunk at a time, and a sorted chunk is cut
# again at about this many rows. Measured on 2 cores at n = 200,000, d = 3,
# k = 3, in leaf order: one query over every row held 75 MiB; slices of
# 16,384 points, each settled at once, 20.9 MiB traced, and settled in chunks
# of 4,096 points 17.6 MiB (100,000 x 3 uniform points: 13.2 -> 10.0 MiB).
# Split into blocks of 16,384 rows, a threaded query costs 12% more CPU time
# than one call (65,536 rows: 7%, 4,096 rows: 23%); on the calling thread the
# block size makes no difference. In leaf order the query takes half the CPU
# time it takes in input order, at every block size. On a rounded
# 100,000 x 3 sample, slices of 16,384 points held 15.1 MiB in all and
# slices of 4,096 points 10.4 MiB, at a CPU cost (up to 12% more) that
# alternating runs on 2 cores did not separate from noise.
_QUERY_BLOCK_ROWS = 16_384

_UNDERFLOW = "the sample's neighbor distances underflow float64; rescale the data"

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

    The kd-tree search builds its tree over the distinct points and asks it
    about each of them once for ``k + 2`` neighbors, and again, for twice as
    many, only while a tie with a point the query has not reported may
    leave it unsettled; a point of more than ``k`` rows never asks again.
    Besides the tree and the output arrays it holds one slice's query
    results at a time, settles the slice's points in chunks of
    ``16,384 // (k + 1)``, and where points repeat holds the grouped row
    indices, one copy of each point and each point's number of rows.

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


def _squared_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean lengths between ``a`` and ``b``, broadcast.

    The difference, squared in place and summed over the last axis. Every
    length the search and the scan report is the square root of one of
    these, so both compute them with the same arithmetic.
    """
    diff = a - b
    diff *= diff
    return diff.sum(axis=-1)


def _knn_brute(X: np.ndarray, k: int):
    """Exhaustive reference scan: O(n^2 d) time, memory-blocked.

    Used only for ``method="brute"``, the reference the kd-tree search is
    tested against. Each row's entries at or below its ``k + 1``-th smallest
    squared length, its own included, are a prefix of the row's (length,
    index) order; only they are sorted, and the row's own index is dropped.
    """
    n, d = X.shape
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        sq = _squared_lengths(X[start:stop, None, :], X[None, :, :])
        bound = np.partition(sq, k, axis=1)[:, k]
        for row, i in enumerate(range(start, stop)):
            near = np.flatnonzero(sq[row] <= bound[row])
            order = near[np.lexsort((near, sq[row, near]))]
            order = order[order != i][:k]
            indices[i] = order
            lengths[i] = np.sqrt(sq[row, order])
    return indices, lengths


def _knn_kdtree(X: np.ndarray, k: int, workers: int):
    """kd-tree search, exact at every dimension.

    :func:`_point_groups` finds the distinct points, the tree holds each of
    them once, and :func:`_search_slice` asks about them in slices of
    ``_QUERY_BLOCK_ROWS``, consecutive in the tree's leaf order.
    """
    n, d = X.shape
    if X.size < _THREADED_QUERY_ELEMENTS:
        workers = 1
    points, groups = _point_groups(X)
    tree = cKDTree(points, leafsize=_LEAF_POINTS * max(1, d // 4))
    # No two points differ in a coordinate by more than the tree's bounding
    # box does: if its squared diagonal underflows, so does every pair's, and
    # the first query would raise after quadratic work. (A diagonal that
    # overflows is left to the query, which names it.) The tree has the box
    # at no cost; computing it here would add about 3% to every search.
    with np.errstate(over="ignore"):
        diagonal = _squared_lengths(tree.maxes, tree.mins)
    if len(points) > 1 and diagonal == 0:
        raise DegenerateSampleError(_UNDERFLOW)
    indices = np.empty((n, k), dtype=np.intp)
    lengths = np.empty((n, k), dtype=np.float64)
    for s in range(0, len(points), _QUERY_BLOCK_ROWS):
        part = tree.indices[s : s + _QUERY_BLOCK_ROWS]
        _search_slice(tree, points, groups, part, k, workers, indices, lengths)
    return indices, lengths


def _point_groups(X: np.ndarray):
    """The distinct points of ``X`` and the rows that hold each of them.

    Returns ``points, (rows, starts, sizes)``: the rows of point ``g`` are
    ``rows[starts[g] : starts[g] + sizes[g]]``, in ascending order. Sorting
    column 0 screens for duplicate points: if none of its values repeats, no
    point does. When no point repeats, the points are ``X`` itself, point
    ``g`` is row ``g`` (``rows`` and ``starts`` are None), and ``sizes`` is a
    read-only view of a single 1, which takes no memory per row. Otherwise
    the points come in lexicographic order. This is the grouping of
    ``np.unique(X, axis=0)``; a lexsort over the columns is several times
    faster than its structured sort.
    """
    n = X.shape[0]
    column = np.sort(X[:, 0])
    if (column[1:] == column[:-1]).any():
        rows = np.lexsort(X.T[::-1])
        P = X[rows]
        first = np.ones(n, dtype=bool)
        first[1:] = (P[1:] != P[:-1]).any(axis=1)
        if not first.all():
            starts = np.flatnonzero(first)
            return P[starts], (rows, starts, np.diff(starts, append=n))
    return X, (None, None, np.broadcast_to(np.intp(1), (n,)))


def _rows(groups, points, places):
    """The input row at ``places`` among the rows of each of ``points``."""
    rows, starts, _ = groups
    return points if rows is None else rows[starts[points] + places]


def _spread(counts):
    """For each of ``counts.sum()`` slots, its entry of ``counts`` and its place there."""
    entry = np.repeat(np.arange(counts.size), counts)
    return entry, np.arange(entry.size) - (np.cumsum(counts) - counts)[entry]


def _query(tree: cKDTree, x: np.ndarray, m: int, workers: int):
    """The tree's ``m`` nearest points to each of its points ``x``, by distance.

    Returns distances and indices of shape ``(m, len(x))``: one row per
    neighbor rank, so that the search's work on each rank runs over
    contiguous memory. A distance the tree reports as infinite has
    overflowed float64. The tree's points are distinct, and each row of
    ``x`` finds itself first, at distance 0: a second zero lies between
    differing coordinates and has underflowed. No tie test or length can
    recover either, so the search stops there, before any tie query grows.
    """
    dist, idx = tree.query(x, k=m, workers=workers)
    # Asked for one neighbor, the tree drops the neighbor axis.
    dist = np.ascontiguousarray(dist.reshape(len(x), m).T)
    idx = np.ascontiguousarray(idx.reshape(len(x), m).T)
    if not np.isfinite(dist[-1]).all():
        raise DegenerateSampleError(
            "the sample's neighbor distances overflow float64; rescale the data"
        )
    if m > 1 and (dist[1] == 0).any():
        raise DegenerateSampleError(_UNDERFLOW)
    return dist, idx


def _search_slice(tree: cKDTree, points, groups, part, k: int, workers: int, indices, lengths):
    """Write the exact neighbors of the rows of one slice of distinct points.

    ``part`` are points of the tree, whose rows ``groups`` gives. Rows at
    identical coordinates have bitwise-identical distances to every point,
    so a point is asked once for all its rows, and all of them take its
    first ``k + 1`` rows by (length, index), its head, each but itself. The
    head starts with the point's own rows, at length 0, and goes on with the
    rows of the points nearest to it, each point's rows in ascending order.

    The first round asks every point for ``m = k + 2`` neighbors, in one
    query with ``workers`` threads, and :func:`_settle` settles its points
    in chunks of ``_QUERY_BLOCK_ROWS // (k + 1)``. A point that a tie with
    a point the query has not reported may leave unsettled is asked again:
    ``m`` doubles for it, up to every point, on the calling thread. A round
    queries ``_QUERY_BLOCK_ROWS * (k + 2) // m`` points at a time, so its
    candidates stay about one first-round query. A function of its own so
    that each slice's arrays are freed before the next slice starts.
    """
    todo, m = part, min(k + 2, len(points))
    chunk = max(1, _QUERY_BLOCK_ROWS // (k + 1))
    while todo.size:
        step = max(1, _QUERY_BLOCK_ROWS * (k + 2) // m)
        wider, every = [], m == len(points)
        for start in range(0, todo.size, step):
            at = todo[start : start + step]
            dist, cand = _query(tree, points[at], m, workers)
            for c in range(0, len(at), chunk):
                span = slice(c, c + chunk)
                wider.append(
                    _settle(points, groups, at[span], dist[:, span], cand[:, span], every, k, indices, lengths)
                )
        todo, m, workers = np.concatenate(wider), min(2 * m, len(points)), 1


def _settle(points, groups, at, dist, cand, every: bool, k: int, indices, lengths):
    """Write the heads of the points ``at`` that their query settles; return the rest.

    ``dist`` and ``cand`` are the query's distances and neighbors of the
    points, one row per rank; ``every`` says that they are all of the
    tree's points. The neighbor that completes a point's head is reported
    at distance ``reach``. Where the reported gaps up to the first neighbor
    beyond it are clear, the tree's order is exact and the head is read
    from it; a point of more than ``k`` rows is its own head and always
    takes this path. Otherwise, if the farthest neighbor is clearly beyond
    ``reach``, the rows of the neighbors that are not are sorted by
    (length, index). Otherwise a point tied with the one that completes the
    head may be missing, and the point is returned to be asked for more.
    """
    # Every neighbor holds a row, so the head is complete within the first
    # k + 1, at `last`. (np.cumsum over the short first axis is ten times
    # slower than adding row by row.)
    upto = groups[2][cand[: k + 1]]
    for j in range(1, len(upto)):
        upto[j] += upto[j - 1]
    last = (upto <= k).sum(axis=0)
    reach = dist[last, np.arange(len(at))]
    done = every | (dist[-1] - reach > _TIE_RTOL * dist[-1])
    tied = np.diff(dist[: k + 2], axis=0) <= _TIE_RTOL * dist[1 : k + 2]
    clear = done & ~(tied & (np.arange(len(tied))[:, None] <= last)).any(axis=0)
    # Where the point and its k - 1 nearest are single rows, its row takes
    # the first row of each of the next k as the tree reports them: every
    # row of an input with no repeated point.
    lone = clear & (last == k)
    if lone.any():
        near = cand[1 : k + 1, lone]
        own = _rows(groups, at[lone], 0)
        indices[own] = _rows(groups, near, 0).T
        lengths[own] = np.sqrt(_squared_lengths(points[near], points[at[lone]])).T
    read = clear & ~lone
    if read.any():
        _read_heads(points, groups, at[read], cand[: k + 1, read], upto[:, read], k, indices, lengths)
    sort = done & ~clear
    if sort.any():
        near = dist[:, sort] - reach[sort] <= _TIE_RTOL * dist[:, sort]
        _sort_heads(points, groups, at[sort], cand[:, sort], near, k, indices, lengths)
    return at[~done]


def _read_heads(points, groups, at, cand, upto, k: int, indices, lengths):
    """Heads of the points ``at`` in the tree's order of their neighbors ``cand``.

    ``upto`` counts the rows of ``cand`` up to each; the head takes all of
    a point's rows up to its ``k + 1``-th.
    """
    size = groups[2][cand]
    take = np.clip(k + 1 - upto + size, 0, size)
    entry, place = _spread(take.T.ravel())
    near = cand.T.ravel()[entry].reshape(-1, k + 1)
    sq = _squared_lengths(points[near], points[at][:, None, :])
    head = _rows(groups, near, place.reshape(-1, k + 1))
    _write(groups, at, head, sq, k, indices, lengths)


def _sort_heads(points, groups, at, cand, near, k: int, indices, lengths):
    """Heads of the points ``at`` by the exact (length, index) sort of their rows.

    ``near`` marks the neighbors in ``cand`` that are not clearly beyond the
    one that completes the head. Their rows are sorted: all of a point's own
    rows, and at most as many of another's as the head has room for beside
    the point's own. Rows of equally distant points interleave by index, so
    the sort runs over rows, not points. The points are sorted in chunks of
    about ``_QUERY_BLOCK_ROWS`` rows.
    """
    sizes = groups[2]
    pos, col = np.nonzero(near.T)
    near = cand[col, pos]
    own = sizes[at]
    take = np.where(col == 0, own[pos], np.minimum(sizes[near], k + 1 - own[pos]))
    count = np.bincount(pos, weights=take, minlength=len(at)).astype(np.intp)
    bounds = np.cumsum(count)
    a = 0
    while a < len(at):
        b = bounds[a] - count[a] + _QUERY_BLOCK_ROWS
        b = max(a + 1, int(np.searchsorted(bounds, b, side="right")))
        lo, hi = np.searchsorted(pos, [a, b])
        p, g, t = pos[lo:hi] - a, near[lo:hi], take[lo:hi]
        sq = _squared_lengths(points[g], points[at[a:b]][p])
        entry, place = _spread(t)
        row, sq, p = _rows(groups, g[entry], place), sq[entry], p[entry]
        order = np.lexsort((row, sq, p))
        first = (np.cumsum(count[a:b]) - count[a:b])[:, None] + np.arange(k + 1)
        head = order[first]
        _write(groups, at[a:b], row[head], sq[head], k, indices, lengths)
        a = b


def _write(groups, at, head, head_sq, k: int, indices, lengths):
    """Each row of the points ``at`` takes its point's head but itself.

    A point's rows come first in its head, in ascending order, so its row
    at place ``i`` skips slot ``i``; a row of a pile larger than the head
    is not in it and takes its first ``k``.
    """
    entry, place = _spread(groups[2][at])
    slot = np.arange(k + 1)
    cols = slot[:k] + (slot[:k] >= np.minimum(place, k)[:, None])
    own = _rows(groups, at[entry], place)
    indices[own] = head[entry[:, None], cols]
    lengths[own] = np.sqrt(head_sq[entry[:, None], cols])
