"""Exact k-nearest-neighbor queries: correctness, ties, and path agreement."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from nnentropy import (
    DegenerateSampleError,
    InsufficientPointsError,
    empirical_copula,
    knn_all,
    neighbors,
)

from .oracles import brute_knn


def assert_matches_scan(X, k):
    """kd-tree (both worker counts) == exhaustive scan bitwise == oracle."""
    idx_b, len_b = knn_all(X, k, method="brute")
    for workers in (-1, 1):
        idx, lengths = knn_all(X, k, method="kdtree", workers=workers)
        assert np.array_equal(idx, idx_b)
        assert lengths.tobytes() == len_b.tobytes()
    ref_idx, ref_dist = brute_knn(X, k)
    assert np.array_equal(idx_b, ref_idx)
    assert np.allclose(len_b, ref_dist, rtol=1e-12, atol=0.0)


def _duplicate_piles(rng):
    # Piles of 12 and 5 (= k + 1) copies beside pairs, triples and singletons.
    sites = rng.random((8, 2))
    return np.repeat(sites, [12, 5, 3, 2, 2, 1, 1, 1], axis=0)


def _integer_grid(rng):
    return rng.integers(0, 10, size=(400, 2)).astype(float)


def _rounded_gaussian_copula(rng):
    cov = np.full((3, 3), 0.5)
    np.fill_diagonal(cov, 1.0)
    sample = rng.standard_normal((800, 3)) @ np.linalg.cholesky(cov).T
    return empirical_copula(np.round(sample, 1)).points


def _duplicated_rows(d):
    def build(rng):
        rows = rng.standard_normal((120, d))
        return rng.permutation(np.repeat(rows, rng.integers(1, 5, size=120), axis=0))

    return build


def _equal_roots(rng):
    # Points 1 and 2 lie at distinct squared lengths from point 0 whose square
    # roots are the same float; the squared length orders them, so point 0's
    # nearest neighbor is 2. The fifth point lets k = 4 run.
    return np.array([
        [0.0, 0.0], [1.1382403874954043, 0.0], [1.1033250198667084, 0.27975896815261486],
        [5.0, 5.0], [-5.0, 5.0],
    ])


TIE_HEAVY = {
    "equal-square-roots": _equal_roots,
    "duplicate-piles": _duplicate_piles,
    "integer-grid": _integer_grid,
    "rounded-gaussian-copula": _rounded_gaussian_copula,
    "d25-duplicated-rows": _duplicated_rows(25),
    "d60-duplicated-rows": _duplicated_rows(60),
}


def test_exact_ties_break_by_ascending_index():
    # four points at distance exactly 1 from the origin
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    idx, dist = knn_all(pts, 4)
    assert list(idx[0]) == [1, 2, 3, 4]
    assert np.allclose(dist[0], 1.0)
    # index breaks ties only: the nearer point 1 precedes point 0 for point 2
    idx, dist = knn_all([[0.0], [1.0], [3.0]], 2)
    assert idx.tolist() == [[1, 2], [0, 2], [1, 0]]
    assert dist.tolist() == [[1.0, 3.0], [1.0, 2.0], [2.0, 3.0]]
    # a duplicate pair is each other's zero-length first neighbor
    idx, dist = knn_all([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]], 2)
    assert idx.tolist() == [[1, 2], [0, 2], [0, 1]]
    assert dist.tolist() == [[0.0, 5.0], [0.0, 5.0], [5.0, 5.0]]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kdtree_and_brute_agree_bitwise(d):
    rng = np.random.default_rng(100 + d)
    assert_matches_scan(rng.random((300, d)), 5)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("case", TIE_HEAVY)
def test_tie_heavy_inputs_match_scan(case, k):
    X = TIE_HEAVY[case](np.random.default_rng(7))
    assert_matches_scan(X, k)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_tie_resolution_in_small_chunks(monkeypatch, k):
    # Slices of 3 distinct points, each a pile of about 4 rows of the grid,
    # spread the rows over about 30 slices. A round queries 3 (k + 2) // m
    # points at a time: 3 in the first round, then single points as m
    # doubles.
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK_ROWS", 3)
    assert_matches_scan(_integer_grid(np.random.default_rng(8)), k)


def test_tie_resolution_of_a_subset_of_points():
    X = _rounded_gaussian_copula(np.random.default_rng(4))
    points, groups = neighbors._point_groups(X)
    assert (groups[2] > 1).any()
    # Every 7th distinct point, piles among them, searched on its own: all
    # their rows get their neighbors.
    part = np.arange(0, len(points), 7)
    assert (groups[2][part] > 1).any()
    idx = np.full((len(X), 3), -1, dtype=np.intp)
    lengths = np.full((len(X), 3), np.nan)
    neighbors._search_slice(cKDTree(points), points, groups, part, 3, 1, idx, lengths)
    rows = (X[:, None, :] == points[part][None, :, :]).all(axis=-1).any(axis=1)
    assert rows.sum() == groups[2][part].sum()
    idx_b, len_b = knn_all(X, 3, method="brute")
    assert np.array_equal(idx[rows], idx_b[rows])
    assert lengths[rows].tobytes() == len_b[rows].tobytes()
    # The other rows are left as they were.
    assert (idx[~rows] == -1).all() and np.isnan(lengths[~rows]).all()


def _record_queries(monkeypatch, trees=None):
    """Patch the search's tree to record each query's ``(k, x)``; return the list.

    Each tree built is appended to ``trees`` if given.
    """
    asked = []

    class Tree(cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if trees is not None:
                trees.append(self)

        def query(self, x, k, workers):
            asked.append((k, x.copy()))
            return super().query(x, k=k, workers=workers)

    monkeypatch.setattr(neighbors, "cKDTree", Tree)
    return asked


def test_large_pile_is_never_widened(monkeypatch):
    # 500 copies of one point: each copy's k nearest are the lowest-indexed
    # other copies, at length 0. The tree holds the pile once, so its point
    # is asked for k + 2 neighbors like any other, and a pile of more than k
    # rows is settled by its own rows: no query asks it for more.
    rng = np.random.default_rng(10)
    X = np.vstack([np.repeat(rng.random((1, 3)), 500, axis=0), rng.random((50, 3))])
    asked = _record_queries(monkeypatch)
    assert_matches_scan(X, 3)
    pile = [k for k, x in asked if (x == X[0]).all(axis=1).any()]
    # Once for each worker count of the kd-tree search.
    assert pile == [3 + 2, 3 + 2]


@pytest.mark.parametrize("case", ["duplicate-piles", "integer-grid", "rounded-gaussian-copula"])
def test_only_points_of_at_most_k_rows_are_widened(monkeypatch, case):
    X = TIE_HEAVY[case](np.random.default_rng(16))
    k = 3
    copies = np.unique(X, axis=0, return_counts=True)[1]
    assert (copies > 1).any()
    asked = _record_queries(monkeypatch)
    knn_all(X, k)
    # One slice (n < _QUERY_BLOCK_ROWS) asks every point in its first query;
    # a point asked again holds at most k rows, for a tie its first query
    # could not settle.
    assert asked[0][0] == k + 2
    for m, x in asked[1:]:
        assert m > k + 2
        match = (x[:, None, :] == X[None, :, :]).all(axis=-1)
        assert (match.sum(axis=1) <= k).all()


@pytest.mark.parametrize("case", ["duplicate-piles", "integer-grid", "rounded-gaussian-copula"])
def test_each_point_is_asked_at_k_plus_2_exactly_once(monkeypatch, case):
    X = TIE_HEAVY[case](np.random.default_rng(16))
    k = 3
    points = np.unique(X, axis=0)
    assert len(points) < len(X)
    trees = []
    asked = _record_queries(monkeypatch, trees)
    knn_all(X, k)
    # The tree holds each distinct point once, piles included.
    [tree] = trees
    assert len(tree.data) == len(points)
    assert np.unique(tree.data, axis=0).tobytes() == points.tobytes()
    x = np.vstack([x for m, x in asked if m == k + 2])
    times = (x[:, None, :] == points[None, :, :]).all(axis=-1).sum(axis=0)
    assert len(x) == len(points) and (times == 1).all()


def test_repeated_first_coordinate_without_piles_matches_scan():
    # Only column 0 is rounded: its values repeat but no two rows are equal,
    # so the tree holds every row, as for an input with no repeated value.
    X = np.random.default_rng(17).random((4000, 3))
    X[:, 0] = np.round(X[:, 0], 1)
    assert len(np.unique(X[:, 0])) < len(X) == len(np.unique(X, axis=0))
    points, (rows, starts, sizes) = neighbors._point_groups(X)
    assert points is X and rows is None and starts is None
    assert sizes.strides == (0,) and (sizes == 1).all()
    assert X.size >= neighbors._THREADED_QUERY_ELEMENTS
    assert_matches_scan(X, 3)


def test_overflowing_distances_raise():
    X = np.random.default_rng(11).random((500, 3)) * 1e155
    with pytest.raises(DegenerateSampleError, match="overflow float64"):
        knn_all(X, 3)


def test_underflowing_distances_raise_before_tie_queries_grow(monkeypatch):
    # Distinct points whose squared distances underflow are all 0 apart, so
    # every row looks tied; widening their queries would reach every point.
    # Their bounding box's squared diagonal underflows too, so no query runs.
    asked = _record_queries(monkeypatch)
    X = np.random.default_rng(11).random((6000, 3)) * 1e-170
    with pytest.raises(DegenerateSampleError, match="underflow float64"):
        knn_all(X, 3)
    assert asked == []


def test_underflowing_sample_raises_before_the_quadratic_query():
    # The tree's first query over 30,000 such points takes seconds.
    X = np.random.default_rng(11).random((30_000, 3)) * 1e-170
    start = time.process_time()
    with pytest.raises(DegenerateSampleError, match="underflow float64"):
        knn_all(X, 3)
    assert time.process_time() - start < 0.05


def test_one_underflowing_pair_raises_from_the_query():
    # The box is wide, so only the query sees the pair 1e-170 apart.
    X = np.random.default_rng(11).random((500, 3))
    X[:2] = [[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0]]
    with pytest.raises(DegenerateSampleError, match="underflow float64") as raised:
        knn_all(X, 3)
    assert raised.traceback[-1].name == "_query"


def test_every_length_comes_from_one_function(monkeypatch):
    # The tree's three ways of writing a row and the scan all take their
    # lengths from neighbors._squared_lengths. Four times the squared lengths
    # keep every order and double every length exactly.
    rng = np.random.default_rng(18)
    cases = [rng.random((500, 3)), _duplicate_piles(rng), _integer_grid(rng)]
    before = [knn_all(X, 3) for X in cases]
    real, ran = neighbors._squared_lengths, []
    monkeypatch.setattr(neighbors, "_squared_lengths", lambda a, b: 4.0 * real(a, b))

    def spy(fn):
        def recorded(*args):
            ran.append(fn.__name__)
            return fn(*args)

        return recorded

    for name in ("_read_heads", "_sort_heads"):
        monkeypatch.setattr(neighbors, name, spy(getattr(neighbors, name)))
    for X, (idx, lengths) in zip(cases, before):
        for method in ("kdtree", "brute"):
            idx4, lengths4 = knn_all(X, 3, method=method)
            assert np.array_equal(idx4, idx)
            assert lengths4.tobytes() == (2.0 * lengths).tobytes()
    assert set(ran) == {"_read_heads", "_sort_heads"}


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_shuffled_copies_match_scan(d, data):
    # Random points on a small lattice, so that distinct points tie too,
    # each repeated 1 to 12 times, in shuffled order.
    count = data.draw(st.integers(1, 12), label="points")
    sites = data.draw(hnp.arrays(np.float64, (count, d), elements=st.integers(-3, 3).map(float)))
    copies = data.draw(st.lists(st.integers(1, 12), min_size=count, max_size=count), label="copies")
    X = np.repeat(sites, copies, axis=0)
    X = X[data.draw(st.permutations(range(len(X))), label="order")]
    assume(len(X) > 1)
    k = data.draw(st.integers(1, min(6, len(X) - 1)), label="k")
    assert_matches_scan(X, k)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 21])
@given(data=st.data())
def test_small_integer_inputs_match_scan(d, data):
    k = data.draw(st.integers(1, 5), label="k")
    n = data.draw(st.integers(k + 1, 40), label="n")
    X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    assert_matches_scan(X, k)


@pytest.mark.parametrize("d", [2, 3])
def test_matches_reference_scan(d):
    rng = np.random.default_rng(200 + d)
    X = rng.random((250, d))
    idx, dist = knn_all(X, 7)
    ref_idx, ref_dist = brute_knn(X, 7)
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(dist, ref_dist, rtol=1e-12, atol=0.0)


# One size queried on the calling thread, one large enough to start threads.
@pytest.mark.parametrize("n", [400, 4000])
def test_worker_count_does_not_change_output(n):
    rng = np.random.default_rng(3)
    X = rng.random((n, 3))
    assert (X.size >= neighbors._THREADED_QUERY_ELEMENTS) == (n == 4000)
    idx1, len1 = knn_all(X, 4, workers=1)
    idx2, len2 = knn_all(X, 4, workers=-1)
    assert np.array_equal(idx1, idx2)
    assert np.array_equal(len1, len2)


def test_small_queries_run_on_the_calling_thread(monkeypatch):
    asked = []

    class Tree(cKDTree):
        def query(self, x, k, workers):
            asked.append(workers)
            return super().query(x, k=k, workers=workers)

    monkeypatch.setattr(neighbors, "cKDTree", Tree)
    rng = np.random.default_rng(4)
    threshold = neighbors._THREADED_QUERY_ELEMENTS
    for n, d in [(threshold // 3, 3), (threshold // 3 + 1, 3), (threshold // 25 - 1, 25)]:
        knn_all(rng.random((n, d)), 2, workers=-1)
        knn_all(rng.random((n, d)), 2, workers=2)
    assert asked == [1, 1, -1, 2, 1, 1]


@pytest.mark.parametrize("workers", [0, -2, 1.0, True])
@pytest.mark.parametrize("n", [10, 4000])
def test_invalid_worker_count_rejected_at_every_size(workers, n):
    with pytest.raises(ValueError, match="workers"):
        knn_all(np.random.default_rng(5).random((n, 3)), 1, workers=workers)


@pytest.mark.parametrize("case", ["continuous", "rounded-gaussian-copula"])
def test_threaded_sizes_match_scan(case):
    rng = np.random.default_rng(6)
    if case == "continuous":
        X = rng.random((4000, 3))
    else:
        X = np.vstack([_rounded_gaussian_copula(rng) for _ in range(5)])
    assert X.size >= neighbors._THREADED_QUERY_ELEMENTS
    assert_matches_scan(X, 3)


def _lattice_copula(rng):
    return empirical_copula(rng.random((600, 3))).points


# knn_all(X, k) is the first k columns of a deeper search: both are ordered by
# (length, index), so a caller may search once at its largest rank.
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize(
    "build",
    [lambda rng: rng.random((600, 3)), _lattice_copula, _rounded_gaussian_copula, _integer_grid],
    ids=["continuous", "copula-lattice", "rounded-gaussian-copula", "integer-grid"],
)
def test_fewer_ranks_are_the_leading_columns(build, k):
    X = build(np.random.default_rng(9))
    idx, lengths = knn_all(X, k)
    deep_idx, deep_lengths = knn_all(X, k + 2)
    assert np.array_equal(idx, deep_idx[:, :k])
    assert lengths.tobytes() == np.ascontiguousarray(deep_lengths[:, :k]).tobytes()


# Leaves grow with d (16 points per 4 dimensions), so these trees have
# leaves of 32 to 96 points.
@pytest.mark.parametrize("coordinates", ["continuous", "integer"])
@pytest.mark.parametrize("d", [8, 12, 21, 25])
def test_wide_leaves_match_scan(d, coordinates):
    rng = np.random.default_rng(9)
    if coordinates == "continuous":
        X = rng.random((600, d))
    else:
        X = rng.integers(0, 3, size=(600, d)).astype(float)
    assert_matches_scan(X, 3)


def test_k_bounds():
    X = np.random.default_rng(0).random((10, 2))
    with pytest.raises(ValueError):
        knn_all(X, 0)
    with pytest.raises(InsufficientPointsError):
        knn_all(X, 10)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        knn_all(np.zeros((5, 2)), 1, method="bogus")


def _rounded_piles(rng):
    # Rows rounded to a 0.1 grid pile up on shared sites. Eight copies of
    # (1.1, 1.1), beyond every other row in both coordinates, end the tree's
    # leaf order: split into blocks of rows in that order, the pile would
    # span the last block and the one before at every block size. 99 rows
    # leave a partial last slice at 7 and at n - 1 points.
    X = np.round(rng.random((91, 2)), 1)
    return np.vstack([X, np.full((8, 2), 1.1)])


BLOCK_CASES = {
    "continuous": lambda rng: rng.random((300, 3)),
    "copula-lattice": _lattice_copula,
    "rounded-piles": _rounded_piles,
}


def _assert_blocks_match(monkeypatch, X, size, workers):
    """Searched in slices of ``size`` points, knn_all equals one slice and the scan.

    Returns, for each worker count, the distinct points of every slice and
    the ``(k, x)`` of every query of its search.
    """
    assert len(X) < neighbors._QUERY_BLOCK_ROWS
    unblocked = {w: knn_all(X, 3, workers=w) for w in workers}
    idx_b, len_b = knn_all(X, 3, method="brute")
    real = neighbors._search_slice

    def search_slice(tree, points, groups, part, *args):
        slices.append(points[part].copy())
        real(tree, points, groups, part, *args)

    monkeypatch.setattr(neighbors, "_search_slice", search_slice)
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK_ROWS", size)
    runs = []
    for w in workers:
        slices, asked = [], _record_queries(monkeypatch)
        idx, lengths = knn_all(X, 3, workers=w)
        assert np.array_equal(idx, idx_b) and np.array_equal(idx, unblocked[w][0])
        assert lengths.tobytes() == len_b.tobytes() == unblocked[w][1].tobytes()
        # Every distinct point comes in exactly one slice, of at most `size`
        # points.
        assert all(len(points) <= size for points in slices)
        points = np.concatenate(slices)
        assert len(points) == len(np.unique(X, axis=0))
        assert np.unique(points, axis=0).tobytes() == np.unique(X, axis=0).tobytes()
        runs.append((slices, asked))
    return runs


@pytest.mark.parametrize("size", ["1", "7", "14", "n-1"])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_query_matches_scan(monkeypatch, case, size):
    # A slice of `size` points is settled in chunks of size // (k + 1)
    # points: 14 splits each slice into chunks of 3 and a last one of 2.
    X = BLOCK_CASES[case](np.random.default_rng(12))
    n, k = len(X), 3
    size = {"1": 1, "7": 7, "14": 14, "n-1": n - 1}[size]
    for slices, asked in _assert_blocks_match(monkeypatch, X, size, workers=(1, -1)):
        assert len(slices) == -(-len(np.unique(X, axis=0)) // size)
        if case == "continuous":
            # No tie work: each row is asked once, in the first query of its
            # slice.
            assert [m for m, _ in asked] == [k + 2] * len(slices)
        if case == "rounded-piles":
            # The pile that ends the leaf order of a tree over every row
            # spans two blocks of rows in that order. The tree holds it once:
            # it is one point of the last slice, asked once, at k + 2, and
            # its eight rows need no wider query.
            order = cKDTree(X).indices
            pile = np.flatnonzero((X == X[order[-1]]).all(axis=1))
            block = np.argsort(order)[pile] // size
            assert block.max() == (n - 1) // size and block.min() < block.max()
            assert (slices[-1][-1] == X[pile[0]]).all()
            at_pile = [m for m, x in asked if (x == X[pile[0]]).all(axis=1).any()]
            assert at_pile == [k + 2]


def test_blocks_are_consecutive_slices_of_the_leaf_order(monkeypatch):
    queried = []

    class Tree(cKDTree):
        def query(self, x, k, workers):
            queried.append((self.indices, x.copy()))
            return super().query(x, k=k, workers=workers)

    monkeypatch.setattr(neighbors, "cKDTree", Tree)
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK_ROWS", 7)
    X = np.random.default_rng(15).random((300, 3))
    knn_all(X, 3)
    order = queried[0][0]
    assert not np.array_equal(order, np.arange(len(X)))
    # Continuous data has no ties, so each point is asked once, in the first
    # query of its slice.
    assert len(queried) == -(-len(X) // 7)
    for start, (indices, x) in zip(range(0, len(X), 7), queried):
        assert np.array_equal(indices, order)
        assert x.tobytes() == X[order[start : start + 7]].tobytes()


@pytest.mark.parametrize("size", ["1", "7", "n-1"])
def test_blocked_query_matches_scan_at_threaded_size(monkeypatch, size):
    X = np.random.default_rng(13).random((4000, 3))
    assert X.size >= neighbors._THREADED_QUERY_ELEMENTS
    size = {"1": 1, "7": 7, "n-1": len(X) - 1}[size]
    for slices, asked in _assert_blocks_match(monkeypatch, X, size, workers=(1, -1)):
        # No tie work: each row is asked once, in the first query of its slice.
        assert [m for m, _ in asked] == [3 + 2] * len(slices)


def _traced_peak(X):
    """Peak traced allocation of ``knn_all(X, 3)``, in bytes."""
    tracemalloc.start()
    try:
        knn_all(X, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_is_bounded_by_one_block():
    # The (100000, 3) outputs take 4.6 MiB. Querying every row at once held
    # about 37 MiB; one slice of points settled at once held 13.2 MiB in
    # all, and settled in chunks of 4,096 points 10.0 MiB.
    X = np.random.default_rng(14).random((100_000, 3))
    assert _traced_peak(X) < 12 * 2**20


def test_tie_scratch_is_bounded():
    # 98% of the rows of a rounded sample are tied or piled. Resolving them in
    # one batch, with each round sliced only at 2**24 coordinates, held
    # 38 MiB; a tree over the distinct points, searched in slices of 16,384,
    # held 15.8 MiB in all, and settled in chunks of 4,096 points 14.3 MiB,
    # with 4.6 MiB of output.
    X = np.round(np.random.default_rng(0).standard_normal((100_000, 3)), 1)
    assert _traced_peak(X) < 16 * 2**20


def test_copula_tie_scratch_is_bounded():
    # The copula of the same sample: 29 MiB in one batch, 14.9 MiB in
    # slices, 13.2 MiB in slices settled in chunks.
    X = np.round(np.random.default_rng(0).standard_normal((100_000, 3)), 1)
    assert _traced_peak(empirical_copula(X).points) < 15 * 2**20
