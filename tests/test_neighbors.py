"""Exact k-nearest-neighbor queries: correctness, ties, and path agreement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
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


def test_tie_resolution_in_small_chunks(monkeypatch):
    # A budget of 40 coordinates slices the first round (k + 2 = 5 candidates
    # in 2 dimensions) into 4 points at a time, and every round from 20
    # candidates on into single points.
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", 40)
    assert_matches_scan(_integer_grid(np.random.default_rng(8)), 3)


def test_tie_resolution_of_a_subset_of_rows():
    X = _rounded_gaussian_copula(np.random.default_rng(4))
    rows = np.arange(0, len(X), 7)
    idx, lengths = neighbors._resolve_ties(cKDTree(X), X, rows, 3)
    idx_b, len_b = knn_all(X, 3, method="brute")
    assert np.array_equal(idx, idx_b[rows])
    assert lengths.tobytes() == len_b[rows].tobytes()


def test_large_pile_widens_the_tie_query(monkeypatch):
    # 500 copies of one point: each copy's first k + 1 by (length, index)
    # are the lowest-indexed copies, which a (k + 2)-nearest query need not
    # report, so the query grows until it holds the whole pile.
    rng = np.random.default_rng(10)
    X = np.vstack([np.repeat(rng.random((1, 3)), 500, axis=0), rng.random((50, 3))])
    asked = []

    class Tree(cKDTree):
        def query(self, x, k, workers):
            asked.append(k)
            return super().query(x, k=k, workers=workers)

    monkeypatch.setattr(neighbors, "cKDTree", Tree)
    assert_matches_scan(X, 3)
    assert max(asked) > 3 + 2


def test_overflowing_distances_raise():
    X = np.random.default_rng(11).random((500, 3)) * 1e155
    with pytest.raises(DegenerateSampleError, match="overflow float64"):
        knn_all(X, 3)


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


def test_auto_matches_scan_at_21_dimensions():
    assert_matches_scan(np.random.default_rng(9).random((60, 21)), 3)


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
    # Rows rounded to a 0.1 grid pile up on shared sites all through the row
    # order; the appended copy of row 0 puts one pile's ends in the first
    # and in the last block for every block size; 92 rows leave a partial
    # last block at 7 and at n - 1 rows.
    X = np.round(rng.random((91, 2)), 1)
    return np.vstack([X, X[:1]])


BLOCK_CASES = {
    "continuous": lambda rng: rng.random((300, 3)),
    "copula-lattice": _lattice_copula,
    "rounded-piles": _rounded_piles,
}


def _assert_blocks_match(monkeypatch, X, size, workers):
    """Queried in blocks of ``size`` rows, knn_all equals one block and the scan."""
    assert len(X) < neighbors._QUERY_BLOCK_ROWS
    unblocked = {w: knn_all(X, 3, workers=w) for w in workers}
    idx_b, len_b = knn_all(X, 3, method="brute")
    tie_batches = []
    real = neighbors._resolve_ties

    def resolve_ties(tree, X, rows, k):
        tie_batches.append(rows)
        return real(tree, X, rows, k)

    monkeypatch.setattr(neighbors, "_resolve_ties", resolve_ties)
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK_ROWS", size)
    for w in workers:
        idx, lengths = knn_all(X, 3, workers=w)
        assert np.array_equal(idx, idx_b) and np.array_equal(idx, unblocked[w][0])
        assert lengths.tobytes() == len_b.tobytes() == unblocked[w][1].tobytes()
    # Tie rows from all blocks reach the resolution once per search, in order.
    assert len(tie_batches) <= len(workers)
    for rows in tie_batches:
        assert np.array_equal(rows, np.unique(rows))
    return tie_batches


@pytest.mark.parametrize("size", ["1", "7", "n-1"])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_query_matches_scan(monkeypatch, case, size):
    X = BLOCK_CASES[case](np.random.default_rng(12))
    n = len(X)
    size = {"1": 1, "7": 7, "n-1": n - 1}[size]
    tie_batches = _assert_blocks_match(monkeypatch, X, size, workers=(1,))
    if case == "continuous":
        assert not tie_batches  # every row is taken from its own block's query
    if case == "rounded-piles":
        blocks = np.unique(tie_batches[0] // size)
        assert blocks.size > 1 and blocks[-1] == (n - 1) // size


@pytest.mark.parametrize("size", ["1", "7", "n-1"])
def test_blocked_query_matches_scan_at_threaded_size(monkeypatch, size):
    X = np.random.default_rng(13).random((4000, 3))
    assert X.size >= neighbors._THREADED_QUERY_ELEMENTS
    size = {"1": 1, "7": 7, "n-1": len(X) - 1}[size]
    assert not _assert_blocks_match(monkeypatch, X, size, workers=(1, -1))


def test_scratch_is_bounded_by_one_block():
    # The (100000, 3) outputs take 4.6 MiB. Querying every row at once held
    # about 37 MiB; one block of rows holds under 14 MiB in all.
    X = np.random.default_rng(14).random((100_000, 3))
    tracemalloc.start()
    try:
        knn_all(X, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_tie_scratch_is_bounded():
    # Almost every row of a rounded sample is a tie row. Resolving them in
    # one batch of distance balls held 81 MiB; slices of k-nearest queries
    # hold under 40 MiB in all, with 4.6 MiB of output.
    X = np.round(np.random.default_rng(0).standard_normal((100_000, 3)), 1)
    tracemalloc.start()
    try:
        knn_all(X, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20
