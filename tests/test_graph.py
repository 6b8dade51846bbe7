"""Neighbor graphs, the length functional, and the boundary variant."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnentropy import (
    Cube,
    InsufficientPointsError,
    NeighborSpec,
    NNGraph,
    OutsideCubeError,
    PointSet,
    build_boundary_graph,
    build_nn_graph,
    graph,
    knn_all,
    l_p,
)

LINE = [[0.0], [1.0], [3.0]]


def _ulp_close(a: float, b: float, ulps: int = 8) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


class TestBuildNNGraph:
    def test_line_single_rank(self):
        g = build_nn_graph(LINE, NeighborSpec((1,)))
        assert g.neighbor_index[:, 0].tolist() == [1, 0, 1]
        assert g.length[:, 0].tolist() == [1.0, 1.0, 2.0]
        assert g.in_degrees().tolist() == [1, 2, 0]
        assert g.n_edges == 3

    def test_line_two_ranks(self):
        g = build_nn_graph(LINE, NeighborSpec((1, 2)))
        assert g.neighbor_index.tolist() == [[1, 2], [0, 2], [1, 0]]
        assert sorted(g.length.ravel().tolist()) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert g.n_edges == 6

    def test_out_degree_is_spec_size(self):
        rng = np.random.default_rng(0)
        g = build_nn_graph(rng.random((50, 3)), NeighborSpec((1, 3)))
        assert g.neighbor_index.shape == (50, 2)
        assert (g.neighbor_index >= 0).all()

    def test_every_rank_up_to_k_keeps_the_search_arrays(self, monkeypatch):
        X = np.random.default_rng(1).random((60, 3))
        found = []

        def search(*args, **kwargs):
            found.append(knn_all(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(graph, "knn_all", search)
        g = build_nn_graph(X, NeighborSpec((1, 2, 3)))
        assert g.neighbor_index is found[-1][0] and g.length is found[-1][1]
        # A subset of the ranks takes their columns.
        sub = build_nn_graph(X, NeighborSpec((1, 3)))
        assert np.array_equal(sub.neighbor_index, found[-1][0][:, [0, 2]])
        assert sub.length.tobytes() == np.ascontiguousarray(found[-1][1][:, [0, 2]]).tobytes()

    def test_needs_more_points_than_max_rank(self):
        with pytest.raises(InsufficientPointsError, match="rank 3"):
            build_nn_graph(LINE, NeighborSpec((1, 3)))

    def test_edge_arrays(self):
        g = build_nn_graph(LINE, NeighborSpec((1,)))
        assert g.spec.indices == (1,)
        assert g.neighbor_index.tolist() == [[1], [0], [1]]
        assert g.length.tolist() == [[1.0], [1.0], [2.0]]


class TestLP:
    def test_line_values(self):
        g = build_nn_graph(LINE, NeighborSpec((1, 2)))
        assert l_p(g, 1.0) == 12.0
        assert l_p(g, 2.0) == 28.0

    def test_p_zero_counts_edges(self):
        g = build_nn_graph([[0.0], [0.0], [9.0]], NeighborSpec((1,)))
        assert l_p(g, 0.0) == g.n_edges

    def test_zero_length_edges_vanish_for_positive_p(self):
        g = build_nn_graph([[0.0], [0.0], [9.0]], NeighborSpec((1,)))
        assert l_p(g, 0.5) == pytest.approx(math.sqrt(9.0), abs=0.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_power(self, bad):
        g = build_nn_graph(LINE, NeighborSpec((1,)))
        with pytest.raises(ValueError):
            l_p(g, bad)

    def test_power_beyond_float64_is_inf(self):
        # (2e150)^2.85 overflows; l_p returns inf without numpy's RuntimeWarning.
        g = build_nn_graph([[0.0], [1e150], [3e150]], NeighborSpec((1,)))
        assert l_p(g, 2.85) == math.inf

    def test_sum_beyond_float64_is_inf(self):
        # Each power is finite but their exactly rounded sum is not, where
        # math.fsum raises OverflowError.
        ps = PointSet(np.arange(4.0)[:, None])
        g = NNGraph(ps, NeighborSpec((1,)), np.zeros((4, 1), dtype=np.intp), np.full((4, 1), 1e308))
        assert l_p(g, 1.0) == math.inf

    def test_rank_sums_decompose(self):
        """L_p over a rank set equals the sum over its singleton ranks."""
        rng = np.random.default_rng(5)
        X = rng.random((200, 3))
        total = l_p(build_nn_graph(X, NeighborSpec((1, 2, 3))), 1.3)
        parts = sum(l_p(build_nn_graph(X, NeighborSpec((r,))), 1.3) for r in (1, 2, 3))
        assert total == pytest.approx(parts, rel=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 2.9),
        st.floats(-5.0, 5.0),
        st.floats(0.1, 10.0),
    )
    def test_translation_and_scaling(self, seed, p, shift, scale):
        rng = np.random.default_rng(seed)
        X = rng.random((40, 3))
        spec = NeighborSpec((1, 2))
        base = l_p(build_nn_graph(X, spec), p)
        translated = l_p(build_nn_graph(X + shift, spec), p)
        scaled = l_p(build_nn_graph(X * scale, spec), p)
        assert _ulp_close(translated, base)
        assert abs(scaled - scale**p * base) <= 8 * math.ulp(scaled) + 1e-13 * base


class TestBoundaryGraph:
    def test_interior_cluster_identical_to_plain(self):
        rng = np.random.default_rng(1)
        X = 0.5 + 0.01 * rng.standard_normal((30, 2))
        spec = NeighborSpec((1, 2))
        plain = build_nn_graph(X, spec)
        star = build_boundary_graph(X, spec, Cube.unit(2))
        assert np.array_equal(plain.length, star.length)
        assert np.array_equal(plain.neighbor_index, star.neighbor_index)

    def test_near_face_edge_is_rerouted(self):
        X = [[0.01, 0.5], [0.51, 0.5]]
        g = build_boundary_graph(X, NeighborSpec((1,)), Cube.unit(2))
        assert g.neighbor_index[0, 0] == -1
        assert g.length[0, 0] == pytest.approx(0.01)
        # the second point keeps its graph neighbor: 0.5 to the point,
        # 0.49 to the boundary... the boundary is closer, so it reroutes too
        assert g.neighbor_index[1, 0] == -1
        assert g.length[1, 0] == pytest.approx(0.49)

    def test_missing_ranks_point_to_boundary(self):
        g = build_boundary_graph([[0.3, 0.5]], NeighborSpec((1, 2)), Cube.unit(2))
        assert (g.neighbor_index == -1).all()
        assert np.allclose(g.length, 0.3)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_never_exceeds_plain_length(self, p):
        rng = np.random.default_rng(42)
        X = rng.random((300, 3))
        spec = NeighborSpec((1, 2))
        plain = l_p(build_nn_graph(X, spec), p)
        star = l_p(build_boundary_graph(X, spec, Cube.unit(3)), p)
        assert star <= plain

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_superadditivity(self, seed):
        """Blockwise boundary totals never exceed the whole-cube total."""
        rng = np.random.default_rng(seed)
        X = rng.random((150, 2))
        spec = NeighborSpec((1, 2))
        p = 1.0
        whole = l_p(build_boundary_graph(X, spec, Cube.unit(2)), p)
        m = 2
        total = 0.0
        for i in range(m):
            for j in range(m):
                lo = np.array([i / m, j / m])
                inside = np.all((X >= lo) & (X < lo + 1.0 / m), axis=1)
                if not inside.any():
                    continue
                total += l_p(build_boundary_graph(X[inside], spec, Cube(lo, 1.0 / m)), p)
        assert total <= whole

    def test_point_outside_cube_rejected(self):
        with pytest.raises(OutsideCubeError):
            build_boundary_graph([[1.5, 0.5], [0.5, 0.5]], NeighborSpec((1,)), Cube.unit(2))

    def test_cube_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            build_boundary_graph([[0.5, 0.5]], NeighborSpec((1,)), Cube.unit(3))
