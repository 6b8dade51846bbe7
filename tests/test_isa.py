"""Whitening, fixed-point ICA, block grouping, and the separation score."""

import numpy as np
import pytest

from nnentropy import (
    DegenerateSampleError,
    EstimatorSettings,
    IsaProblem,
    Product,
    Wireframe3D,
    amari_block_index,
    block_norm_matrix,
    fastica,
    group_components,
    mix,
    pairwise_mi_matrix,
    renyi_mi,
    run_isa,
    sample,
    whiten,
)

FIXED = EstimatorSettings(alpha=0.7, gamma=1.0)


def _blocky_components(n=500, seed=3, noise=0.03):
    """Four columns where {0, 2} share one factor and {1, 3} another."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(n), rng.random(n)
    cols = [
        a + noise * rng.standard_normal(n),
        b + noise * rng.standard_normal(n),
        a + noise * rng.standard_normal(n),
        b + noise * rng.standard_normal(n),
    ]
    return np.column_stack(cols)


class TestWhiten:
    def test_output_is_white(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 3)) @ np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 0.2]])
        white, matrix = whiten(X)
        assert matrix.shape == (3, 3)
        assert np.allclose(white.points.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.cov(white.points.T), np.eye(3), atol=1e-8)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 2))
        assert np.allclose(whiten(X)[0].points, whiten(3.0 * X)[0].points, atol=1e-9)

    def test_projection_keeps_leading_directions(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2000, 3)) * np.array([10.0, 1.0, 0.1])
        white, matrix = whiten(X, n_components=2)
        assert matrix.shape == (2, 3)
        assert white.d == 2
        assert np.allclose(np.cov(white.points.T), np.eye(2), atol=1e-8)
        # the dropped direction is the smallest-variance raw coordinate
        corr = np.corrcoef(np.column_stack([white.points, X[:, 2]]).T)
        assert np.all(np.abs(corr[:2, 2]) < 0.1)

    def test_singular_covariance(self):
        rng = np.random.default_rng(3)
        u = rng.random(50)
        with pytest.raises(DegenerateSampleError, match="singular"):
            whiten(np.column_stack([u, 2.0 * u]))

    def test_needs_two_points(self):
        with pytest.raises(DegenerateSampleError):
            whiten(np.zeros((1, 2)))

    @pytest.mark.parametrize("keep", [0, 4])
    def test_component_count_bounds(self, keep):
        with pytest.raises(ValueError, match="n_components"):
            whiten(np.random.default_rng(4).random((30, 3)), n_components=keep)


class TestFastica:
    def test_recovers_independent_uniforms(self):
        rng = np.random.default_rng(5)
        S = (rng.random((3000, 2)) - 0.5) * np.sqrt(12.0)
        white, w_white = whiten(S)
        result = fastica(white, seed=0)
        assert result.converged
        assert result.warnings == ()
        # overall map from the original sources should be a signed permutation
        assert amari_block_index(result.w @ w_white, 1, 2) < 0.05

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(6)
        white, _ = whiten(rng.random((500, 3)))
        w = fastica(white, seed=1).w
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-8)

    def test_iteration_cap_warns(self):
        rng = np.random.default_rng(7)
        white, _ = whiten(rng.random((300, 2)))
        result = fastica(white, seed=0, max_iter=1)
        assert not result.converged
        assert result.iterations == 1
        assert "did not converge" in result.warnings[0]

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(8)
        white, _ = whiten(rng.random((300, 2)))
        assert np.array_equal(fastica(white, seed=3).w, fastica(white, seed=3).w)


class TestPairwiseMiMatrix:
    def test_structure_and_block_signal(self):
        X = _blocky_components()
        m = pairwise_mi_matrix(X, FIXED)
        assert m.shape == (4, 4)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        # within-pair dependence beats cross-pair dependence
        assert m[0, 2] > m[0, 1]
        assert m[1, 3] > m[1, 2]


class TestGroupComponents:
    def test_recovers_planted_blocks(self):
        sol = group_components(_blocky_components(), 2, 2, FIXED)
        assert sol.blocks == ((0, 2), (1, 3))
        order = [c for b in sol.blocks for c in b]
        assert np.array_equal(sol.separation, np.eye(4)[order])

    def test_single_block(self):
        X = np.random.default_rng(9).random((60, 3))
        sol = group_components(X, 3, 1, FIXED)
        assert sol.blocks == ((0, 1, 2),)
        assert np.array_equal(sol.separation, np.eye(3))
        assert sol.objective == renyi_mi(X, FIXED).value

    def test_one_dimensional_blocks_are_singletons(self):
        sol = group_components(np.random.default_rng(10).random((60, 3)), 1, 3, FIXED)
        assert sol.blocks == ((0,), (1,), (2,))
        assert sol.objective == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="5 components cannot be grouped into 2 blocks of 2"):
            group_components(np.random.default_rng(11).random((40, 5)), 2, 2, FIXED)


class TestBlockNorms:
    def test_scalar_blocks_take_absolute_values(self):
        g = np.array([[3.0, -4.0], [0.0, 2.0]])
        assert np.array_equal(block_norm_matrix(g, 1, 2), np.abs(g))

    def test_frobenius_collapse(self):
        g = np.zeros((4, 4))
        g[:2, 2:] = [[3.0, 0.0], [0.0, 4.0]]
        g[2:, :2] = [[1.0, 0.0], [0.0, 1.0]]
        norms = block_norm_matrix(g, 2, 2)
        assert np.allclose(norms, [[0.0, 5.0], [np.sqrt(2.0), 0.0]])

    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            block_norm_matrix(np.eye(3), 2, 2)


class TestAmariBlockIndex:
    def test_block_permutation_scores_zero(self):
        rng = np.random.default_rng(12)
        g = np.zeros((4, 4))
        g[:2, 2:] = rng.standard_normal((2, 2)) + np.eye(2) * 3.0
        g[2:, :2] = rng.standard_normal((2, 2)) + np.eye(2) * 3.0
        assert amari_block_index(g, 2, 2) == 0.0

    def test_scaled_identity_scores_zero(self):
        assert amari_block_index(-2.5 * np.eye(6), 2, 3) == 0.0

    def test_flat_matrix_scores_one(self):
        assert amari_block_index(np.ones((6, 6)), 2, 3) == 1.0

    def test_small_perturbation_scores_small(self):
        rng = np.random.default_rng(13)
        g = np.kron(np.eye(3), np.ones((2, 2))) + 0.01 * rng.standard_normal((6, 6))
        assert 0.0 < amari_block_index(g, 2, 3) < 0.05

    def test_zero_block_row_rejected(self):
        g = np.eye(4)
        g[:2] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            amari_block_index(g, 2, 2)

    def test_needs_two_sources(self):
        with pytest.raises(ValueError, match="num_sources"):
            amari_block_index(np.eye(2), 2, 1)


class TestIsaProblem:
    def test_validation(self):
        obs = np.random.default_rng(14).random((30, 4))
        with pytest.raises(ValueError, match="subspace_dim"):
            IsaProblem(obs, 0, 2)
        with pytest.raises(ValueError, match="num_sources"):
            IsaProblem(obs, 2, 1)
        with pytest.raises(ValueError, match="need at least"):
            IsaProblem(obs, 2, 3)
        with pytest.raises(ValueError, match="true_mixing"):
            IsaProblem(obs, 2, 2, true_mixing=np.eye(3))


class TestRunIsa:
    def test_separates_scalar_sources(self):
        rng = np.random.default_rng(15)
        S = rng.random((1500, 2))
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        problem = IsaProblem(mix(S, A), 1, 2, true_mixing=A)
        sol = run_isa(problem, FIXED, seed=0)
        assert sol.blocks == ((0,), (1,))
        assert sol.warnings == ()
        assert sol.score is not None and sol.score < 0.05

    def test_separates_planar_sources(self):
        spec = Product((Wireframe3D("spiral", axes=(0, 1)), Wireframe3D("zigzag", axes=(0, 2))))
        sources = sample(spec, 1500, seed=16)
        A = np.random.default_rng(17).standard_normal((4, 4))
        problem = IsaProblem(mix(sources, A), 2, 2, true_mixing=A)
        sol = run_isa(problem, FIXED, seed=0)
        assert sol.score is not None and sol.score < 0.15
        assert sol.separation.shape == (4, 4)

    def test_score_absent_without_truth(self):
        S = np.random.default_rng(18).random((400, 2))
        sol = run_isa(IsaProblem(S, 1, 2), FIXED, seed=0)
        assert sol.score is None

    def test_deterministic(self):
        S = np.random.default_rng(19).random((400, 2))
        problem = IsaProblem(S, 1, 2)
        a = run_isa(problem, FIXED, seed=1)
        b = run_isa(problem, FIXED, seed=1)
        assert np.array_equal(a.separation, b.separation)
        assert a.blocks == b.blocks and a.objective == b.objective
