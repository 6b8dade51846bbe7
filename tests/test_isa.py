"""Whitening, fixed-point ICA, block grouping, and the separation score."""

import math

import numpy as np
import pytest

import nnentropy.graph
import nnentropy.isa
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
from nnentropy.experiments import PAPER_SCALE_ISA, IsaExperimentConfig, run_isa_experiment
from nnentropy.isa import _greedy_blocks, _swap_refine
from nnentropy.points import _times_transpose

FIXED = EstimatorSettings(alpha=0.7, gamma=1.0)
# Paper-scale blocks at seeds 0-4, as the row-overlap stopping rule found them.
PAPER_BLOCKS = [
    ((0, 7, 16), (1, 10, 12), (2, 3, 6), (4, 14, 15), (5, 8, 13), (9, 11, 17)),
    ((0, 13, 14), (1, 2, 16), (3, 5, 15), (4, 6, 9), (7, 8, 11), (10, 12, 17)),
    ((0, 1, 2), (3, 15, 17), (4, 7, 11), (5, 13, 16), (6, 12, 14), (8, 9, 10)),
    ((0, 7, 16), (1, 2, 4), (3, 13, 15), (5, 9, 14), (6, 10, 17), (8, 11, 12)),
    ((0, 6, 11), (1, 2, 5), (3, 7, 13), (4, 8, 15), (9, 16, 17), (10, 12, 14)),
]


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


def _planted_components(d, m, seed, n=200, noise=0.4):
    """m weakly planted blocks of d columns, each column one block factor plus
    noise; the columns are shuffled. Returns the sample and the planted blocks."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(m):
        factor = rng.random(n)
        cols += [factor + noise * rng.standard_normal(n) for _ in range(d)]
    perm = rng.permutation(d * m)
    planted = tuple(tuple(k for k in range(d * m) if perm[k] // d == b) for b in range(m))
    return np.column_stack(cols)[:, perm], tuple(sorted(planted))


def _six_shapes(seed):
    """ISA of the six paper shapes in 3-D at n = 200, where the swap search
    changes greedy's grouping on every seed."""
    config = IsaExperimentConfig(shapes=PAPER_SCALE_ISA.shapes, subspace_dim=3, n=200)
    return run_isa_experiment(config, seed=seed).solution


def _count_searches(monkeypatch):
    """Record each neighbor search (one ``knn_all`` call per scored block)."""
    calls = []
    knn_all = nnentropy.graph.knn_all

    def counted(*args, **kwargs):
        calls.append(1)
        return knn_all(*args, **kwargs)

    monkeypatch.setattr(nnentropy.graph, "knn_all", counted)
    return calls


class TestWhiten:
    def test_output_is_white(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 3)) @ np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 0.2]])
        white, matrix = whiten(X, n_components=3)
        assert matrix.shape == (3, 3)
        assert np.allclose(white.points.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.cov(white.points.T), np.eye(3), atol=1e-8)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 2))
        assert np.allclose(whiten(X, 2)[0].points, whiten(3.0 * X, 2)[0].points, atol=1e-9)

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
            whiten(np.column_stack([u, 2.0 * u]), n_components=2)

    def test_needs_two_points(self):
        with pytest.raises(DegenerateSampleError):
            whiten(np.zeros((1, 2)), n_components=2)

    @pytest.mark.parametrize("keep", [0, 4])
    def test_component_count_bounds(self, keep):
        with pytest.raises(ValueError, match="n_components"):
            whiten(np.random.default_rng(4).random((30, 3)), n_components=keep)


class TestFastica:
    def test_recovers_independent_uniforms(self):
        rng = np.random.default_rng(5)
        S = (rng.random((3000, 2)) - 0.5) * np.sqrt(12.0)
        white, w_white = whiten(S, n_components=2)
        result = fastica(white, seed=0)
        assert result.converged
        assert result.warnings == ()
        # overall map from the original sources should be a signed permutation
        assert amari_block_index(result.w @ w_white, 1, 2) < 0.05

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(6)
        white, _ = whiten(rng.random((500, 3)), n_components=3)
        w = fastica(white, seed=1).w
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-8)

    def test_iteration_cap_warns(self, monkeypatch):
        monkeypatch.setattr(nnentropy.isa, "_MAX_ITER", 1)
        rng = np.random.default_rng(7)
        white, _ = whiten(rng.random((300, 2)), n_components=2)
        result = fastica(white, seed=0)
        assert not result.converged
        assert result.iterations == 1
        assert "did not converge" in result.warnings[0]

    def test_rotating_block_stops_on_contrast(self, monkeypatch):
        """Points on a circle are one dependent block of two components: its
        contrast is the same at every rotation, so the rows drift with the
        sample's noise (the row-overlap rule took 115 iterations here). The
        contrast stops the iteration while one more step still turns the
        rows by more than that rule allowed."""
        rng = np.random.default_rng(3)
        t = 2.0 * np.pi * rng.random(2000)
        S = np.column_stack([np.cos(t), np.sin(t)]) + 0.1 * rng.standard_normal((2000, 2))
        white, _ = whiten(S, n_components=2)
        result = fastica(white, seed=0)
        assert result.converged and result.warnings == ()
        assert result.iterations < 20
        monkeypatch.setattr(nnentropy.isa, "_MAX_ITER", result.iterations + 1)
        monkeypatch.setattr(nnentropy.isa, "_CONTRAST_STEPS", result.iterations + 2)
        turned = fastica(white, seed=0).w
        assert np.max(1.0 - np.abs((turned * result.w).sum(axis=1))) > 1e-6

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(8)
        white, _ = whiten(rng.random((300, 2)), n_components=2)
        assert np.array_equal(fastica(white, seed=3).w, fastica(white, seed=3).w)


def test_times_transpose_matches_matmul():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2000, 18)), rng.standard_normal((18, 18))
    for x, y in ((a, b), (a.T, a.T)):
        expected = x @ y.T
        assert np.max(np.abs(_times_transpose(x, y) - expected)) <= 1e-12 * np.max(np.abs(expected))


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


class TestCopulaSlices:
    """Pairs and blocks are scored on column slices of one copula of the
    components; the values equal renyi_mi on the raw columns, bitwise."""

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_pairwise_matrix_equals_per_pair_mi(self, decimals):
        X = _blocky_components(n=300)
        if decimals is not None:
            X = np.round(X, decimals)
        m = pairwise_mi_matrix(X, FIXED)
        for i in range(4):
            for j in range(i + 1, 4):
                assert m[i, j] == renyi_mi(X[:, [i, j]], FIXED).value

    @pytest.mark.parametrize("gamma", [1.0, "analytic"])
    def test_objective_equals_per_block_mi(self, gamma):
        rng = np.random.default_rng(15)
        a, b = rng.random((2, 400))
        X = np.column_stack([a, b, a + 0.1 * rng.random(400), np.round(b, 1), a * b, rng.random(400)])
        settings = EstimatorSettings(alpha=0.7, gamma=gamma)
        sol = group_components(X, 3, 2, settings)
        expected = math.fsum(renyi_mi(X[:, list(block)], settings).value for block in sol.blocks)
        assert sol.objective == expected


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

    @pytest.mark.parametrize("d, m, seed", [(2, 3, 7), (3, 2, 2), (2, 2, 2)])
    def test_swaps_move_greedy_blocks_onto_planted_ones(self, d, m, seed):
        X, planted = _planted_components(d, m, seed)
        greedy = _greedy_blocks(pairwise_mi_matrix(X, FIXED), d, m)
        assert tuple(sorted(map(tuple, greedy))) != planted
        sol = group_components(X, d, m, FIXED)
        assert sol.blocks == planted
        assert sol.objective > math.fsum(renyi_mi(X[:, b], FIXED).value for b in greedy)

    def test_pairs_are_searched_once(self, monkeypatch):
        """At subspace_dim 2 every block is a pair, read from the pairwise
        matrix: q(q - 1)/2 neighbor searches in all."""
        calls = _count_searches(monkeypatch)
        X, planted = _planted_components(2, 3, 0, noise=0.1)
        assert group_components(X, 2, 3, FIXED).blocks == planted
        assert len(calls) == 15

    @pytest.mark.parametrize("seed", [0, 1])
    def test_screened_swaps_are_not_searched(self, monkeypatch, seed):
        """On strongly planted 3-blocks every cross-block swap is screened:
        the 36 pairs and the 3 final blocks are searched, and no swap."""
        calls = _count_searches(monkeypatch)
        X, planted = _planted_components(3, 3, seed, noise=0.1)
        assert group_components(X, 3, 3, FIXED).blocks == planted
        assert len(calls) == 39

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: _six_shapes(3),
            lambda: _six_shapes(1),
            lambda: group_components(_planted_components(3, 2, 10)[0], 3, 2, FIXED),
        ],
        ids=["six-shapes-seed3", "six-shapes-seed1", "planted-d3-m2-seed10"],
    )
    def test_screen_keeps_bytes(self, monkeypatch, solve):
        """Inputs where accepted swaps lower the pairwise sum (by up to 0.43
        nat): scoring every swap gives the same grouping, to the bit."""
        shipped = solve()
        monkeypatch.setattr(nnentropy.isa, "_SWAP_SCREEN", math.inf)
        scored = solve()
        assert shipped.blocks == scored.blocks
        assert shipped.objective.hex() == scored.objective.hex()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="5 components cannot be grouped into 2 blocks of 2"):
            group_components(np.random.default_rng(11).random((40, 5)), 2, 2, FIXED)


class TestSwapRefine:
    # Pairwise matrix of two 3-blocks {0, 1, 2} and {3, 4, 5}: a strong pair
    # and two weak links in each.
    MATRIX = np.array(
        [
            [0.0, 0.8, 0.1, 0.0, 0.0, 0.0],
            [0.8, 0.0, 0.1, 0.0, 0.0, 0.0],
            [0.1, 0.1, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.8, 0.1],
            [0.0, 0.0, 0.0, 0.8, 0.0, 0.1],
            [0.0, 0.0, 0.0, 0.1, 0.1, 0.0],
        ]
    )
    # Block scores: the starting blocks and the blocks of swapping 2 with 5.
    SCORES = {
        frozenset((0, 1, 2)): 1.0,
        frozenset((3, 4, 5)): 1.0,
        frozenset((0, 1, 5)): 1.5,
        frozenset((2, 3, 4)): 1.5,
    }

    def _refine(self):
        seen = []

        def block_mi(block):
            seen.append(frozenset(block))
            return self.SCORES.get(frozenset(block), 0.0)

        blocks = _swap_refine([[0, 1, 2], [3, 4, 5]], self.MATRIX, block_mi)
        return blocks, seen

    def test_screened_swap_is_not_scored(self, monkeypatch):
        # Swapping 0 with 3 breaks both strong pairs: pw = -1.8. Without the
        # screen its blocks are scored.
        screened = {frozenset((1, 2, 3)), frozenset((0, 4, 5))}
        assert not screened & set(self._refine()[1])
        monkeypatch.setattr(nnentropy.isa, "_SWAP_SCREEN", math.inf)
        assert screened <= set(self._refine()[1])

    def test_improving_swap_below_zero_is_accepted(self):
        # Swapping 2 with 5 breaks four weak links: pw = -0.4, yet it raises
        # the objective from 2.0 to 3.0.
        blocks, seen = self._refine()
        assert frozenset((0, 1, 5)) in seen
        assert blocks == [[0, 1, 5], [2, 3, 4]]


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

    @pytest.mark.parametrize("seed, blocks", enumerate(PAPER_BLOCKS))
    def test_paper_scale_converges(self, seed, blocks):
        """The row-overlap rule ran seeds 0, 3 and 4 to the 500-iteration cap
        and warned; the contrast stops every seed with the same blocks."""
        solution = run_isa_experiment(PAPER_SCALE_ISA, seed=seed).solution
        assert solution.converged and solution.warnings == ()
        assert solution.blocks == blocks

    def test_deterministic(self):
        S = np.random.default_rng(19).random((400, 2))
        problem = IsaProblem(S, 1, 2)
        a = run_isa(problem, FIXED, seed=1)
        b = run_isa(problem, FIXED, seed=1)
        assert np.array_equal(a.separation, b.separation)
        assert a.blocks == b.blocks and a.objective == b.objective
