"""Entropy/MI estimators: copula transform, gamma resolution, baselines."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnentropy import (
    DegenerateSampleError,
    EstimatorSettings,
    GammaCache,
    GammaKey,
    HistogramInfeasibleError,
    InsufficientPointsError,
    NeighborSpec,
    RateExperimentConfig,
    UniformCube,
    empirical_copula,
    estimate_gamma,
    gamma_analytic,
    histogram_entropy,
    histogram_mi,
    renyi_entropy,
    renyi_mi,
    resolve_settings,
)

from .conftest import FAST_N_CAL, FAST_REPS


class TestEstimatorSettings:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, -0.5])
    def test_alpha_must_be_interior(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            EstimatorSettings(alpha=alpha)

    def test_power_derivation(self):
        assert EstimatorSettings(alpha=0.7).p(3) == pytest.approx(0.9)

    def test_gamma_string_must_be_analytic(self):
        with pytest.raises(ValueError, match="analytic"):
            EstimatorSettings(alpha=0.5, gamma="magic")

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, True])
    def test_explicit_gamma_must_be_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            EstimatorSettings(alpha=0.5, gamma=gamma)

    def test_cache_must_be_a_gamma_cache(self, tmp_path):
        cache = GammaCache(tmp_path / "g.jsonl")
        assert EstimatorSettings(alpha=0.5, cache=cache).cache is cache
        for path in (tmp_path / "g.jsonl", str(tmp_path / "g.jsonl")):
            with pytest.raises(ValueError, match="^cache must be a GammaCache or None"):
                EstimatorSettings(alpha=0.5, cache=path)

    @pytest.mark.parametrize("workers", [0, -2, 1.0, True])
    def test_workers_must_be_minus_one_or_positive(self, workers):
        with pytest.raises(ValueError, match=r"^workers \(or -1 for all cores\) must be an integer"):
            EstimatorSettings(alpha=0.7, workers=workers)

    def test_workers_is_coerced(self):
        for workers in (-1, 1, np.int64(2)):
            settings = EstimatorSettings(alpha=0.7, workers=workers)
            assert settings.workers == workers and type(settings.workers) is int

    def test_spec_is_coerced(self):
        assert EstimatorSettings(alpha=0.5, spec=[2, 1]).spec == NeighborSpec((1, 2))
        with pytest.raises(ValueError, match="^neighbor rank must be an integer"):
            EstimatorSettings(alpha=0.5, spec="2,1")


class TestEmpiricalCopula:
    def test_one_dimensional_ranks(self):
        out = empirical_copula([[0.5], [-1.2], [3.3]])
        assert out.points[:, 0].tolist() == [2 / 3, 1 / 3, 1.0]

    def test_ties_share_the_upper_rank(self):
        out = empirical_copula([[1.0], [1.0], [2.0]])
        assert out.points[:, 0].tolist() == [2 / 3, 2 / 3, 1.0]

    def test_tie_free_marginals_are_exact_grids(self):
        rng = np.random.default_rng(0)
        n = 128
        out = empirical_copula(rng.standard_normal((n, 3)))
        expected = np.arange(1, n + 1) / n
        for j in range(3):
            assert np.array_equal(np.sort(out.points[:, j]), expected)

    def test_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 3))
        Y = np.column_stack([np.exp(X[:, 0]), X[:, 1] ** 3, 2.0 * X[:, 2] - 7.0])
        assert np.array_equal(empirical_copula(X).points, empirical_copula(Y).points)


class TestRenyiEntropy:
    def test_shift_and_scale_law_is_exact(self):
        rng = np.random.default_rng(2)
        X = rng.random((400, 3))
        settings = EstimatorSettings(alpha=0.7, gamma=1.0)
        base = renyi_entropy(X, settings).value
        moved = renyi_entropy(2.0 * X + 5.0, settings).value
        assert moved - base == pytest.approx(3.0 * math.log(2.0), abs=1e-10)

    @given(st.floats(0.2, 5.0), st.floats(-10.0, 10.0))
    def test_shift_scale_law_property(self, a, b):
        rng = np.random.default_rng(7)
        X = rng.random((80, 2))
        settings = EstimatorSettings(alpha=0.6, gamma=2.0)
        base = renyi_entropy(X, settings).value
        moved = renyi_entropy(a * X + b, settings).value
        assert moved - base == pytest.approx(2.0 * math.log(a), abs=1e-8)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            renyi_entropy(np.zeros((3, 2)), EstimatorSettings(alpha=0.5, gamma=1.0))

    def test_coincident_points_are_degenerate(self):
        X = np.tile([[0.25, 0.75]], (10, 1))
        with pytest.raises(DegenerateSampleError):
            renyi_entropy(X, EstimatorSettings(alpha=0.5, spec=(1,), gamma=1.0))

    def test_report_carries_settings(self):
        rng = np.random.default_rng(3)
        report = renyi_entropy(rng.random((100, 2)), EstimatorSettings(alpha=0.6, gamma=1.5))
        assert report.kind == "entropy"
        assert (report.n, report.d) == (100, 2)
        assert report.alpha == 0.6
        assert report.p == pytest.approx(0.8)
        assert report.spec == (1, 2, 3)
        assert (report.gamma, report.gamma_source) == (1.5, "given")
        d = report.to_dict()
        assert d["S"] == [1, 2, 3]
        assert d["warnings"] == []


class TestGammaResolution:
    def test_explicit_number_wins(self):
        rng = np.random.default_rng(4)
        X = rng.random((150, 2))
        report = renyi_entropy(X, EstimatorSettings(alpha=0.6, gamma=3.0))
        assert report.gamma == 3.0
        assert report.gamma_source == "given"
        assert report.gamma_std_error is None

    def test_estimate_object_is_rejected_and_its_mean_used_as_given(self):
        est = estimate_gamma(GammaKey(d=2, p=0.8, spec=(1, 2, 3), n_cal=2000, reps=3))
        with pytest.raises(ValueError, match="^gamma must be a number"):
            EstimatorSettings(alpha=0.6, gamma=est)
        rng = np.random.default_rng(4)
        report = renyi_entropy(rng.random((150, 2)), EstimatorSettings(alpha=0.6, gamma=est.mean))
        assert report.gamma == est.mean
        assert report.gamma_source == "given"
        assert report.gamma_std_error is None

    def test_analytic_single_rank(self):
        rng = np.random.default_rng(4)
        report = renyi_entropy(
            rng.random((150, 2)), EstimatorSettings(alpha=0.6, spec=(2,), gamma="analytic")
        )
        assert report.gamma_source == "analytic"
        assert report.gamma > 0.0

    def test_analytic_multi_rank_is_sum_of_single_ranks(self):
        """The rank-set constant is the sum of its single-rank closed forms.

        The unit-cube Monte Carlo exceeds the limit by a boundary term, up
        to +1.2% on these keys at n_cal = 20k, so agreement is asserted to
        2.5%.
        """
        rng = np.random.default_rng(4)
        for d, spec in ((3, (1, 2, 3)), (3, (1, 3)), (2, (1, 2, 3))):
            settings = EstimatorSettings(alpha=0.7, spec=spec, gamma="analytic")
            report = renyi_entropy(rng.random((150, d)), settings)
            assert report.gamma_source == "analytic"
            assert report.gamma == math.fsum(gamma_analytic(d, report.p, k) for k in spec)
            est = estimate_gamma(GammaKey(d=d, p=report.p, spec=spec, n_cal=20_000, reps=3))
            assert report.gamma == pytest.approx(est.mean, rel=0.025)

    def test_cache_miss_then_hit(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.random((150, 2))
        kwargs = dict(alpha=0.6, cache=GammaCache(tmp_path / "g.jsonl"), n_cal=2000, reps=2)
        first = renyi_entropy(X, EstimatorSettings(**kwargs))
        second = renyi_entropy(X, EstimatorSettings(**kwargs))
        assert first.gamma_source == "calibrated"
        assert second.gamma_source == "cache"
        assert second.gamma == first.gamma
        assert second.value == first.value

    def test_on_the_fly_calibration(self):
        rng = np.random.default_rng(4)
        report = renyi_entropy(
            rng.random((150, 2)), EstimatorSettings(alpha=0.6, n_cal=2000, reps=2)
        )
        assert report.gamma_source == "calibrated"
        assert report.gamma_std_error > 0.0

    def test_resolve_settings_freezes_gamma(self, gamma_cache):
        settings = EstimatorSettings(alpha=0.6, cache=gamma_cache, n_cal=FAST_N_CAL, reps=FAST_REPS)
        frozen = resolve_settings(settings, 2)
        assert isinstance(frozen.gamma, float)
        assert resolve_settings(frozen, 2) is frozen
        rng = np.random.default_rng(4)
        report = renyi_entropy(rng.random((150, 2)), frozen)
        assert report.gamma_source == "given"


class TestRenyiMI:
    def test_low_dimension_warning(self, fast_settings):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 2)), fast_settings(0.7))
        assert any("d >= 3" in w for w in report.warnings)

    def test_alpha_outside_guarantee_warns(self, fast_settings):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 3)), fast_settings(0.4))
        assert any("alpha" in w for w in report.warnings)

    def test_no_warning_inside_guarantee(self, fast_settings):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 3)), fast_settings(0.7))
        assert report.warnings == ()

    def test_kind_and_sign_convention(self, fast_settings):
        rng = np.random.default_rng(6)
        X = rng.random((500, 3))
        settings = fast_settings(0.7)
        mi = renyi_mi(X, settings)
        ent = renyi_entropy(empirical_copula(X).points, settings)
        assert mi.kind == "mutual_information"
        assert mi.value == -ent.value

    def test_duplicated_coordinate_has_large_mi(self, fast_settings):
        rng = np.random.default_rng(7)
        x = rng.random(800)
        X = np.column_stack([x, x, rng.random(800)])
        report = renyi_mi(X, fast_settings(0.7))
        assert report.value > 1.0

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda X: renyi_mi(X, EstimatorSettings(alpha=0.7, gamma="analytic")),
            lambda X: histogram_mi(X, 0.7),
            lambda X: RateExperimentConfig(UniformCube(1), 0.0),
        ],
        ids=["renyi_mi", "histogram_mi", "rate-config"],
    )
    def test_single_coordinate_is_rejected(self, estimate):
        """MI needs two coordinates; one column used to give a nonzero constant."""
        with pytest.raises(ValueError, match="d >= 2"):
            estimate(np.random.default_rng(9).random((50, 1)))

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((300, 3))
        Y = np.column_stack([np.expm1(X[:, 0]), 0.2 * X[:, 1] + 9.0, X[:, 2] ** 3])
        settings = EstimatorSettings(alpha=0.7, gamma=1.0)
        assert renyi_mi(X, settings).value == renyi_mi(Y, settings).value


class TestHistogramEstimators:
    def test_uniform_line_is_near_zero(self):
        rng = np.random.default_rng(9)
        report = histogram_entropy(rng.random((10_000, 1)), 0.7)
        assert abs(report.value) < 0.05
        assert report.kind == "histogram_entropy"
        assert report.spec is None and report.gamma is None

    def test_constant_coordinate_is_degenerate(self):
        X = np.column_stack([np.full(100, 0.5), np.linspace(0, 1, 100)])
        with pytest.raises(DegenerateSampleError, match="zero spread"):
            histogram_entropy(X, 0.7)

    def test_high_dimension_is_infeasible(self):
        rng = np.random.default_rng(10)
        with pytest.raises(HistogramInfeasibleError, match="infeasible"):
            histogram_entropy(rng.standard_normal((500, 20)), 0.7)

    def test_needs_two_points(self):
        with pytest.raises(DegenerateSampleError):
            histogram_entropy([[1.0]], 0.7)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError):
            histogram_entropy(np.random.default_rng(0).random((50, 1)), alpha)

    def test_histogram_mi_mirrors_copula_entropy(self):
        rng = np.random.default_rng(11)
        X = rng.random((2000, 3))
        mi = histogram_mi(X, 0.7)
        ent = histogram_entropy(empirical_copula(X).points, 0.7)
        assert mi.value == -ent.value
        assert mi.kind == "histogram_mi"
