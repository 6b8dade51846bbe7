"""Entropy/MI estimators: copula transform, gamma resolution, baselines."""

import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnentropy import (
    DegenerateSampleError,
    EstimateReport,
    EstimatorSettings,
    GammaCache,
    GammaKey,
    HistogramInfeasibleError,
    InsufficientPointsError,
    NeighborSpec,
    RateExperimentConfig,
    UniformCube,
    boundary_coefficient,
    empirical_copula,
    estimate_gamma,
    estimators,
    gamma_analytic,
    group_components,
    histogram_entropy,
    histogram_mi,
    pairwise_mi_matrix,
    renyi_entropy,
    renyi_mi,
    run_rate_experiment,
)

from .oracles import copula_ranks


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

    def test_edge_cases_match_binary_search(self):
        X = np.array([[0.0, 2.0, 7.0], [-0.0, 2.0, 1.0], [1.0, 2.0, 7.0], [-0.0, 2.0, 7.0]])
        out = empirical_copula(X).points
        assert out.tolist() == [[0.75, 1.0, 1.0], [0.75, 1.0, 0.25], [1.0, 1.0, 1.0], [0.75, 1.0, 1.0]]
        assert out.tobytes() == copula_ranks(X).tobytes()
        assert empirical_copula([[3.5, -0.0]]).points.tolist() == [[1.0, 1.0]]

    @given(data=st.data())
    def test_matches_binary_search(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        piles = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300])
        values = st.one_of(piles, st.floats(-1e6, 1e6))
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=values), label="X")
        if data.draw(st.booleans(), label="constant last column"):
            X[:, -1] = X[0, -1]
        assert empirical_copula(X).points.tobytes() == copula_ranks(X).tobytes()


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


@pytest.mark.parametrize(
    "estimate",
    [
        lambda X: renyi_entropy(X, EstimatorSettings(alpha=0.6, gamma=1.5)),
        lambda X: renyi_mi(X[:, :2], EstimatorSettings(alpha=0.3)),
        lambda X: histogram_entropy(X, 0.7),
    ],
    ids=["renyi_entropy", "renyi_mi-with-warnings", "histogram_entropy"],
)
def test_report_dict_is_its_fields_in_order(estimate):
    report = estimate(np.random.default_rng(3).random((200, 3)))
    record = report.to_dict()
    names = [f.name for f in fields(EstimateReport)]
    assert list(record) == ["S" if name == "spec" else name for name in names]
    for name, value in zip(names, record.values()):
        field = getattr(report, name)
        assert value == (list(field) if isinstance(field, tuple) else field)
    assert record["S"] is None or isinstance(record["S"], list)
    assert isinstance(record["warnings"], list)
    assert json.loads(json.dumps(record)) == record


class TestOutOfRangeEstimates:
    """An estimate whose L_p, or L_p / (gamma n^(1-p/d)), is not a positive
    finite float raises instead of reporting an infinity (or failing in
    math.log)."""

    def test_overflowing_edge_powers(self):
        X = np.random.default_rng(0).random((500, 3)) * 1e150
        with pytest.raises(DegenerateSampleError, match="L_p at p = 2.85 overflows float64"):
            renyi_entropy(X, EstimatorSettings(alpha=0.05))

    @pytest.mark.parametrize("gamma, ratio", [(1e-308, "inf"), (1e308, "0.0")])
    @pytest.mark.parametrize("estimate", [renyi_entropy, renyi_mi])
    def test_gamma_at_the_float64_limits(self, estimate, gamma, ratio):
        X = np.random.default_rng(0).random((500, 3))
        message = rf"estimate out of float64 range: L_p / \(gamma n\^\(1-p/d\)\) = {ratio} with"
        with pytest.raises(DegenerateSampleError, match=message):
            estimate(X, EstimatorSettings(alpha=0.7, gamma=gamma))


def _rank_set_boundary(d, p, spec):
    """``b_S``: the single-rank boundary coefficients weighted by their limit constants."""
    terms = [gamma_analytic(d, p, k) for k in spec]
    weighted = math.fsum(g * boundary_coefficient(d, p, k) for g, k in zip(terms, spec))
    return weighted / math.fsum(terms)


class TestGammaResolution:
    def test_explicit_number_wins(self):
        rng = np.random.default_rng(4)
        X = rng.random((150, 2))
        report = renyi_entropy(X, EstimatorSettings(alpha=0.6, gamma=3.0))
        assert report.gamma == 3.0
        assert report.gamma_source == "given"
        assert "gamma_std_error" not in report.to_dict()

    def test_estimate_object_is_rejected_and_its_mean_used_as_given(self):
        est = estimate_gamma(GammaKey(d=2, p=0.8, spec=(1, 2, 3), n_cal=2000, reps=3))
        with pytest.raises(ValueError, match="^gamma must be a number"):
            EstimatorSettings(alpha=0.6, gamma=est)
        rng = np.random.default_rng(4)
        report = renyi_entropy(rng.random((150, 2)), EstimatorSettings(alpha=0.6, gamma=est.mean))
        assert report.gamma == est.mean
        assert report.gamma_source == "given"

    def test_analytic_single_rank(self):
        rng = np.random.default_rng(4)
        report = renyi_entropy(
            rng.random((150, 2)), EstimatorSettings(alpha=0.6, spec=(2,), gamma="analytic")
        )
        assert report.gamma_source == "analytic"
        assert report.gamma > 0.0

    def test_analytic_multi_rank_is_sum_of_single_ranks(self):
        """The rank-set constant is the sum of its single-rank closed forms.

        The unit-cube Monte Carlo at n_cal = 20k exceeds that limit by the
        boundary factor ``1 + b_S n_cal^(-1/d)``; with the factor applied
        the two agree to 0.5% (0.17% at worst on these keys).
        """
        rng = np.random.default_rng(4)
        for d, spec in ((3, (1, 2, 3)), (3, (1, 3)), (2, (1, 2, 3))):
            settings = EstimatorSettings(alpha=0.7, spec=spec, gamma="analytic")
            report = renyi_entropy(rng.random((150, d)), settings)
            assert report.gamma_source == "analytic"
            terms = [gamma_analytic(d, report.p, k) for k in spec]
            assert report.gamma == math.fsum(terms)
            b = _rank_set_boundary(d, report.p, spec)
            est = estimate_gamma(GammaKey(d=d, p=report.p, spec=spec, n_cal=20_000, reps=3))
            predicted = report.gamma * (1.0 + b * 20_000 ** (-1.0 / d))
            assert predicted == pytest.approx(est.mean, rel=0.005)

    def test_default_entropy_uses_the_limit(self, tmp_path):
        """Without ``gamma`` entropy takes the limit; a cache changes nothing."""
        X = np.random.default_rng(4).random((150, 2))
        analytic = renyi_entropy(X, EstimatorSettings(alpha=0.6, gamma="analytic"))
        cache = GammaCache(tmp_path / "g.jsonl")
        for settings in (
            EstimatorSettings(alpha=0.6),
            EstimatorSettings(alpha=0.6, cache=cache),
        ):
            report = renyi_entropy(X, settings)
            assert report == analytic
            assert report.gamma_source == "analytic"
        assert not cache.path.exists()

    def test_default_mi_uses_the_boundary_factor_at_its_own_n(self, tmp_path):
        """MI's default constant is the limit times ``1 + b_S n^(-1/d)`` at the sample's n."""
        cache = GammaCache(tmp_path / "g.jsonl")
        for n, d in ((150, 2), (400, 3)):
            X = np.random.default_rng(n).random((n, d))
            limit = renyi_mi(X, EstimatorSettings(alpha=0.7, gamma="analytic"))
            assert limit.gamma_source == "analytic"
            report = renyi_mi(X, EstimatorSettings(alpha=0.7))
            ignored = EstimatorSettings(alpha=0.7, cache=cache)
            assert report == renyi_mi(X, ignored)
            assert report.gamma_source == "boundary"
            b = _rank_set_boundary(d, report.p, report.spec)
            predicted = limit.gamma * (1.0 + b * n ** (-1.0 / d))
            assert report.gamma == pytest.approx(predicted, rel=1e-14)
            assert report.value == -renyi_entropy(
                empirical_copula(X), EstimatorSettings(alpha=0.7, gamma=report.gamma)
            ).value
        assert not cache.path.exists()


class TestRenyiMI:
    def test_low_dimension_warning(self):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 2)), EstimatorSettings(alpha=0.7))
        assert any("d >= 3" in w for w in report.warnings)

    def test_alpha_outside_guarantee_warns(self):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 3)), EstimatorSettings(alpha=0.4))
        assert any("alpha" in w for w in report.warnings)

    def test_no_warning_inside_guarantee(self):
        rng = np.random.default_rng(5)
        report = renyi_mi(rng.random((200, 3)), EstimatorSettings(alpha=0.7))
        assert report.warnings == ()

    def test_kind_and_sign_convention(self):
        rng = np.random.default_rng(6)
        X = rng.random((500, 3))
        settings = EstimatorSettings(alpha=0.7, gamma="analytic")
        mi = renyi_mi(X, settings)
        ent = renyi_entropy(empirical_copula(X).points, settings)
        assert mi.kind == "mutual_information"
        assert mi.value == -ent.value
        assert replace(mi, value=-mi.value, kind="entropy", warnings=()) == ent

    def test_duplicated_coordinate_has_large_mi(self):
        rng = np.random.default_rng(7)
        x = rng.random(800)
        X = np.column_stack([x, x, rng.random(800)])
        report = renyi_mi(X, EstimatorSettings(alpha=0.7))
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

    def test_every_graph_mi_comes_from_one_function(self, monkeypatch):
        # renyi_mi, the rate study's estimator rows and the ISA's pair and
        # block scores all turn a copula's graph into MI in one place.
        real, marker = estimators._copula_mi, 7.25

        def marked(*args, **kwargs):
            return replace(real(*args, **kwargs), value=marker)

        monkeypatch.setattr(estimators, "_copula_mi", marked)
        rng = np.random.default_rng(12)
        settings = EstimatorSettings(alpha=0.7)
        assert renyi_mi(rng.random((200, 3)), settings).value == marker
        config = RateExperimentConfig(UniformCube(3), 0.5, n_grid=(60,), runs=1, histogram=False)
        rows = [r for r in run_rate_experiment(config).rows if r.run is not None]
        assert [r.estimator for r in rows] == ["kth", "knn"]
        assert all(r.abs_error == marker - 0.5 for r in rows)
        assert (pairwise_mi_matrix(rng.random((100, 3)), settings)[[0, 0, 1], [1, 2, 2]] == marker).all()
        assert group_components(rng.random((100, 6)), 3, 2, settings).objective == 2 * marker


@pytest.mark.parametrize(
    "estimate",
    [
        lambda X: renyi_entropy(X, EstimatorSettings(alpha=0.7)),
        lambda X: renyi_mi(X, EstimatorSettings(alpha=0.7)),
        lambda X: histogram_entropy(X, 0.7),
        lambda X: histogram_mi(X, 0.7),
    ],
    ids=["renyi_entropy", "renyi_mi", "histogram_entropy", "histogram_mi"],
)
def test_constant_column_is_degenerate(estimate):
    """A constant column has no density. The graph estimates used to return
    finite values (-2.99 and 3.12 here), and the histogram's spread test
    missed a column of 0.1, whose column-wise standard deviation rounds above
    zero, and returned -inf."""
    X = np.random.default_rng(11).random((500, 3))
    X[:, 2] = 0.1
    with pytest.raises(DegenerateSampleError, match="coordinate 2 has zero spread"):
        estimate(X)


def test_signed_zero_column_is_degenerate():
    # renyi_mi checks the spread of the copula, where -0.0 and 0.0 share a
    # rank, as they are one value of the sample.
    X = np.random.default_rng(11).random((500, 3))
    X[:, 1] = np.where(np.arange(500) % 2, 0.0, -0.0)
    with pytest.raises(DegenerateSampleError, match="coordinate 1 has zero spread"):
        renyi_mi(X, EstimatorSettings(alpha=0.7))


def test_too_few_points_come_before_zero_spread():
    X = np.random.default_rng(11).random((3, 3))
    X[:, 2] = 0.1
    with pytest.raises(InsufficientPointsError):
        renyi_mi(X, EstimatorSettings(alpha=0.7))


def test_mi_holds_no_raw_copy_during_the_search():
    # A rounded Gaussian sample: 98% of its rows are tied or piled. With the
    # sample's own copy held through the copula's search, and each
    # 16,384-point slice settled at once, this peaked at 17.2 MiB traced;
    # without the copy, and in chunks of 4,096 points, at 13.2 MiB.
    X = np.round(np.random.default_rng(0).standard_normal((100_000, 3)), 1)
    settings = EstimatorSettings(alpha=0.7)
    tracemalloc.start()
    try:
        renyi_mi(X, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20


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
