"""The graph constant: its closed forms, its Monte Carlo and the no-op cache handle."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nnentropy import (
    GammaCache,
    GammaEstimate,
    GammaKey,
    boundary_coefficient,
    estimate_gamma,
    gamma_analytic,
)
from nnentropy.calibration import _boundary_integral

from .oracles import boundary_coefficient_quad

FAST_KEY = GammaKey(d=2, p=1.0, spec=(1,), n_cal=4000, reps=3)


class TestGammaKey:
    def test_normalizes_fields(self):
        key = GammaKey(d=3, p=1.5, spec=[3, 1], n_cal=1000, reps=2)
        assert key.spec.indices == (1, 3)
        assert isinstance(key.d, int) and isinstance(key.n_cal, int)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, p=0.5, spec=(1,)),
            dict(d=True, p=0.5, spec=(1,)),
            dict(d=2, p=0.0, spec=(1,)),
            dict(d=2, p=2.0, spec=(1,)),
            dict(d=2, p=1.0, spec=(1,), n_cal=1),
            dict(d=2, p=1.0, spec=(1,), reps=0),
            dict(d=2, p=1.0, spec="1"),
        ],
        ids=["d0", "d-bool", "p0", "p=d", "ncal<=k", "reps0", "string-S"],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GammaKey(**kwargs)


class TestGammaEstimate:
    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError, match="mean"):
            GammaEstimate(key=FAST_KEY, seed=0, mean=0.0, std_error=0.1)

    def test_rejects_negative_std_error(self):
        with pytest.raises(ValueError, match="std_error"):
            GammaEstimate(key=FAST_KEY, seed=0, mean=1.0, std_error=-1.0)


class TestEstimateGamma:
    def test_positive_with_smaller_uncertainty(self):
        est = estimate_gamma(FAST_KEY, seed=0)
        assert est.mean > 0.0
        assert est.std_error < est.mean

    def test_deterministic_in_seed(self):
        a = estimate_gamma(FAST_KEY, seed=3)
        b = estimate_gamma(FAST_KEY, seed=3)
        c = estimate_gamma(FAST_KEY, seed=4)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)
        assert a.mean != c.mean

    def test_single_rep_has_zero_std_error(self):
        est = estimate_gamma(GammaKey(d=1, p=0.5, spec=(1,), n_cal=2000, reps=1))
        assert est.std_error == 0.0

    def test_requires_gamma_key(self):
        with pytest.raises(ValueError, match="GammaKey"):
            estimate_gamma((2, 1.0, (1,)))

    def test_self_consistent_across_calibration_sizes(self):
        small = estimate_gamma(GammaKey(d=1, p=0.5, spec=(1,), n_cal=10_000, reps=3), seed=1)
        large = estimate_gamma(GammaKey(d=1, p=0.5, spec=(1,), n_cal=40_000, reps=3), seed=1)
        assert small.mean == pytest.approx(large.mean, rel=0.01)

    def test_each_replication_is_freed_before_the_next(self):
        # One replication of 100000 points in d = 3 peaks near 16 MiB; with
        # the previous sample and graph still alive it reaches 23 MiB (and
        # 47 MiB when every row is queried at once).
        key = GammaKey(d=3, p=0.9, spec=(1, 2, 3), n_cal=100_000, reps=3)
        tracemalloc.start()
        try:
            estimate_gamma(key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_std_error_shrinks_like_root_reps(self):
        """Mean se(10)/se(40) over seeds is within 20% of sqrt(40/10) = 2."""
        ratios = []
        for seed in range(8):
            se10 = estimate_gamma(
                GammaKey(d=2, p=1.0, spec=(1,), n_cal=4000, reps=10), seed=seed
            ).std_error
            se40 = estimate_gamma(
                GammaKey(d=2, p=1.0, spec=(1,), n_cal=4000, reps=40), seed=seed
            ).std_error
            ratios.append(se10 / se40)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.2)


class TestGammaAnalytic:
    def test_known_value_d1_k1(self):
        # V_1 = 2, so gamma = 2^(-1/2) * Gamma(1.5) = sqrt(pi/2)/2
        assert gamma_analytic(1, 0.5, 1) == pytest.approx(math.sqrt(math.pi / 2.0) / 2.0, rel=1e-14)
        assert gamma_analytic(1, 0.5, 1) == pytest.approx(0.6266570686577501, abs=1e-15)

    def test_small_p_limit_is_edge_count(self):
        assert gamma_analytic(2, 1e-9, 1) == pytest.approx(1.0, abs=1e-6)

    def test_matches_monte_carlo(self):
        """MC approaches the closed form as the calibration sample grows.

        In d=3 the finite-size bias of the calibration (about +0.7% at
        n_cal=160k, shrinking with n_cal) is much larger than the tiny
        replication error, so agreement is asserted in relative terms plus
        a shrinking-bias trend rather than in standard-error units.
        """
        analytic = gamma_analytic(3, 0.9, 2)
        biases = []
        for n_cal in (10_000, 40_000, 160_000):
            est = estimate_gamma(GammaKey(d=3, p=0.9, spec=(2,), n_cal=n_cal, reps=5), seed=2)
            biases.append(abs(est.mean - analytic) / analytic)
        assert biases[0] > biases[1] > biases[2]
        assert biases[-1] < 0.01

    def test_matches_monte_carlo_low_dimension(self):
        """In d=1 the bias is negligible and 3-SE agreement is attainable."""
        analytic = gamma_analytic(1, 0.5, 1)
        est = estimate_gamma(GammaKey(d=1, p=0.5, spec=(1,), n_cal=100_000, reps=10), seed=2)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d=0, p=0.5, k=1), dict(d=2, p=2.0, k=1), dict(d=2, p=-0.1, k=1), dict(d=2, p=1.0, k=0)],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            gamma_analytic(**kwargs)


def _cube_gamma(d, p, spec, n):
    """``gamma_inf (1 + b_S n^(-1/d))`` from the package's closed forms."""
    terms = [gamma_analytic(d, p, k) for k in spec]
    b = math.fsum(g * boundary_coefficient(d, p, k) for g, k in zip(terms, spec)) / math.fsum(terms)
    return math.fsum(terms) * (1.0 + b * n ** (-1.0 / d)), b


class TestBoundaryCoefficient:
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 0.99])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_d1_exact_form(self, p, k):
        """In d = 1 the inner share of a ball is (1 + u) / 2, so J has an exact form."""
        a = p + 1.0
        j = 2.0 * (1.0 - 2.0 ** (a - 1.0)) / (1.0 - a) - 1.0
        exact = 2.0 * p / a * 0.5 * math.exp(math.lgamma(k + a) - math.lgamma(k + p)) * j
        assert boundary_coefficient(1, p, k) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("d, p, k", [(3, 0.9, 1), (2, 0.6, 2)])
    def test_matches_double_integral_definition(self, d, p, k):
        assert boundary_coefficient(d, p, k) == pytest.approx(
            boundary_coefficient_quad(d, p, k), rel=1e-6
        )

    @pytest.mark.parametrize("d, p, b_s", [(3, 0.9, 0.366452), (2, 0.6, 0.303430)])
    def test_pinned_rank_set_values(self, d, p, b_s):
        assert _cube_gamma(d, p, (1, 2, 3), 1)[1] == pytest.approx(b_s, abs=1e-6)

    def test_finite_positive_and_warning_free_across_the_grid(self):
        """RuntimeWarnings are errors in this suite, so none is raised here."""
        for d in range(1, 26):
            for p in (0.02, 0.03, 0.3 * d, 0.99 * d):
                for k in (1, 3):
                    b = boundary_coefficient(d, p, k)
                    assert math.isfinite(b) and b > 0.0, (d, p, k, b)

    def test_memoized_and_deterministic_to_the_bit(self):
        first = boundary_coefficient(4, 1.3, 2)
        hits = _boundary_integral.cache_info().hits
        assert boundary_coefficient(4, 1.3, 2) == first
        assert _boundary_integral.cache_info().hits == hits + 1
        _boundary_integral.cache_clear()
        assert boundary_coefficient(4, 1.3, 2) == first

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, p=0.5, k=1),
            dict(d=2, p=2.0, k=1),
            dict(d=2, p=0.0, k=1),
            dict(d=2, p=1.0, k=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            boundary_coefficient(**kwargs)

    def test_estimates_do_not_import_scipy_integrate(self):
        """``scipy.integrate`` costs about 15 MB of RSS; the closed forms need none of it."""
        code = (
            "import sys, numpy as np, nnentropy\n"
            "x = np.random.default_rng(0).random((200, 3))\n"
            "nnentropy.renyi_mi(x, nnentropy.EstimatorSettings(alpha=0.7))\n"
            "sys.exit('scipy.integrate' in sys.modules)\n"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize("d, p, n_cal", [(2, 0.6, 100_000), (3, 0.9, 200_000)])
    def test_predicts_the_cube_monte_carlo(self, d, p, n_cal):
        """The cube Monte Carlo at seed 0 is within 3 SE of the limit times its boundary factor."""
        est = estimate_gamma(GammaKey(d=d, p=p, spec=(1, 2, 3), n_cal=n_cal, reps=10), seed=0)
        predicted, _ = _cube_gamma(d, p, (1, 2, 3), n_cal)
        assert abs(est.mean - predicted) <= 3.0 * est.std_error


@pytest.mark.parametrize(
    "key, seed",
    [(FAST_KEY, {"seed": 5}), (GammaKey(d=3, p=0.9, spec=(1, 2), n_cal=2000, reps=2), {})],
    ids=["seed-5", "rank-set-default-seed"],
)
def test_gamma_cache_is_a_handle_that_stores_nothing(tmp_path, key, seed):
    """``get_or_compute`` returns the Monte Carlo bitwise, reports a miss and writes no file."""
    cache = GammaCache(tmp_path / "g.jsonl")
    est, was_hit = cache.get_or_compute(key, **seed)
    expected = estimate_gamma(key, seed=seed.get("seed", 0))
    assert was_hit is False
    assert est == expected
    assert est.mean.hex() == expected.mean.hex()
    assert est.std_error.hex() == expected.std_error.hex()
    assert list(tmp_path.iterdir()) == []


def test_gamma_cache_keeps_its_path_and_creates_nothing(tmp_path):
    cache = GammaCache(str(tmp_path / "sub" / "g.jsonl"))
    assert cache.path == tmp_path / "sub" / "g.jsonl"
    assert list(tmp_path.iterdir()) == []
