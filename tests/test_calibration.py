"""Monte-Carlo calibration of the graph constant and its disk cache."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from nnentropy import (
    GammaCache,
    GammaCacheError,
    GammaEstimate,
    GammaKey,
    estimate_gamma,
    gamma_analytic,
)
from nnentropy.calibration import estimate_record

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


class TestGammaCache:
    def test_computes_persists_and_replays(self, tmp_path):
        cache = GammaCache(tmp_path / "g.jsonl")
        first, hit1 = cache.get_or_compute(FAST_KEY, seed=0)
        second, hit2 = cache.get_or_compute(FAST_KEY, seed=99)
        assert (hit1, hit2) == (False, True)
        assert second == first  # the stored record wins, seed ignored on hits
        assert len(cache.path.read_text().splitlines()) == 1

    def test_different_key_appends(self, tmp_path):
        cache = GammaCache(tmp_path / "g.jsonl")
        cache.get_or_compute(FAST_KEY)
        other = GammaKey(d=2, p=1.0, spec=(1,), n_cal=5000, reps=3)
        cache.get_or_compute(other)
        assert len(cache.path.read_text().splitlines()) == 2
        assert cache.lookup(other).key == other

    def test_roundtrip_is_bit_exact(self, tmp_path):
        cache = GammaCache(tmp_path / "g.jsonl")
        est = estimate_gamma(FAST_KEY, seed=5)
        computed, was_hit = cache.get_or_compute(FAST_KEY, seed=5)
        loaded = GammaCache(cache.path).lookup(FAST_KEY)
        assert not was_hit
        for got in (computed, loaded):
            assert got.mean.hex() == est.mean.hex()
            assert got.std_error.hex() == est.std_error.hex()

    def test_lookup_missing_returns_none(self, tmp_path):
        assert GammaCache(tmp_path / "none.jsonl").lookup(FAST_KEY) is None

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("not json\n")
        with pytest.raises(GammaCacheError, match="line 1: invalid JSON"):
            GammaCache(path).lookup(FAST_KEY)

    def test_nonpositive_mean_rejected(self, tmp_path):
        path = tmp_path / "g.jsonl"
        rec = estimate_record(estimate_gamma(FAST_KEY))
        rec["mean"] = 0.0
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(GammaCacheError, match="invalid gamma record"):
            GammaCache(path).lookup(FAST_KEY)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "g.jsonl"
        rec = estimate_record(estimate_gamma(FAST_KEY))
        del rec["std_error"]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(GammaCacheError, match="missing fields"):
            GammaCache(path).lookup(FAST_KEY)

    def test_unsorted_ranks_rejected(self, tmp_path):
        path = tmp_path / "g.jsonl"
        rec = estimate_record(estimate_gamma(FAST_KEY))
        rec["S"] = [2, 1]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(GammaCacheError, match="sorted array"):
            GammaCache(path).lookup(FAST_KEY)

    @pytest.mark.parametrize(
        "changes",
        [{"d": True, "S": [True]}, {"mean": True}, {"n_cal": 1000.0}, {"seed": "x"}],
        ids=["bool-d-and-rank", "bool-mean", "float-n_cal", "string-seed"],
    )
    def test_mistyped_field_rejected(self, tmp_path, changes):
        """Each record differs from one the key would match in one mistyped field."""
        rec = {"d": 1, "p": 0.5, "S": [1], "n_cal": 1000, "reps": 2, "seed": 0,
               "mean": 9.0, "std_error": 0.0, "tool_version": "0.1.0"}
        path = tmp_path / "g.jsonl"
        path.write_text(json.dumps({**rec, **changes}) + "\n")
        key = GammaKey(d=1, p=0.5, spec=(1,), n_cal=1000, reps=2)
        with pytest.raises(GammaCacheError, match="line 1: invalid gamma record"):
            GammaCache(path).lookup(key)


def test_estimate_record_fields():
    rec = estimate_record(estimate_gamma(FAST_KEY, seed=1))
    assert sorted(rec) == sorted(
        ["d", "p", "S", "n_cal", "reps", "seed", "mean", "std_error", "tool_version"]
    )
    assert rec["S"] == [1]
    assert rec["seed"] == 1
