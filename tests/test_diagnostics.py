"""Structural checks on the edge-length functionals and the bundled grid."""

import json
import math

import numpy as np
import pytest

from nnentropy import (
    GROWTH_SPREAD_BOUND,
    PointSet,
    SURVEYED,
    check_add_one,
    check_boundary_and_superadditivity,
    check_growth_and_indegree,
    check_perturbation,
    check_smoothness,
    check_subadditivity,
    check_translation_scaling,
    run_diagnostics,
)

LINE = PointSet([[0.0], [1.0], [3.0]])


def _uniform(n, d, seed):
    return PointSet(np.random.default_rng(seed).random((n, d)))


class TestTranslationScaling:
    def test_identity_transform_has_zero_error(self):
        report = check_translation_scaling(_uniform(100, 2, 0), (1, 2), 1.3, scale=1.0, shift=np.zeros(2))
        assert report.max_rel_err == 0.0
        assert report.passed

    def test_collinear_doubling_is_exact(self):
        report = check_translation_scaling(LINE, (1,), 1.0, scale=2.0)
        assert report.scaling_rel_err == 0.0
        assert report.max_rel_err == 0.0

    def test_random_points_within_tolerance(self):
        report = check_translation_scaling(_uniform(500, 4, 1), (1, 2), 1.7, scale=0.37)
        assert report.max_rel_err <= 1e-12
        assert report.passed

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="p must"):
            check_translation_scaling(LINE, (1,), -0.5)
        with pytest.raises(ValueError, match="scale"):
            check_translation_scaling(LINE, (1,), 1.0, scale=0.0)


class TestBoundarySuperadditivity:
    def test_single_point(self):
        report = check_boundary_and_superadditivity(PointSet([[0.3, 0.4]]), (1,), 1.0, 4)
        assert math.isnan(report.boundary_slack)
        assert report.boundary_ok and report.superadditivity_ok and report.passed

    def test_uniform_instance(self):
        report = check_boundary_and_superadditivity(_uniform(300, 2, 2), (1, 2), 1.0, 3)
        assert report.passed
        assert report.boundary_slack >= 0.0
        assert report.superadditivity_slack >= 0.0

    def test_tight_cluster_has_no_slack(self):
        pts = 0.1 + 0.1 * np.random.default_rng(23).random((20, 2))
        report = check_boundary_and_superadditivity(PointSet(pts), (1, 2), 1.0, 2)
        assert report.superadditivity_slack == 0.0
        assert report.boundary_slack == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="granularity"):
            check_boundary_and_superadditivity(LINE, (1,), 1.0, 0)
        with pytest.raises(ValueError, match="p must"):
            check_boundary_and_superadditivity(LINE, (1,), -1.0, 2)


class TestGrowthIndegree:
    def test_line_indegree_at_most_two(self):
        report = check_growth_and_indegree(20, 1, (1,), 0.5, n=(256, 512), seed=0)
        assert report.max_indegree <= 2

    def test_plane_indegree_within_surveyed_bound(self):
        report = check_growth_and_indegree(100, 2, (1,), 1.0, n=(500,), seed=0)
        assert report.max_indegree <= 6
        assert report.passed

    def test_growth_ratio_stays_flat(self):
        report = check_growth_and_indegree(5, 3, (1, 2, 3), 1.5, n=(256, 512, 1024), seed=1)
        assert report.growth_spread <= GROWTH_SPREAD_BOUND
        assert len(report.growth_ratios) == 3
        assert report.passed

    def test_unsurveyed_dimension_raises(self):
        with pytest.raises(ValueError, match="no surveyed in-degree constant for d=4"):
            check_growth_and_indegree(2, 4, (1,), 1.0, n=(64,))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="trials"):
            check_growth_and_indegree(0, 2, (1,), 1.0, n=(64,))
        with pytest.raises(ValueError, match="p must"):
            check_growth_and_indegree(2, 2, (1,), 2.5, n=(64,))


class TestSmoothness:
    def test_identical_samples(self):
        ps = _uniform(80, 2, 3)
        report = check_smoothness(ps, ps, (1,), 0.9)
        assert report.ratio == 0.0 and report.sym_diff == 0 and report.passed

    def test_one_far_point(self):
        ps = _uniform(80, 2, 4)
        other = PointSet(np.vstack([ps.points, [[100.0, 100.0]]]))
        report = check_smoothness(ps, other, (1,), 0.9)
        assert report.sym_diff == 1
        assert math.isfinite(report.ratio)

    def test_partial_overlap_within_surveyed_bound(self):
        base = _uniform(500, 3, 5)
        report = check_smoothness(base, PointSet(base.points[:400]), (1, 2, 3), 1.5)
        assert report.sym_diff == 100
        assert report.passed

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            check_smoothness(_uniform(10, 2, 6), _uniform(10, 3, 6), (1,), 1.0)


class TestSubadditivity:
    def test_uniform_instance(self):
        report = check_subadditivity(_uniform(500, 3, 7), (1, 2), 1.0, 3)
        assert report.passed
        assert report.normalized_slack <= report.bound

    def test_sparse_blocks_are_skipped(self):
        report = check_subadditivity(_uniform(60, 2, 22), (1, 2), 0.5, 5)
        assert report.skipped_blocks > 0
        assert report.passed

    def test_slack_never_negative(self):
        report = check_subadditivity(_uniform(40, 2, 8), (1,), 0.5, 2)
        assert report.slack >= 0.0

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            check_subadditivity(LINE, (1,), 0.5, 0)


class TestAddOne:
    def test_trend_within_bound(self):
        report = check_add_one(2, (1,), 0.9, 128, seed=0)
        assert report.normalized_gap <= report.bound
        assert report.passed

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n must exceed"):
            check_add_one(2, (1, 2, 3), 1.0, 3)


class TestPerturbation:
    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_uniform_instance(self, p):
        report = check_perturbation(_uniform(1000, 3, 9), (1, 2, 3), p, seed=3)
        assert [eps for eps, _ in report.ratios] == [1e-3, 1e-2]
        assert report.max_ratio <= SURVEYED["perturbation"]
        assert report.passed

    def test_rejects_p_at_least_one(self):
        with pytest.raises(ValueError, match="0 < p < 1"):
            check_perturbation(_uniform(50, 2, 10), (1,), 1.0)


class TestRunDiagnostics:
    def test_quick_grid_passes(self):
        summary = run_diagnostics(seed=5, quick=True)
        assert summary.passed
        names = [name for name, _, _ in summary.entries]
        assert set(names) == {
            "translation_scaling",
            "boundary_superadditivity",
            "growth_indegree",
            "smoothness",
            "subadditivity",
            "add_one",
            "perturbation",
        }

    def test_quick_grid_deterministic_and_serializable(self):
        a = run_diagnostics(seed=5, quick=True).to_dict()
        b = run_diagnostics(seed=5, quick=True).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert set(a) == {"passed", "checks"}
        for entry in a["checks"]:
            assert set(entry) == {"check", "config", "report", "passed"}
            assert entry["passed"] == entry["report"]["passed"]

    def test_full_grid_passes(self):
        summary = run_diagnostics(seed=0, quick=False)
        assert summary.passed
        assert len(summary.entries) > len(run_diagnostics(seed=0, quick=True).entries)
