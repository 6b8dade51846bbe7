"""Value types: point sets, neighbor specs, cubes; the shared parameter checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nnentropy import (
    Cube,
    EstimatorSettings,
    GammaKey,
    IsaExperimentConfig,
    IsaProblem,
    NeighborSpec,
    OutsideCubeError,
    PointSet,
    RateExperimentConfig,
    UniformCube,
    Wireframe3D,
    amari_block_index,
    as_neighbor_spec,
    as_point_set,
    block_norm_matrix,
    boundary_coefficient,
    check_add_one,
    check_boundary_and_superadditivity,
    check_growth_and_indegree,
    check_subadditivity,
    estimate_gamma,
    gamma_analytic,
    gaussian_renyi_entropy,
    gaussian_renyi_mi,
    group_components,
    histogram_entropy,
    histogram_mi,
    knn_all,
    mi_rate_exponent,
    mi_truth,
    sample,
    uniform_entropy,
    whiten,
)


class TestPointSet:
    def test_basic_shape_accessors(self):
        ps = PointSet([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert (ps.n, ps.d) == (3, 2)
        assert len(ps) == 3
        assert "n=3" in repr(ps) and "d=2" in repr(ps)

    def test_copies_and_freezes_input(self):
        raw = np.zeros((2, 2))
        ps = PointSet(raw)
        raw[0, 0] = 99.0
        assert ps.points[0, 0] == 0.0
        assert not ps.points.flags.writeable
        with pytest.raises(ValueError):
            ps.points[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0))],
        ids=["1d", "3d", "no-points", "no-coords"],
    )
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            PointSet(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0, bad]])

    def test_as_point_set_passthrough(self):
        ps = PointSet([[1.0]])
        assert as_point_set(ps) is ps
        assert as_point_set([[1.0, 2.0]]).d == 2


class TestNeighborSpec:
    def test_sorts_and_deduplicates(self):
        spec = NeighborSpec((3, 1, 3, 2))
        assert spec.indices == (1, 2, 3)
        assert spec.k == 3
        assert list(spec) == [1, 2, 3]
        assert len(spec) == 3

    def test_parse(self):
        assert NeighborSpec.parse("1, 2,3").indices == (1, 2, 3)
        with pytest.raises(ValueError, match="cannot parse"):
            NeighborSpec.parse("1,two")
        with pytest.raises(ValueError, match="at least one"):
            NeighborSpec.parse(" , ")

    @pytest.mark.parametrize(
        "bad", [(), (0,), (-1, 2), (1.5,), (True,)], ids=["empty", "zero", "negative", "float", "bool"]
    )
    def test_rejects_bad_ranks(self, bad):
        with pytest.raises(ValueError):
            NeighborSpec(bad)

    def test_as_neighbor_spec_coercions(self):
        spec = NeighborSpec((2,))
        assert as_neighbor_spec(spec) is spec
        assert as_neighbor_spec([3, 1]).indices == (1, 3)
        with pytest.raises(ValueError, match="^neighbor rank must be an integer"):
            as_neighbor_spec("2,1")


class TestCube:
    def test_unit_and_upper(self):
        cube = Cube.unit(3)
        assert cube.d == 3
        assert np.array_equal(cube.lower, np.zeros(3))
        assert np.array_equal(cube.upper, np.ones(3))

    @pytest.mark.parametrize("side", [0.0, -1.0, np.nan, True])
    def test_rejects_bad_side(self, side):
        with pytest.raises(ValueError):
            Cube(np.zeros(2), side)

    def test_outside_point_raises(self):
        with pytest.raises(OutsideCubeError, match="point 1"):
            Cube.unit(2).boundary_distance([[0.5, 0.5], [1.5, 0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Cube.unit(3).boundary_distance([[0.5, 0.5]])

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    def test_nearest_boundary_properties(self, pts):
        """r is the distance to the closest face: no face nearer, one at r, r <= side/2."""
        r = Cube.unit(pts.shape[1]).boundary_distance(pts)
        gaps = np.minimum(pts, 1.0 - pts)
        assert (gaps >= r[:, None]).all()
        assert (gaps == r[:, None]).any(axis=1).all()
        assert (r <= 0.5).all()


def _uniform(n=20, d=2):
    return np.random.default_rng(0).random((n, d))


_SETTINGS = EstimatorSettings(alpha=0.7, gamma=1.0)
_TWO_SHAPES = ("spiral", "zigzag")

# (parameter name, call taking the bad value) for every public entry point
# with an integer parameter.
INTEGER_PARAMETERS = [
    ("knn_all", "k", lambda v: knn_all(_uniform(), v)),
    ("Cube.unit", "d", lambda v: Cube.unit(v)),
    ("UniformCube", "d", lambda v: UniformCube(v)),
    ("Wireframe3D", "axes", lambda v: Wireframe3D("spiral", axes=(v,))),
    ("sample", "n", lambda v: sample(UniformCube(2), v)),
    ("GammaKey", "d", lambda v: GammaKey(d=v, p=0.5, spec=(1,))),
    ("GammaKey", "n_cal", lambda v: GammaKey(d=2, p=0.5, spec=(1,), n_cal=v)),
    ("GammaKey", "reps", lambda v: GammaKey(d=2, p=0.5, spec=(1,), reps=v)),
    ("gamma_analytic", "d", lambda v: gamma_analytic(v, 0.5, 1)),
    ("gamma_analytic", "k", lambda v: gamma_analytic(2, 0.5, v)),
    ("estimate_gamma", "seed",
     lambda v: estimate_gamma(GammaKey(d=1, p=0.5, spec=(1,), n_cal=10, reps=1), seed=v)),
    ("boundary_coefficient", "d", lambda v: boundary_coefficient(v, 0.5, 1)),
    ("boundary_coefficient", "k", lambda v: boundary_coefficient(2, 0.5, v)),
    ("uniform_entropy", "d", lambda v: uniform_entropy(v)),
    ("mi_rate_exponent", "d", lambda v: mi_rate_exponent(v, 0.5)),
    ("check_boundary_and_superadditivity", "partition granularity m",
     lambda v: check_boundary_and_superadditivity(_uniform(), (1,), 1.0, v)),
    ("check_growth_and_indegree", "trials", lambda v: check_growth_and_indegree(v, 2, (1,), 1.0, n=(64,))),
    ("check_growth_and_indegree", "d", lambda v: check_growth_and_indegree(1, v, (1,), 0.5, n=(64,))),
    ("check_growth_and_indegree", "n", lambda v: check_growth_and_indegree(1, 2, (1,), 1.0, n=(v,))),
    ("check_subadditivity", "partition granularity m",
     lambda v: check_subadditivity(_uniform(), (1,), 1.0, v)),
    ("check_add_one", "d", lambda v: check_add_one(v, (1,), 0.5, 16)),
    ("check_add_one", "n", lambda v: check_add_one(2, (1,), 1.0, v)),
    ("IsaProblem", "subspace_dim", lambda v: IsaProblem(_uniform(20, 4), v, 2)),
    ("IsaProblem", "num_sources", lambda v: IsaProblem(_uniform(20, 4), 2, v)),
    ("whiten", "n_components", lambda v: whiten(_uniform(20, 3), n_components=v)),
    ("group_components", "subspace_dim", lambda v: group_components(_uniform(20, 4), v, 2, _SETTINGS)),
    ("group_components", "num_sources", lambda v: group_components(_uniform(20, 4), 2, v, _SETTINGS)),
    ("block_norm_matrix", "subspace_dim", lambda v: block_norm_matrix(np.eye(4), v, 2)),
    ("block_norm_matrix", "num_sources", lambda v: block_norm_matrix(np.eye(4), 2, v)),
    ("amari_block_index", "num_sources", lambda v: amari_block_index(np.eye(4), 2, v)),
    ("RateExperimentConfig", "n_grid size",
     lambda v: RateExperimentConfig(UniformCube(2), 0.0, n_grid=(v,))),
    ("RateExperimentConfig", "runs", lambda v: RateExperimentConfig(UniformCube(2), 0.0, runs=v)),
    ("RateExperimentConfig", "n_cal", lambda v: RateExperimentConfig(UniformCube(2), 0.0, n_cal=v)),
    ("RateExperimentConfig", "reps", lambda v: RateExperimentConfig(UniformCube(2), 0.0, reps=v)),
    ("IsaExperimentConfig", "subspace_dim", lambda v: IsaExperimentConfig(_TWO_SHAPES, subspace_dim=v)),
    ("IsaExperimentConfig", "n", lambda v: IsaExperimentConfig(_TWO_SHAPES, n=v)),
    ("IsaExperimentConfig", "q", lambda v: IsaExperimentConfig(_TWO_SHAPES, q=v)),
    ("IsaExperimentConfig", "n_cal", lambda v: IsaExperimentConfig(_TWO_SHAPES, n_cal=v)),
    ("IsaExperimentConfig", "reps", lambda v: IsaExperimentConfig(_TWO_SHAPES, reps=v)),
]

ALPHA_PARAMETERS = [
    ("EstimatorSettings", lambda v: EstimatorSettings(alpha=v)),
    ("histogram_entropy", lambda v: histogram_entropy(_uniform(), v)),
    ("histogram_mi", lambda v: histogram_mi(_uniform(), v)),
    ("mi_truth", lambda v: mi_truth(UniformCube(2), v)),
    ("gaussian_renyi_entropy", lambda v: gaussian_renyi_entropy(np.eye(2), v)),
    ("gaussian_renyi_mi", lambda v: gaussian_renyi_mi(np.eye(2), v)),
    ("RateExperimentConfig", lambda v: RateExperimentConfig(UniformCube(2), 0.0, alpha=v)),
    ("IsaExperimentConfig", lambda v: IsaExperimentConfig(_TWO_SHAPES, alpha=v)),
]


class TestParameterChecks:
    @pytest.mark.parametrize("bad", [True, 2.5], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "name, call", [c[1:] for c in INTEGER_PARAMETERS], ids=[f"{c[0]}.{c[1]}" for c in INTEGER_PARAMETERS]
    )
    def test_integer_parameters_reject_bools_and_floats(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
            call(bad)

    @pytest.mark.parametrize("bad", [True, math.nan, "0.7"], ids=["bool", "nan", "string"])
    @pytest.mark.parametrize("call", [c[1] for c in ALPHA_PARAMETERS], ids=[c[0] for c in ALPHA_PARAMETERS])
    def test_alpha_rejects_bools_nan_and_strings(self, call, bad):
        with pytest.raises(ValueError, match=r"^alpha must lie strictly in \(0, 1\)"):
            call(bad)
