"""Value types: point sets, neighbor specs, cubes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nnentropy import Cube, NeighborSpec, OutsideCubeError, PointSet, as_neighbor_spec, as_point_set


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

    def test_single_and_first(self):
        assert NeighborSpec.single(4).indices == (4,)
        assert NeighborSpec.first(3).indices == (1, 2, 3)

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
        assert as_neighbor_spec("2,1").indices == (1, 2)
        assert as_neighbor_spec([3, 1]).indices == (1, 3)


class TestCube:
    def test_unit_and_upper(self):
        cube = Cube.unit(3)
        assert cube.d == 3
        assert np.array_equal(cube.lower, np.zeros(3))
        assert np.array_equal(cube.upper, np.ones(3))

    def test_contains(self):
        cube = Cube(np.array([1.0, 1.0]), 2.0)
        assert cube.contains([[1.0, 3.0], [2.0, 2.0]])
        assert not cube.contains([[0.9, 2.0]])

    @pytest.mark.parametrize("side", [0.0, -1.0, np.nan])
    def test_rejects_bad_side(self, side):
        with pytest.raises(ValueError):
            Cube(np.zeros(2), side)

    def test_nearest_boundary_example(self):
        b, r = Cube.unit(2).nearest_boundary([[0.01, 0.5]])
        assert np.allclose(b[0], [0.0, 0.5])
        assert r[0] == pytest.approx(0.01)

    def test_nearest_boundary_tie_goes_to_lowest_axis(self):
        # equidistant from the x- and y-faces: the x-face wins
        b, r = Cube.unit(2).nearest_boundary([[0.2, 0.2]])
        assert np.allclose(b[0], [0.0, 0.2])
        assert r[0] == pytest.approx(0.2)

    def test_nearest_boundary_upper_face(self):
        b, r = Cube.unit(2).nearest_boundary([[0.9, 0.5]])
        assert np.allclose(b[0], [1.0, 0.5])
        assert r[0] == pytest.approx(0.1)

    def test_outside_point_raises(self):
        with pytest.raises(OutsideCubeError, match="point 1"):
            Cube.unit(2).nearest_boundary([[0.5, 0.5], [1.5, 0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Cube.unit(3).nearest_boundary([[0.5, 0.5]])

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    def test_nearest_boundary_properties(self, pts):
        """b lies on the boundary, r is the distance to b, r <= side/2."""
        cube = Cube.unit(pts.shape[1])
        b, r = cube.nearest_boundary(pts)
        on_face = np.isclose(b, 0.0) | np.isclose(b, 1.0)
        assert on_face.any(axis=1).all()
        assert np.allclose(np.linalg.norm(pts - b, axis=1), r)
        assert (r <= 0.5 + 1e-15).all()
