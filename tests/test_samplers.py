"""Synthetic data generators and their JSON spec round-trip."""

import typing

import numpy as np
import pytest

from nnentropy import (
    DataFormatError,
    Gaussian,
    Product,
    UniformCube,
    WIREFRAME_SHAPES,
    Wireframe3D,
    mix,
    sample,
    spec_from_json,
    spec_to_json,
)
from nnentropy import samplers
from nnentropy.samplers import spec_dim

from .oracles import segment_distance


class TestSpecValidation:
    def test_uniform_cube(self):
        with pytest.raises(ValueError):
            UniformCube(d=0)
        with pytest.raises(ValueError):
            UniformCube(d=2, side=0.0)

    def test_gaussian_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Gaussian(mean=np.zeros(2), cov=np.eye(3))

    def test_gaussian_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Gaussian(mean=np.zeros(2), cov=[[1.0, 0.5], [0.1, 1.0]])

    def test_gaussian_not_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Gaussian(mean=np.zeros(2), cov=[[1.0, 1.0], [1.0, 1.0]])

    def test_wireframe_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown wireframe shape"):
            Wireframe3D("moebius")

    def test_wireframe_bad_axes(self):
        with pytest.raises(ValueError, match="axes"):
            Wireframe3D("spiral", axes=(0, 0))
        with pytest.raises(ValueError, match="axes"):
            Wireframe3D("spiral", axes=(3,))

    def test_product_needs_parts(self):
        with pytest.raises(ValueError):
            Product(parts=())

    def test_spec_dim(self):
        spec = Product((UniformCube(2), Wireframe3D("spiral", axes=(0, 1)), Gaussian(np.zeros(1), [[1.0]])))
        assert spec_dim(spec) == 5


class TestSampling:
    def test_uniform_cube_support_and_mean(self):
        ps = sample(UniformCube(3, side=2.0), 1000, seed=0)
        assert ps.points.min() >= 0.0 and ps.points.max() <= 2.0
        assert np.allclose(ps.points.mean(axis=0), 1.0, atol=0.1)

    def test_gaussian_moments(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        ps = sample(Gaussian(mean=np.array([1.0, -1.0]), cov=cov), 10_000, seed=1)
        assert np.allclose(ps.points.mean(axis=0), [1.0, -1.0], atol=0.1)
        assert np.allclose(np.cov(ps.points.T), cov, atol=0.1)

    @pytest.mark.parametrize("shape", sorted(WIREFRAME_SHAPES))
    def test_wireframe_points_lie_on_polylines(self, shape):
        ps = sample(Wireframe3D(shape), 300, seed=2)
        best = np.full(ps.n, np.inf)
        for pl in WIREFRAME_SHAPES[shape]():
            for a, b in zip(pl[:-1], pl[1:]):
                best = np.minimum(best, segment_distance(ps.points, a, b))
        assert best.max() <= 1e-12

    def test_wireframe_axes_projection(self):
        full = sample(Wireframe3D("zigzag"), 100, seed=3)
        proj = sample(Wireframe3D("zigzag", axes=(0, 2)), 100, seed=3)
        assert proj.d == 2
        assert np.array_equal(proj.points, full.points[:, [0, 2]])

    def test_product_concatenates_and_decorrelates(self):
        spec = Product((UniformCube(1), UniformCube(1)))
        ps = sample(spec, 10_000, seed=4)
        assert ps.d == 2
        rho = np.corrcoef(ps.points.T)[0, 1]
        assert abs(rho) < 0.05
        # child streams differ from each other and from the parent
        assert not np.array_equal(ps.points[:, 0], ps.points[:, 1])

    def test_deterministic_in_seed(self):
        spec = Gaussian(np.zeros(2), np.eye(2))
        a = sample(spec, 50, seed=5)
        b = sample(spec, 50, seed=5)
        c = sample(spec, 50, seed=6)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample(UniformCube(1), 0)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            UniformCube(3, side=2.0),
            Gaussian(np.array([0.5, -0.5]), np.array([[1.0, 0.2], [0.2, 1.0]])),
            Wireframe3D("trefoil", axes=(0, 1)),
            Product((UniformCube(1), Product((Wireframe3D("star"), UniformCube(2))))),
        ],
        ids=["uniform", "gaussian", "wireframe", "nested-product"],
    )
    def test_roundtrip_preserves_samples(self, spec):
        restored = spec_from_json(spec_to_json(spec))
        assert np.array_equal(sample(spec, 64, seed=7).points, sample(restored, 64, seed=7).points)

    def test_kind_table_covers_every_spec_class(self):
        # A new kind is a DistributionSpec member and one _KINDS entry; each member
        # must read back from the JSON it writes, under the kind the table gives it.
        examples = {
            UniformCube: UniformCube(2, side=0.5),
            Gaussian: Gaussian(np.array([1.0, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])),
            Wireframe3D: Wireframe3D("rings", axes=(2, 0)),
            Product: Product((Wireframe3D("zigzag", axes=(1,)), UniformCube(1))),
        }
        members = set(typing.get_args(samplers.DistributionSpec))
        assert set(samplers._KINDS.values()) == members == set(examples)
        for kind, cls in samplers._KINDS.items():
            form = spec_to_json(examples[cls])
            assert form["kind"] == kind
            restored = spec_from_json(form)
            assert type(restored) is cls
            assert spec_to_json(restored) == form

    def test_wireframe_key_is_its_field(self):
        assert spec_to_json(Wireframe3D(shape="star")) == {
            "kind": "wireframe3d", "shape": "star", "axes": [0, 1, 2]
        }

    def test_gaussian_shorthand_inside_a_product(self):
        shorthand = {"kind": "gaussian", "d": 3, "rho": 0.25}
        top = spec_from_json(shorthand)
        cov = np.full((3, 3), 0.25)
        np.fill_diagonal(cov, 1.0)
        assert np.array_equal(top.mean, np.zeros(3)) and np.array_equal(top.cov, cov)
        product = spec_from_json(
            {"kind": "product", "parts": [{"kind": "uniform_cube", "d": 1}, shorthand]}
        )
        inner = product.parts[1]
        assert isinstance(inner, Gaussian)
        assert np.array_equal(inner.mean, top.mean) and np.array_equal(inner.cov, top.cov)

    def test_missing_field_is_named(self):
        message = r"invalid uniform_cube distribution: .*missing 1 required positional argument: 'd'"
        with pytest.raises(DataFormatError, match=message):
            spec_from_json({"kind": "uniform_cube"})

    def test_unknown_kind(self):
        with pytest.raises(DataFormatError, match="unknown distribution kind"):
            spec_from_json({"kind": "cauchy"})

    def test_missing_kind(self):
        with pytest.raises(DataFormatError, match="kind"):
            spec_from_json({"d": 3})

    def test_invalid_fields_are_reported(self):
        with pytest.raises(DataFormatError, match="uniform_cube"):
            spec_from_json({"kind": "uniform_cube", "side": 1.0})
        with pytest.raises(DataFormatError, match="product 'parts' must be a list"):
            spec_from_json({"kind": "product", "parts": {"kind": "uniform_cube", "d": 2}})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "uniform_cube", "d": 2, "sid": 2.0},
             r"unknown uniform_cube distribution keys: \['sid'\]"),
            ({"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "rho": 0.5},
             r"unknown gaussian distribution keys: \['rho'\]"),
            ({"kind": "wireframe3d", "shape": "star", "axis": [0, 1]},
             r"unknown wireframe3d distribution keys: \['axis'\]"),
            ({"kind": "product", "parts": [], "part": []},
             r"unknown product distribution keys: \['part'\]"),
            ({"kind": "product", "parts": [{"kind": "uniform_cube", "d": 1, "D": 2}]},
             r"unknown uniform_cube distribution keys: \['D'\]"),
        ],
        ids=["uniform-sid", "gaussian-rho", "wireframe-axis", "product-part", "nested-key"],
    )
    def test_unknown_keys_are_rejected(self, obj, message):
        with pytest.raises(DataFormatError, match=message):
            spec_from_json(obj)


class TestMix:
    def test_identity_is_identity(self):
        rng = np.random.default_rng(8)
        X = rng.random((20, 3))
        assert np.array_equal(mix(X, np.eye(3)).points, X)

    def test_scaling(self):
        rng = np.random.default_rng(8)
        X = rng.random((20, 3))
        assert np.array_equal(mix(X, 2.0 * np.eye(3)).points, 2.0 * X)

    def test_lifts_to_higher_dimension(self):
        rng = np.random.default_rng(9)
        sources = sample(
            Product(tuple(Wireframe3D(s) for s in ("spiral", "star", "rings", "zigzag", "trefoil", "cube_edges"))),
            200,
            seed=10,
        )
        assert sources.d == 18
        A = rng.standard_normal((18, 18))
        mixed = mix(sources, A)
        assert (mixed.n, mixed.d) == (200, 18)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="columns"):
            mix(np.zeros((5, 3)), np.eye(2))

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="rank deficient"):
            mix(np.random.default_rng(0).random((5, 2)), [[1.0, 1.0], [2.0, 2.0]])
