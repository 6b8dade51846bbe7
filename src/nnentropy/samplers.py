"""Reproducible synthetic data generators.

Distribution specifications are small frozen dataclasses, serializable to
JSON for experiment configs; the JSON reader rejects any key that the
spec's kind does not have. ``WIREFRAME_SHAPES`` maps each wireframe name to
a function returning the shape's fixed polylines (vertex arrays). Sampling
is deterministic given a seed; nested specs (products) derive independent
child streams, so components never share randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .points import PointSet, _times_transpose, as_point_set, check_integer, check_real

__all__ = [
    "UniformCube",
    "Gaussian",
    "Wireframe3D",
    "Product",
    "WIREFRAME_SHAPES",
    "sample",
    "spec_to_json",
    "spec_from_json",
    "mix",
]


@dataclass(frozen=True)
class UniformCube:
    """Uniform distribution on ``[0, side]^d``."""

    d: int
    side: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_integer(self.d, "d"))
        object.__setattr__(self, "side", check_real(self.side, "side"))


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Gaussian with the given mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        d = mean.size
        if d < 1 or cov.shape != (d, d):
            raise ValueError(f"mean has dimension {d} but covariance has shape {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals[0] <= 1e-12 * max(eigvals[-1], 1.0):
            raise ValueError("covariance matrix is not positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class Wireframe3D:
    """Uniform distribution along a fixed 3-D wireframe shape.

    ``axes`` selects which coordinates to keep (default all three), which
    is how lower-dimensional projections of the shapes are produced for
    subspace experiments.
    """

    shape_id: str
    axes: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        if self.shape_id not in WIREFRAME_SHAPES:
            known = ", ".join(sorted(WIREFRAME_SHAPES))
            raise ValueError(f"unknown wireframe shape {self.shape_id!r} (known: {known})")
        axes = tuple(check_integer(a, "axes", 0) for a in self.axes)
        if not axes or len(set(axes)) != len(axes) or any(a > 2 for a in axes):
            raise ValueError(f"axes must be distinct values from (0, 1, 2), got {self.axes!r}")
        object.__setattr__(self, "axes", axes)


@dataclass(frozen=True)
class Product:
    """Independent concatenation of component distributions."""

    parts: tuple

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("product needs at least one component")
        for part in parts:
            if not isinstance(part, (UniformCube, Gaussian, Wireframe3D, Product)):
                raise ValueError(f"unsupported product component {part!r}")
        object.__setattr__(self, "parts", parts)


DistributionSpec = UniformCube | Gaussian | Wireframe3D | Product


def _polyline(*vertices) -> np.ndarray:
    return np.asarray(vertices, dtype=np.float64)


def _helix() -> list[np.ndarray]:
    t = np.linspace(0.0, 4.0 * np.pi, 49)
    return [np.column_stack([np.cos(t), np.sin(t), t / (2.0 * np.pi) - 1.0])]


def _trefoil() -> list[np.ndarray]:
    t = np.linspace(0.0, 2.0 * np.pi, 61)
    x = (2.0 + np.cos(3.0 * t)) * np.cos(2.0 * t)
    y = (2.0 + np.cos(3.0 * t)) * np.sin(2.0 * t)
    z = np.sin(3.0 * t)
    return [np.column_stack([x, y, z]) / 3.0]


def _cube_edges() -> list[np.ndarray]:
    c = [np.array([x, y, z], dtype=np.float64) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8) if np.sum(c[a] != c[b]) == 1]
    return [_polyline(c[a], c[b]) for a, b in pairs]


def _star() -> list[np.ndarray]:
    # Five-pointed star in the xy plane, alternating z so the shape spans 3-D.
    angles = np.pi / 2.0 + np.arange(10) * np.pi / 5.0
    radius = np.where(np.arange(10) % 2 == 0, 1.0, 0.382)
    z = np.where(np.arange(10) % 2 == 0, 0.5, -0.5)
    verts = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), z])
    return [np.vstack([verts, verts[:1]])]


def _rings() -> list[np.ndarray]:
    # Two interlocked circles in orthogonal planes.
    t = np.linspace(0.0, 2.0 * np.pi, 33)
    ring_xy = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    ring_xz = np.column_stack([1.0 + np.cos(t), np.zeros_like(t), np.sin(t)])
    return [ring_xy, ring_xz]


def _zigzag() -> list[np.ndarray]:
    return [
        _polyline(
            [-1.0, -1.0, -1.0],
            [1.0, -0.5, -0.6],
            [-0.8, 0.4, -0.2],
            [1.0, 1.0, 0.2],
            [-1.0, 0.2, 0.6],
            [0.6, -0.8, 1.0],
        )
    ]


WIREFRAME_SHAPES = {
    "spiral": _helix,
    "trefoil": _trefoil,
    "cube_edges": _cube_edges,
    "star": _star,
    "rings": _rings,
    "zigzag": _zigzag,
}


def spec_dim(spec: DistributionSpec) -> int:
    """Output dimension of a distribution spec."""
    if isinstance(spec, UniformCube):
        return spec.d
    if isinstance(spec, Gaussian):
        return spec.mean.size
    if isinstance(spec, Wireframe3D):
        return len(spec.axes)
    if isinstance(spec, Product):
        return sum(spec_dim(part) for part in spec.parts)
    raise ValueError(f"unsupported spec {spec!r}")


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def sample(spec: DistributionSpec, n: int, seed=0) -> PointSet:
    """Draw ``n`` i.i.d. points from ``spec``; deterministic given ``seed``."""
    n = check_integer(n, "n")
    ss = _as_seed_sequence(seed)

    if isinstance(spec, Product):
        children = ss.spawn(len(spec.parts))
        cols = [sample(part, n, child).points for part, child in zip(spec.parts, children)]
        return PointSet(np.hstack(cols))

    rng = np.random.default_rng(ss)
    if isinstance(spec, UniformCube):
        return PointSet(rng.random((n, spec.d)) * spec.side)
    if isinstance(spec, Gaussian):
        w, u = np.linalg.eigh(spec.cov)
        root = (u * np.sqrt(w)) @ u.T  # symmetric square root
        return PointSet(rng.standard_normal((n, spec.mean.size)) @ root + spec.mean)
    if isinstance(spec, Wireframe3D):
        polylines = WIREFRAME_SHAPES[spec.shape_id]()
        starts = np.vstack([pl[:-1] for pl in polylines])
        ends = np.vstack([pl[1:] for pl in polylines])
        seg_len = np.sqrt(((ends - starts) ** 2).sum(axis=1))
        weights = seg_len / seg_len.sum()
        which = rng.choice(len(weights), size=n, p=weights)
        u = rng.random((n, 1))
        pts = starts[which] + u * (ends[which] - starts[which])
        return PointSet(pts[:, list(spec.axes)])
    raise ValueError(f"unsupported spec {spec!r}")


def spec_to_json(spec: DistributionSpec) -> dict:
    """JSON-ready dictionary form of a distribution spec."""
    if isinstance(spec, UniformCube):
        return {"kind": "uniform_cube", "d": spec.d, "side": spec.side}
    if isinstance(spec, Gaussian):
        return {"kind": "gaussian", "mean": spec.mean.tolist(), "cov": spec.cov.tolist()}
    if isinstance(spec, Wireframe3D):
        return {"kind": "wireframe3d", "shape": spec.shape_id, "axes": list(spec.axes)}
    if isinstance(spec, Product):
        return {"kind": "product", "parts": [spec_to_json(part) for part in spec.parts]}
    raise ValueError(f"unsupported spec {spec!r}")


# The keys of each distribution kind's JSON form besides ``kind``.
_JSON_KEYS = {"uniform_cube": {"d", "side"}, "gaussian": {"mean", "cov"},
              "wireframe3d": {"shape", "axes"}, "product": {"parts"}}


def check_json_keys(obj: dict, known, what: str) -> None:
    """Reject a JSON object with a key outside ``known``, naming the key."""
    unknown = set(obj) - set(known)
    if unknown:
        raise DataFormatError(f"unknown {what} keys: {sorted(unknown)}")


def spec_from_json(obj) -> DistributionSpec:
    """Parse a distribution spec from its JSON dictionary form; unknown keys are errors."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DataFormatError("distribution spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise DataFormatError(f"unknown distribution kind {kind!r}")
    check_json_keys(obj, _JSON_KEYS[kind] | {"kind"}, f"{kind} distribution")
    try:
        if kind == "uniform_cube":
            return UniformCube(d=obj["d"], side=obj.get("side", 1.0))
        if kind == "gaussian":
            return Gaussian(mean=obj["mean"], cov=obj["cov"])
        if kind == "wireframe3d":
            return Wireframe3D(shape_id=obj["shape"], axes=tuple(obj.get("axes", (0, 1, 2))))
        parts = obj["parts"]
        if not isinstance(parts, list):
            raise DataFormatError("product 'parts' must be a list")
        return Product(parts=tuple(spec_from_json(part) for part in parts))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid distribution spec of kind {kind!r}: {exc}") from None


def mix(sources, a) -> PointSet:
    """Map source rows through a mixing matrix: row ``s`` becomes ``a @ s``.

    ``a`` must have full column rank with as many columns as the source
    dimension (observations may live in a higher-dimensional space).
    """
    ps = as_point_set(sources)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[1] != ps.d:
        raise ValueError(f"mixing matrix has {a.shape[1]} columns but sources have dimension {ps.d}")
    if np.linalg.matrix_rank(a) < a.shape[1]:
        raise ValueError("mixing matrix is rank deficient")
    return PointSet(_times_transpose(ps.points, a))
