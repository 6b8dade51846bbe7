"""Point sets, neighbor-rank specifications, axis-aligned cubes, and the
parameter checks.

The value types are the small immutable ones shared by the graph layer, the
estimators, and the diagnostics. The five ``check_*`` functions are the one
check for each kind of scalar parameter (an integer with a minimum, a
worker-thread cap, the order alpha, the power p, a finite real) that every
entry point of the package applies: an integer parameter must be an
integer, not a bool or a float, and a real one a finite number, not a bool
or a string. ``_times_transpose`` is the ISA's dense product, and
``_json_form`` writes each JSON record (a config or an estimate report)
from its dataclass fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import OutsideCubeError

__all__ = [
    "PointSet",
    "NeighborSpec",
    "Cube",
    "as_point_set",
    "as_neighbor_spec",
]


def check_integer(value, name: str, minimum: int = 1) -> int:
    """``value`` as an ``int``: an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_workers(workers) -> int:
    """A worker-thread cap as an ``int``: -1 (all cores) or an integer >= 1, not a bool."""
    if isinstance(workers, Integral) and workers == -1:
        return -1
    return check_integer(workers, "workers (or -1 for all cores)")


def check_real(value, name: str, minimum: float = 0.0, strict: bool = True) -> float:
    """``value`` as a ``float``: a finite real (not a bool) above ``minimum``.

    ``strict=False`` also admits ``minimum`` itself; ``minimum=-inf``
    admits every finite real.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and (x > minimum or (not strict and x == minimum)):
            return x
    bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def check_alpha(alpha) -> float:
    """The entropy order as a ``float``: a real (not a bool) strictly in (0, 1)."""
    if isinstance(alpha, Real) and not isinstance(alpha, bool) and 0.0 < alpha < 1.0:
        return float(alpha)
    raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")


def check_power(p, d: int | None = None) -> float:
    """The graph power as a ``float``: finite and in (0, d).

    Without ``d`` any finite ``p >= 0`` is admitted, the range on which the
    length functional and its exact identities are defined.
    """
    if d is None:
        return check_real(p, "p", strict=False)
    if isinstance(p, Real) and not isinstance(p, bool) and 0.0 < p < d:
        return float(p)
    raise ValueError(f"p must satisfy 0 < p < d = {d}, got {p!r}")


def _times_transpose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T``, computed on the calling thread.

    The ISA's n x q by q x q products (the mixing, the whitening, two per
    ICA iteration, the components) go through here. For n in the thousands
    BLAS splits such a product over its worker threads, which then spin for
    a while after each one, on cores the single-threaded neighbor searches
    that follow could use (``neighbors._THREADED_QUERY_ELEMENTS`` keeps small
    kd-tree queries on the calling thread for the same reason). Measured on
    2 cores at 2,000 x 18 x 18, ``np.einsum`` takes 0.3-0.4 ms against
    0.05 ms for two BLAS threads. Without ``optimize`` it never calls BLAS,
    so its result does not depend on the BLAS thread count.
    """
    return np.einsum("ij,kj->ik", a, b)


class PointSet:
    """An immutable collection of ``n`` points in ``R^d``.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Point coordinates; must be finite. The data is copied into a
        C-contiguous float64 array which is then marked read-only.
    """

    __slots__ = ("_points",)

    def __init__(self, points) -> None:
        arr = np.array(points, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one point and one coordinate, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("points must be finite")
        arr.flags.writeable = False
        self._points = arr

    @property
    def points(self) -> np.ndarray:
        """The ``(n, d)`` read-only coordinate array."""
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def d(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"


def as_point_set(obj) -> PointSet:
    """Coerce an array-like or :class:`PointSet` into a :class:`PointSet`."""
    if isinstance(obj, PointSet):
        return obj
    return PointSet(obj)


@dataclass(frozen=True)
class NeighborSpec:
    """Which neighbor ranks receive an edge from every vertex.

    ``indices`` is a sorted tuple of distinct positive integers; rank ``i``
    means "the i-th nearest other point". ``k`` is the largest rank and
    bounds the sample size required to build a graph (``n > k``).
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            raw = tuple(self.indices)
        except TypeError:
            raise ValueError("neighbor ranks must be an iterable of integers") from None
        if not raw:
            raise ValueError("neighbor spec needs at least one rank")
        cleaned = sorted({check_integer(r, "neighbor rank") for r in raw})
        object.__setattr__(self, "indices", tuple(cleaned))

    @property
    def k(self) -> int:
        """The largest rank in the spec."""
        return self.indices[-1]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @classmethod
    def parse(cls, text: str) -> "NeighborSpec":
        """Parse a comma-separated rank list such as ``"1,2,3"``."""
        parts = [p.strip() for p in str(text).split(",") if p.strip()]
        if not parts:
            raise ValueError("neighbor spec needs at least one rank")
        try:
            ranks = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"cannot parse neighbor ranks from {text!r}") from None
        return cls(ranks)


def as_neighbor_spec(obj) -> NeighborSpec:
    """Coerce a :class:`NeighborSpec` or an iterable of integer ranks (not a string)."""
    if isinstance(obj, NeighborSpec):
        return obj
    return NeighborSpec(obj)


def _json_keys(cls) -> dict[str, str]:
    """Map each JSON key of a dataclass record to its field: ``"S"`` to ``spec``, others alike."""
    return {"S" if f.name == "spec" else f.name: f.name for f in fields(cls)}


def _json_form(record, **special) -> dict:
    """The JSON form of a dataclass record: one key per field, in field order.

    Keys are as :func:`_json_keys` gives them, and tuples and rank sets are
    written as lists. ``special`` gives the form of each field whose value
    is not a plain JSON value.
    """
    form = {}
    for key, name in _json_keys(type(record)).items():
        value = special.get(name, getattr(record, name))
        form[key] = list(value) if isinstance(value, (tuple, NeighborSpec)) else value
    return form


@dataclass(frozen=True)
class Cube:
    """The axis-aligned cube ``[lower, lower + side]^d``.

    The boundary graph asks it one thing: each point's distance to the
    boundary (:meth:`boundary_distance`).
    """

    lower: np.ndarray
    side: float

    def __post_init__(self) -> None:
        lo = np.array(self.lower, dtype=np.float64, copy=True).reshape(-1)
        if lo.size < 1 or not np.isfinite(lo).all():
            raise ValueError("cube lower corner must be a finite vector")
        lo.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "side", check_real(self.side, "cube side"))

    @classmethod
    def unit(cls, d: int) -> "Cube":
        """The unit cube ``[0, 1]^d``."""
        return cls(np.zeros(check_integer(d, "d")), 1.0)

    @property
    def d(self) -> int:
        return self.lower.size

    @property
    def upper(self) -> np.ndarray:
        return self.lower + self.side

    def boundary_distance(self, points) -> np.ndarray:
        """Distance from each point to the cube's boundary, shape ``(n,)``.

        Raises
        ------
        OutsideCubeError
            If any point lies outside the closed cube.
        """
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.d:
            raise ValueError(f"points have dimension {x.shape[1]}, cube has {self.d}")
        d_lo = x - self.lower
        d_hi = self.upper - x
        if (d_lo < 0).any() or (d_hi < 0).any():
            bad = int(np.nonzero((d_lo < 0).any(axis=1) | (d_hi < 0).any(axis=1))[0][0])
            raise OutsideCubeError(f"point {bad} lies outside the cube")
        return np.minimum(d_lo, d_hi).min(axis=1)
