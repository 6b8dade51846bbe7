"""Entropy and mutual-information estimators.

The core estimator divides the p-th-power edge-length functional of the
sample's nearest-neighbor graph by its uniform-sample limit and takes a
logarithm:

    H_hat = log( L_p / (gamma * n^(1-p/d)) ) / (1 - alpha),   p = d(1-alpha).

Mutual information is estimated as minus the entropy of the empirical
copula of the sample. By default ``gamma`` is closed-form: the limit constant
for entropy, and for the copula, which lies in the unit cube, the limit
times the cube's boundary factor at the sample's own size. A histogram
plug-in estimator is included as the comparison baseline for rate
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .calibration import GammaCache, _closed_form

# Unused here: the benchmark's tracer (perfbench/spans.py) wraps this
# attribute of the module, so it stays until the tracer goes (ROADMAP item 6).
from .calibration import estimate_gamma  # noqa: F401
from .errors import DegenerateSampleError, HistogramInfeasibleError
from .graph import NNGraph, build_nn_graph, l_p
from .points import (
    NeighborSpec,
    PointSet,
    as_neighbor_spec,
    as_point_set,
    check_alpha,
    check_real,
    check_workers,
)

__all__ = [
    "DEFAULT_SPEC",
    "EstimatorSettings",
    "EstimateReport",
    "renyi_entropy",
    "empirical_copula",
    "renyi_mi",
    "histogram_entropy",
    "histogram_mi",
]

DEFAULT_SPEC = NeighborSpec((1, 2, 3))

# Largest allowed number of histogram cells (product over axes).
HISTOGRAM_CELL_BUDGET = 10**8

_MI_DIMENSION_WARNING = "mutual information consistency guarantee requires d >= 3"
_MI_ALPHA_WARNING = (
    "alpha outside (1/2, 1): the mutual information consistency guarantee does not apply"
)


@dataclass(frozen=True)
class EstimatorSettings:
    """Settings shared by the entropy and mutual-information estimators.

    Parameters
    ----------
    alpha : float
        Entropy order, a real number (not a bool or a string) strictly
        inside (0, 1). The graph power is always derived from it as
        ``p = d * (1 - alpha)``.
    spec : NeighborSpec
        Neighbor ranks of the graph; defaults to {1, 2, 3}.
    gamma : float, "analytic", or None
        How to obtain the normalizing constant. An explicit value (a
        positive finite real, not a bool) is used as given (source
        ``"given"``). ``"analytic"`` uses the limit constant, the sum of
        :func:`gamma_analytic` over the ranks in ``spec`` (source
        ``"analytic"``). ``None``, the default, uses the limit constant for
        entropy (source ``"analytic"``); for mutual information it uses the
        limit times ``1 + b_S n^(-1/d)``, the unit cube's boundary factor at
        the sample's size ``n`` (source ``"boundary"``; see
        :func:`boundary_coefficient`), because the empirical copula lies in
        the unit cube.
    cache : GammaCache or None
        Checked, but ignored: the constant is closed-form and a
        :class:`GammaCache` stores nothing. It stays while the benchmark
        still passes one.
    workers : int
        Cap on the worker threads of neighbor queries: -1 uses all cores,
        otherwise an integer >= 1 (not a bool or a float). Small queries
        run on the calling thread (see ``knn_all``).
    """

    alpha: float
    spec: NeighborSpec = DEFAULT_SPEC
    gamma: float | str | None = None
    cache: GammaCache | None = None
    workers: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "spec", as_neighbor_spec(self.spec))
        object.__setattr__(self, "workers", check_workers(self.workers))
        g = self.gamma
        if isinstance(g, Real):
            object.__setattr__(self, "gamma", check_real(g, "explicit gamma"))
        elif not (g is None or g == "analytic"):
            raise ValueError(f'gamma must be a number, "analytic", or None; got {g!r}')
        if not (self.cache is None or isinstance(self.cache, GammaCache)):
            raise ValueError(f"cache must be a GammaCache or None, got {self.cache!r}")

    def p(self, d: int) -> float:
        """The graph power ``d * (1 - alpha)`` for a d-dimensional sample."""
        return d * (1.0 - self.alpha)


@dataclass(frozen=True)
class EstimateReport:
    """An estimate along with the settings and provenance that produced it."""

    value: float
    kind: str
    n: int
    d: int
    alpha: float
    p: float
    spec: tuple[int, ...] | None
    gamma: float | None
    gamma_source: str | None
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready dictionary of all fields."""
        return {
            "value": self.value,
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "alpha": self.alpha,
            "p": self.p,
            "S": list(self.spec) if self.spec is not None else None,
            "gamma": self.gamma,
            "gamma_source": self.gamma_source,
            "warnings": list(self.warnings),
        }


def _resolve_gamma(settings: EstimatorSettings, d: int, p: float, copula_n: int | None):
    """The normalizing constant and its source, as :class:`EstimatorSettings` documents.

    ``copula_n`` is the size of the empirical copula an MI estimate is taken
    on, and None for an entropy estimate.
    """
    g = settings.gamma
    if isinstance(g, Real):
        return float(g), "given"
    limit, b = _closed_form(d, p, settings.spec)
    if g == "analytic" or copula_n is None:
        return limit, "analytic"
    return limit * (1.0 + b * copula_n ** (-1.0 / d)), "boundary"


def renyi_entropy(points, settings: EstimatorSettings) -> EstimateReport:
    """Graph-based entropy estimate of a sample.

    The sample is used as-is (no rescaling); the estimator is
    scale-covariant through the length functional, so
    ``H(a X + b) = H(X) + d log a`` holds exactly at the estimate level.

    Raises
    ------
    InsufficientPointsError
        If ``n <= max(spec)``.
    DegenerateSampleError
        If a coordinate takes one value (see :func:`_check_spread`), or if
        the total edge length is zero (every point lies in a pile of more
        than ``max(spec)`` copies).
    """
    ps = as_point_set(points)
    graph = build_nn_graph(ps, settings.spec, workers=settings.workers)
    _check_spread(ps.points)
    return _graph_entropy(graph, settings)


def _check_spread(X: np.ndarray) -> None:
    """Raise :class:`DegenerateSampleError` if a column of ``X`` takes one value.

    Such a sample has no density in ``R^d``, yet its neighbor graph (that of
    the other columns) gives a finite, meaningless estimate. The check only
    reads the sample (the MI estimates pass its copula, whose columns take
    one value exactly where the sample's do), so every estimate it lets
    through keeps its bytes.
    """
    for j in range(X.shape[1]):
        column = X[:, j]
        if column.min() == column.max():
            raise DegenerateSampleError(f"degenerate sample: coordinate {j} has zero spread")


def _graph_entropy(
    graph: NNGraph, settings: EstimatorSettings, copula: bool = False
) -> EstimateReport:
    """Entropy estimate of ``graph.point_set`` from its graph for ``settings.spec``.

    ``copula`` marks the point set as an empirical copula, whose default
    constant carries the unit cube's boundary factor (see :func:`_copula_mi`).
    """
    ps = graph.point_set
    p = settings.p(ps.d)
    total = l_p(graph, p)
    if total <= 0.0:
        raise DegenerateSampleError("degenerate sample: total edge length is zero")
    gamma, source = _resolve_gamma(settings, ps.d, p, ps.n if copula else None)
    value = math.log(total / (gamma * ps.n ** (1.0 - p / ps.d))) / (1.0 - settings.alpha)
    return EstimateReport(
        value=value,
        kind="entropy",
        n=ps.n,
        d=ps.d,
        alpha=settings.alpha,
        p=p,
        spec=settings.spec.indices,
        gamma=gamma,
        gamma_source=source,
    )


def _copula_mi(copula, settings: EstimatorSettings, graph: NNGraph | None = None) -> EstimateReport:
    """MI estimate of the sample whose empirical copula is ``copula``.

    Minus the entropy estimate of the copula's graph for ``settings.spec``,
    which is searched here unless ``graph`` gives it, with the constant an
    MI estimate resolves: the unit cube's boundary factor at the copula's
    size by default. :func:`renyi_mi`, the rate study's estimator rows and
    the ISA's pair and block scores all go through here.
    """
    if graph is None:
        graph = build_nn_graph(copula, settings.spec, workers=settings.workers)
    ent = _graph_entropy(graph, settings, copula=True)
    return replace(ent, value=-ent.value, kind="mutual_information")


def empirical_copula(points) -> PointSet:
    """Map each coordinate of each point to its within-sample rank fraction.

    Output coordinate ``j`` of point ``i`` is ``(1/n) * #{l : X[l,j] <=
    X[i,j]}``. Values lie in (0, 1]; tied values share a rank; a tie-free
    marginal maps onto a permutation of ``{1/n, ..., n/n}``. The output is
    bit-identical under strictly increasing per-coordinate transforms of
    tie-free inputs.
    """
    ps = as_point_set(points)
    X = ps.points
    n = ps.n
    ranks = np.empty((n, ps.d), dtype=np.float64)
    for j in range(ps.d):
        # One sort per column: a value's rank is the sorted position just
        # past its last copy, and copies end where the sorted values change.
        order = np.argsort(X[:, j])
        ordered = X[order, j]
        ends = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, n)
        ranks[order, j] = np.repeat(ends, np.diff(ends, prepend=0))
    ranks /= n
    return PointSet(ranks)


def _mi_sample(points) -> PointSet:
    """``points`` as a :class:`PointSet` with the two or more coordinates MI is defined on."""
    ps = as_point_set(points)
    if ps.d < 2:
        raise ValueError(f"mutual information needs d >= 2 coordinates, got d = {ps.d}")
    return ps


def renyi_mi(points, settings: EstimatorSettings) -> EstimateReport:
    """Mutual information among the ``d >= 2`` coordinates of a sample.

    Computed as minus the entropy estimate of the empirical copula, whose
    default constant carries the unit cube's boundary factor at the
    sample's size (see :class:`EstimatorSettings`). The consistency
    guarantee covers ``d >= 3`` and ``alpha`` in (1/2, 1); outside that
    range the estimate is still computed but the report carries a warning.
    A single coordinate raises ``ValueError`` and a coordinate that takes
    one value ``DegenerateSampleError``.

    Once the sample is ranked, only its copula is held: a column takes one
    value exactly when its copula column does (``-0.0`` and ``0.0`` being
    one value), so the spread check reads the copula, and no copy of the
    raw sample is held during the neighbor search.
    """
    ps = _mi_sample(points)
    warnings = []
    if ps.d < 3:
        warnings.append(_MI_DIMENSION_WARNING)
    if not (0.5 < settings.alpha < 1.0):
        warnings.append(_MI_ALPHA_WARNING)
    copula = empirical_copula(ps)
    del ps
    graph = build_nn_graph(copula, settings.spec, workers=settings.workers)
    _check_spread(copula.points)
    return replace(_copula_mi(copula, settings, graph), warnings=tuple(warnings))


def _scott_bin_counts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis bin counts from the per-axis normal-reference rule."""
    n, d = X.shape
    _check_spread(X)
    sd = X.std(axis=0, ddof=1)
    if (sd == 0.0).any():
        raise DegenerateSampleError(
            "degenerate sample: a coordinate's spread underflows float64; rescale the data"
        )
    width = 3.49 * sd * n ** (-1.0 / 3.0)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    bins = np.maximum(1, np.ceil((hi - lo) / width)).astype(np.int64)
    total = float(np.prod(bins.astype(np.float64)))
    if total > HISTOGRAM_CELL_BUDGET:
        raise HistogramInfeasibleError(
            f"histogram infeasible in this dimension: {d} axes would need "
            f"~{total:.2e} cells (budget {HISTOGRAM_CELL_BUDGET:.0e})"
        )
    return bins, lo, hi


def histogram_entropy(points, alpha: float) -> EstimateReport:
    """Histogram plug-in entropy estimate (comparison baseline).

    Builds a regular histogram with per-axis bin width
    ``3.49 * sigma_hat * n^(-1/3)``, then evaluates the entropy integral of
    the piecewise-constant density. Infeasible when the bin grid would
    exceed :data:`HISTOGRAM_CELL_BUDGET` cells.
    """
    ps = as_point_set(points)
    alpha = check_alpha(alpha)
    if ps.n < 2:
        raise DegenerateSampleError("degenerate sample: histogram needs at least two points")
    X = ps.points
    bins, lo, hi = _scott_bin_counts(X)
    counts, _ = np.histogramdd(X, bins=bins, range=list(zip(lo, hi)))
    mass = counts[counts > 0] / ps.n
    log_cell_volume = float(np.log((hi - lo) / bins).sum())
    # integral of density^alpha = sum(mass^alpha) * cell_volume^(1-alpha)
    log_integral = math.log(math.fsum(mass**alpha)) + (1.0 - alpha) * log_cell_volume
    return EstimateReport(
        value=log_integral / (1.0 - alpha),
        kind="histogram_entropy",
        n=ps.n,
        d=ps.d,
        alpha=alpha,
        p=ps.d * (1.0 - alpha),
        spec=None,
        gamma=None,
        gamma_source=None,
    )


def histogram_mi(points, alpha: float) -> EstimateReport:
    """Histogram plug-in mutual information baseline.

    Minus the histogram entropy of the empirical copula, under the same
    :data:`HISTOGRAM_CELL_BUDGET`, so it targets the same functional as
    :func:`renyi_mi`; like it, it needs ``d >= 2``.
    """
    ent = histogram_entropy(empirical_copula(_mi_sample(points)), alpha)
    return replace(ent, value=-ent.value, kind="histogram_mi")
