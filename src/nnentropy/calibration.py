"""The neighbor-graph normalizing constant, in closed form and by Monte Carlo.

The entropy estimator divides the graph functional by ``gamma * n^(1-p/d)``
where ``gamma`` is the limit of ``L_p / n^(1-p/d)`` on uniform unit-cube
samples. The limit depends on ``(d, p, S)`` only. It has a closed form for
every rank set: the single-rank constant :func:`gamma_analytic`, summed
over the ranks in ``S``. On ``n`` points of the unit cube the functional
exceeds that limit by a boundary term, ``gamma (1 + b_S n^(-1/d))`` to first
order, where ``b_S`` averages :func:`boundary_coefficient` over ``S`` with
the single-rank constants as weights. The estimators and the ``calibrate``
command take both numbers from one memoized function.

The constant at a finite size can also be estimated by Monte Carlo on the
cube (:func:`estimate_gamma`). No estimate and no command uses it; it is the
cross-check of the closed forms. :class:`GammaCache` stores nothing and
stays only because the benchmark still passes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import betainc, gammaln

from .graph import build_nn_graph, l_p
from .points import NeighborSpec, as_neighbor_spec, check_integer, check_power, check_real

__all__ = [
    "DEFAULT_N_CAL",
    "DEFAULT_REPS",
    "GammaKey",
    "GammaEstimate",
    "estimate_gamma",
    "gamma_analytic",
    "boundary_coefficient",
    "GammaCache",
]

DEFAULT_N_CAL = 200_000
DEFAULT_REPS = 10

# Gauss-Legendre nodes of the boundary integral J(d, p); they reproduce
# adaptive quadrature to 2e-10 relative for d up to 25 and p down to 0.02.
_BOUNDARY_NODES = 64


@dataclass(frozen=True)
class GammaKey:
    """Identifies one calibration target.

    Two keys are equal only when all five fields match. ``d``, ``n_cal``
    and ``reps`` must be integers (not bools or floats) with
    ``n_cal > max(S)``, and ``p`` a real in (0, d).
    """

    d: int
    p: float
    spec: NeighborSpec
    n_cal: int = DEFAULT_N_CAL
    reps: int = DEFAULT_REPS

    def __post_init__(self) -> None:
        d = check_integer(self.d, "d")
        spec = as_neighbor_spec(self.spec)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", check_power(self.p, d))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n_cal", check_integer(self.n_cal, "n_cal", spec.k + 1))
        object.__setattr__(self, "reps", check_integer(self.reps, "reps"))


@dataclass(frozen=True)
class GammaEstimate:
    """A Monte-Carlo estimate of the constant, with replication uncertainty.

    ``seed`` must be an integer >= 0, ``mean`` a positive finite real and
    ``std_error`` a nonnegative finite real (none of them a bool).
    """

    key: GammaKey
    seed: int
    mean: float
    std_error: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 0))
        object.__setattr__(self, "mean", check_real(self.mean, "gamma mean"))
        object.__setattr__(self, "std_error", check_real(self.std_error, "std_error", strict=False))


def estimate_gamma(key: GammaKey, seed: int = 0) -> GammaEstimate:
    """Monte-Carlo estimate of the graph constant for ``key``.

    Draws ``key.reps`` independent uniform samples of size ``key.n_cal`` on
    the unit cube, computes ``L_p / n_cal^(1-p/d)`` for each, and returns
    the replication mean and its standard error. Each replication uses a
    child stream spawned from ``seed``, so the result is deterministic and
    independent of evaluation order. One replication's sample and graph
    are freed before the next is drawn.
    """
    if not isinstance(key, GammaKey):
        raise ValueError("key must be a GammaKey")
    seed = check_integer(seed, "seed", 0)
    streams = np.random.SeedSequence(seed).spawn(key.reps)
    values = np.array([_replication(key, stream) for stream in streams])
    mean = float(values.mean())
    if key.reps > 1:
        std_error = float(values.std(ddof=1) / math.sqrt(key.reps))
    else:
        std_error = 0.0
    return GammaEstimate(key=key, seed=seed, mean=mean, std_error=std_error)


def _replication(key: GammaKey, stream: np.random.SeedSequence) -> float:
    """``L_p / n_cal^(1-p/d)`` of one uniform sample drawn from ``stream``."""
    pts = np.random.default_rng(stream).random((key.n_cal, key.d))
    graph = build_nn_graph(pts, key.spec)
    return l_p(graph, key.p) / key.n_cal ** (1.0 - key.p / key.d)


def gamma_analytic(d: int, p: float, k: int) -> float:
    """Closed-form limit constant for the single-rank spec ``{k}``.

    The value is ``V_d^(-p/d) * Gamma(k + p/d) / Gamma(k)`` where ``V_d``
    is the volume of the d-dimensional unit ball. It is obtained by
    equating the graph-based entropy estimator with the classical
    single-rank form whose normalization is known in closed form, and it
    matches :func:`estimate_gamma` in the large-sample limit (the two are
    mutual cross-checks). The functional of a rank set ``S`` is the sum of
    its single-rank functionals edge by edge, so the constant of ``S`` is
    the sum of this constant over ``k`` in ``S``.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    p : float
        Power, 0 < p < d.
    k : int
        The single neighbor rank, >= 1.
    """
    d, k = check_integer(d, "d"), check_integer(k, "k")
    p = check_power(p, d)
    log_gamma = -(p / d) * _log_ball_volume(d) + float(gammaln(k + p / d)) - float(gammaln(k))
    return math.exp(log_gamma)


def boundary_coefficient(d: int, p: float, k: int) -> float:
    """First-order boundary coefficient ``b_k`` of the unit cube for rank ``k``.

    On ``n`` uniform points in the unit cube, ``E L_p / n^(1-p/d)`` of the
    single-rank graph is ``gamma_k (1 + b_k n^(-1/d))`` to first order, where
    ``gamma_k`` is :func:`gamma_analytic`: a point near a face sees no
    neighbors beyond it, so its edges are longer. The excess of a point at a
    given depth below one face, integrated over the depth and summed over the
    ``2d`` faces, is

        b_k = (2p/a) V_d^(-1/d) Gamma(k+a) / Gamma(k+p/d) J(d, p),  a = (p+1)/d,
        J(d, p) = integral over u in [0, 1] of (c(u)^(-a) - 1),

    where ``c(u) = 1 - I_{1-u^2}((d+1)/2, 1/2) / 2`` is the share of a ball on
    the inner side of a face ``u`` radii from its center. ``J`` is a fixed
    64-node Gauss-Legendre sum, memoized per ``(d, p)``, so the value is
    deterministic to the bit. A rank set ``S`` has the coefficient
    ``sum(gamma_k b_k) / sum(gamma_k)`` over ``k`` in ``S``. The periodic box
    has no faces, and its constant has no such term.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    p : float
        Power, 0 < p < d.
    k : int
        The single neighbor rank, >= 1.
    """
    d, k = check_integer(d, "d"), check_integer(k, "k")
    p = check_power(p, d)
    a = (p + 1.0) / d
    log_ratio = -_log_ball_volume(d) / d + float(gammaln(k + a)) - float(gammaln(k + p / d))
    return 2.0 * p / a * math.exp(log_ratio) * _boundary_integral(d, p)


@lru_cache(maxsize=256)
def _closed_form(d: int, p: float, spec: NeighborSpec) -> tuple[float, float]:
    """The limit constant of ``spec`` and its unit-cube boundary coefficient ``b_S``."""
    terms = [gamma_analytic(d, p, k) for k in spec]
    weighted = math.fsum(g * boundary_coefficient(d, p, k) for g, k in zip(terms, spec))
    limit = math.fsum(terms)
    return limit, weighted / limit


def _log_ball_volume(d: int) -> float:
    """``log V_d``, the log volume of the d-dimensional unit ball."""
    return (d / 2.0) * math.log(math.pi) - float(gammaln(d / 2.0 + 1.0))


@lru_cache(maxsize=256)
def _boundary_integral(d: int, p: float) -> float:
    """``J(d, p)`` of :func:`boundary_coefficient`, by Gauss-Legendre on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_BOUNDARY_NODES)
    u = 0.5 * (x + 1.0)
    inside = 1.0 - 0.5 * betainc((d + 1) / 2.0, 0.5, 1.0 - u * u)
    return 0.5 * float(w @ (inside ** (-(p + 1.0) / d) - 1.0))


class GammaCache:
    """A handle that the benchmark still passes; it stores nothing.

    No estimate and no command reads a cache: every constant is closed-form.
    ``perfbench/coldcache.py`` still builds one from a path and passes it as
    ``EstimatorSettings(cache=)`` and as the study drivers' ``cache=``, and
    ``perfbench/spans.py`` wraps :meth:`get_or_compute`. ROADMAP items 0 and
    3 delete this class with those users.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def get_or_compute(self, key: GammaKey, seed: int = 0) -> tuple[GammaEstimate, bool]:
        """Return ``(estimate_gamma(key, seed), False)``; nothing is stored."""
        return estimate_gamma(key, seed=seed), False
