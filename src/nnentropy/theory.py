"""Closed-form reference values for benchmarking the estimators.

These are the analytically known target quantities used by the experiment
drivers and the test suite: entropies of uniform and Gaussian laws, the
Gaussian mutual information, and the known convergence-rate exponent of the
graph-based mutual-information estimator.
"""

from __future__ import annotations

import math

import numpy as np

from .points import check_alpha, check_integer, check_power, check_real

__all__ = [
    "uniform_entropy",
    "gaussian_renyi_entropy",
    "gaussian_renyi_mi",
    "mi_rate_exponent",
]


def uniform_entropy(d: int, side: float = 1.0) -> float:
    """Entropy of the uniform distribution on a cube of the given side.

    Equals ``d * log(side)`` for every order alpha (the density is flat, so
    all Renyi entropies coincide with the log-volume).
    """
    return check_integer(d, "d") * math.log(check_real(side, "side"))


def _logdet(matrix: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0:
        raise ValueError("matrix must be positive definite")
    return float(logdet)


def gaussian_renyi_entropy(cov, alpha: float) -> float:
    """Order-alpha entropy of a centered Gaussian with covariance ``cov``.

    Integrating the alpha-th power of the Gaussian density gives
    ``(d/2) log(2 pi) + (1/2) log|cov| - (d/2) * log(alpha) / (1 - alpha)``.
    """
    alpha = check_alpha(alpha)
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    return (
        0.5 * d * math.log(2.0 * math.pi)
        + 0.5 * _logdet(cov)
        - 0.5 * d * math.log(alpha) / (1.0 - alpha)
    )


def gaussian_renyi_mi(cov, alpha: float) -> float:
    """Order-alpha mutual information among the coordinates of a Gaussian.

    For covariance ``C`` with diagonal part ``D`` the integral of
    ``f^alpha * (prod f_j)^(1-alpha)`` evaluates to
    ``|C|^(-alpha/2) |D|^(-(1-alpha)/2) |M|^(-1/2)`` with
    ``M = alpha C^{-1} + (1 - alpha) D^{-1}``, giving

        I_alpha = log(|C|^(-alpha/2) |D|^(-(1-alpha)/2) |M|^(-1/2)) / (alpha - 1).

    Zero when ``C`` is diagonal (independent coordinates).
    """
    alpha = check_alpha(alpha)
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    d = cov.shape[0]
    if cov.shape != (d, d) or d < 2:
        raise ValueError(f"covariance must be square with d >= 2, got shape {cov.shape}")
    diag = np.diag(np.diag(cov))
    m = alpha * np.linalg.inv(cov) + (1.0 - alpha) * np.linalg.inv(diag)
    log_integral = (
        -0.5 * alpha * _logdet(cov) - 0.5 * (1.0 - alpha) * _logdet(diag) - 0.5 * _logdet(m)
    )
    return log_integral / (alpha - 1.0)


def mi_rate_exponent(d: int, p: float) -> float:
    """Known error-decay exponent of the graph-based MI estimator.

    Returns ``kappa`` such that the estimation error for smooth copula
    densities is ``O(n^-kappa)``. The bound has three regimes in ``p``:

    * ``p <= 1``:          min((d-p) / (d(2d-p)), p/2 - p/d)
    * ``1 <= p <= d-1``:   min((d-p) / (d(2d-p)), 1/2 - p/d)
    * ``d-1 <= p < d``:    min((d-p) / (d(d+1)),  1/2 - p/d)

    Meaningful for ``d >= 3`` and ``alpha = 1 - p/d`` in (1/2, 1), where
    all branches are positive.
    """
    d = check_integer(d, "d")
    p = check_power(p, d)
    if p <= 1.0:
        return min((d - p) / (d * (2.0 * d - p)), p / 2.0 - p / d)
    if p <= d - 1.0:
        return min((d - p) / (d * (2.0 * d - p)), 0.5 - p / d)
    return min((d - p) / (d * (d + 1.0)), 0.5 - p / d)
