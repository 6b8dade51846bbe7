"""Calibration of the neighbor-graph normalizing constant.

The entropy estimator divides the graph functional by ``gamma * n^(1-p/d)``
where ``gamma`` is the limit of ``L_p / n^(1-p/d)`` on uniform unit-cube
samples. The limit depends on ``(d, p, S)`` only. It has a closed form for
every rank set: the single-rank constant :func:`gamma_analytic`, summed
over the ranks in ``S``. The constant can also be estimated by Monte Carlo
(:func:`estimate_gamma`), and such estimates can be cached on disk
(:class:`GammaCache`).
"""

from __future__ import annotations

import fcntl
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from ._version import __version__
from .errors import GammaCacheError
from .graph import build_nn_graph, l_p
from .points import NeighborSpec, as_neighbor_spec, check_integer, check_power, check_real

__all__ = [
    "DEFAULT_N_CAL",
    "DEFAULT_REPS",
    "GammaKey",
    "GammaEstimate",
    "estimate_gamma",
    "gamma_analytic",
    "GammaCache",
]

DEFAULT_N_CAL = 200_000
DEFAULT_REPS = 10


@dataclass(frozen=True)
class GammaKey:
    """Identifies one calibration target.

    The cache treats two keys as equal only when all five fields match, so
    estimates computed at different calibration sizes never collide. ``d``,
    ``n_cal`` and ``reps`` must be integers (not bools or floats) with
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


def estimate_gamma(key: GammaKey, seed: int = 0, workers: int = -1) -> GammaEstimate:
    """Monte-Carlo estimate of the graph constant for ``key``.

    Draws ``key.reps`` independent uniform samples of size ``key.n_cal`` on
    the unit cube, computes ``L_p / n_cal^(1-p/d)`` for each, and returns
    the replication mean and its standard error. Each replication uses a
    child stream spawned from ``seed``, so the result is deterministic and
    independent of evaluation order or thread count. One replication's
    sample and graph are freed before the next is drawn.
    """
    if not isinstance(key, GammaKey):
        raise ValueError("key must be a GammaKey")
    seed = check_integer(seed, "seed", 0)
    streams = np.random.SeedSequence(seed).spawn(key.reps)
    values = np.array([_replication(key, stream, workers) for stream in streams])
    mean = float(values.mean())
    if key.reps > 1:
        std_error = float(values.std(ddof=1) / math.sqrt(key.reps))
    else:
        std_error = 0.0
    return GammaEstimate(key=key, seed=seed, mean=mean, std_error=std_error)


def _replication(key: GammaKey, stream: np.random.SeedSequence, workers: int) -> float:
    """``L_p / n_cal^(1-p/d)`` of one uniform sample drawn from ``stream``."""
    pts = np.random.default_rng(stream).random((key.n_cal, key.d))
    graph = build_nn_graph(pts, key.spec, workers=workers)
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
    log_vd = (d / 2.0) * math.log(math.pi) - float(gammaln(d / 2.0 + 1.0))
    log_gamma = -(p / d) * log_vd + float(gammaln(k + p / d)) - float(gammaln(k))
    return math.exp(log_gamma)


_CACHE_FIELDS = ("d", "p", "S", "n_cal", "reps", "seed", "mean", "std_error", "tool_version")


def estimate_record(est: GammaEstimate) -> dict:
    """JSON-ready record of an estimate — the cache's line format."""
    return {
        "d": est.key.d,
        "p": est.key.p,
        "S": list(est.key.spec.indices),
        "n_cal": est.key.n_cal,
        "reps": est.key.reps,
        "seed": est.seed,
        "mean": est.mean,
        "std_error": est.std_error,
        "tool_version": __version__,
    }


class GammaCache:
    """A JSON Lines cache of calibration results.

    Each line is one record with fields ``d, p, S (sorted array), n_cal,
    reps, seed, mean, std_error, tool_version``. On read every field is
    checked as :class:`GammaKey` and :class:`GammaEstimate` check it (the
    integers must be JSON integers, the reals non-bool finite numbers), so
    a mistyped record raises :class:`GammaCacheError` naming its line
    instead of matching a key. Floats are written with Python's
    shortest-roundtrip repr, so cached means reload bit-exactly.
    The one read is :meth:`lookup` and the one write the append in
    :meth:`get_or_compute`; both hold an exclusive advisory lock on the
    cache file, so concurrent processes may duplicate work but cannot
    corrupt the file.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def _parse(self, fh) -> list[GammaEstimate]:
        out = []
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GammaCacheError(f"{self.path}: line {lineno}: invalid JSON ({exc.msg})") from None
            out.append(self._validate(rec, lineno))
        return out

    def _validate(self, rec, lineno: int) -> GammaEstimate:
        """The estimate a record holds, every field checked as the constructors check it."""
        where = f"{self.path}: line {lineno}"
        if not isinstance(rec, dict):
            raise GammaCacheError(f"{where}: record is not a JSON object")
        missing = [f for f in _CACHE_FIELDS if f not in rec]
        if missing:
            raise GammaCacheError(f"{where}: invalid gamma record, missing fields {missing}")
        ranks = "S must be a sorted array of distinct positive integers"
        try:
            if not isinstance(rec["S"], list):
                raise ValueError(ranks)
            key = GammaKey(d=rec["d"], p=rec["p"], spec=rec["S"], n_cal=rec["n_cal"], reps=rec["reps"])
            if rec["S"] != list(key.spec):
                raise ValueError(ranks)
            if not isinstance(rec["tool_version"], str):
                raise ValueError(f"tool_version must be a string, got {rec['tool_version']!r}")
            return GammaEstimate(
                key=key, seed=rec["seed"], mean=rec["mean"], std_error=rec["std_error"]
            )
        except ValueError as exc:
            raise GammaCacheError(f"{where}: invalid gamma record, {exc}") from None

    def lookup(self, key: GammaKey) -> GammaEstimate | None:
        """The first cached estimate matching ``key``, if any.

        Every record is parsed and validated under the lock, so a corrupt
        line raises :class:`GammaCacheError` whether or not it holds ``key``.
        """
        if not self.path.exists():
            return None
        with open(self.path, "a+", encoding="utf-8") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.seek(0)
                return next((est for est in self._parse(fh) if est.key == key), None)
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def get_or_compute(
        self, key: GammaKey, seed: int = 0, workers: int = -1
    ) -> tuple[GammaEstimate, bool]:
        """Return ``(estimate, was_hit)``; compute and persist on a miss.

        The cache is re-checked after computing, so if a concurrent process
        stored the same key first, its record wins and all callers see
        identical bytes.
        """
        hit = self.lookup(key)
        if hit is not None:
            return hit, True
        est = estimate_gamma(key, seed=seed, workers=workers)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+", encoding="utf-8") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.seek(0)
                for cached in self._parse(fh):
                    if cached.key == key:
                        return cached, True
                fh.seek(0, os.SEEK_END)
                fh.write(json.dumps(estimate_record(est)) + "\n")
                fh.flush()
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        return est, False
