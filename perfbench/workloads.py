"""The three benchmark workloads: inputs, one pass of operations, checks.

Inputs come from the benchmark's own numpy code and the run's seed; the
study drivers still sample internally from a seed derived from it. A pass
calls the package only through module attributes (``cli.main``,
``estimators.renyi_mi``, ...), so the traced run's wrappers see every call.
Every operation and check is counted in a :class:`Ledger`: an exception, a
non-zero exit code, a non-finite value or a failed comparison is a failure.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nnentropy.cli as cli
import nnentropy.estimators as estimators
import nnentropy.experiments as experiments
import nnentropy.neighbors as neighbors
from nnentropy import (
    PAPER_SCALE_ISA,
    EstimatorSettings,
    IsaExperimentConfig,
    RateExperimentConfig,
    gaussian_renyi_mi,
)

ALPHA = 0.7  # order used by every estimate outside the ISA study
RHO = 0.5  # correlation of the equicorrelated Gaussians


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TOY`` the smoke check."""

    csv_rows: int
    small_rows: int
    small_calls: int  # CLI calls on the small CSV per pass
    acc_rows: int
    acc_samples: int
    ties_rows: int
    hd_rows: int
    hd_dim: int
    check_rows: int  # rows of the kd-tree/exhaustive comparison
    rate: RateExperimentConfig
    isa: IsaExperimentConfig


def _readme_rate_config(**overrides) -> RateExperimentConfig:
    return RateExperimentConfig.from_dict(
        {"distribution": {"kind": "gaussian", "d": 3, "rho": RHO}, **overrides}
    )


FULL = Sizes(
    csv_rows=200_000, small_rows=2_000, small_calls=60, acc_rows=2_000, acc_samples=25,
    ties_rows=100_000, hd_rows=3_000, hd_dim=25, check_rows=2_000,
    rate=_readme_rate_config(), isa=PAPER_SCALE_ISA,
)

TOY = Sizes(
    csv_rows=3_000, small_rows=300, small_calls=10, acc_rows=300, acc_samples=3,
    ties_rows=3_000, hd_rows=300, hd_dim=25, check_rows=300,
    rate=_readme_rate_config(n_grid=[64, 128], runs=2, n_cal=2_000, reps=2),
    isa=IsaExperimentConfig(shapes=("spiral", "star", "zigzag"), n=300, n_cal=2_000, reps=2),
)


class Ledger:
    """Attempted and failed operations and checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {detail}")

    def op(self, label: str, fn):
        """Run ``fn``; an exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failing operation is recorded, not fatal
            self.fail(label, traceback.format_exc(limit=3))
            return None

    def check(self, label: str, ok: bool, detail: str = "check failed") -> None:
        self.attempted += 1
        if not ok:
            self.fail(label, detail)


class Pass:
    """Times the operations of one pass under their metric names."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.times: dict[str, list[float]] = {}

    def call(self, metric: str, fn):
        """Time one call and return its result (None if it failed)."""
        start = time.perf_counter()
        result = self.ledger.op(metric, fn)
        self.times.setdefault(metric, []).append(time.perf_counter() - start)
        return result

    def value(self, metric: str, fn, points, settings) -> float | None:
        """Time one estimator call; a non-finite estimate is a failure."""
        return self.call(metric, lambda: finite_value(fn(points, settings).value))

    def cli(self, metric: str, argv: list[str]) -> float | None:
        """Time one in-process CLI call; return its JSON ``value``."""

        def invoke():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"exit code {code} for {argv}")
            return finite_value(json.loads(out.getvalue())["value"])

        return self.call(metric, invoke)


def finite_value(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite estimate {value}")
    return value


def finite(value) -> bool:
    return value is not None and math.isfinite(value)


def key(value):
    """Bitwise-comparable form of a float (None stays None)."""
    return None if value is None else float(value).hex()


def dup_share(points) -> float:
    """Share of rows that exactly repeat an earlier row."""
    points = np.asarray(points)
    return 1.0 - len(np.unique(points, axis=0)) / len(points)


def equicorrelated(rng, n: int, d: int, rho: float) -> np.ndarray:
    cov = np.full((d, d), rho)
    np.fill_diagonal(cov, 1.0)
    return rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T


def write_csv(path: Path, points: np.ndarray) -> None:
    """One row per point; ``repr`` round-trips every float exactly."""
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in points.tolist()))


def same_neighbors(a, b) -> bool:
    """Whether two ``knn_all`` results are bitwise equal."""
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


class CsvEstimate:
    """CLI ``entropy``/``mi`` on CSV files, then the library accuracy set."""

    name = "csv-estimate"
    why = ("What a CLI user waits for: CSV parse, the clean kd-tree path, the copula and l_p "
           "on continuous data, plus per-call overhead at 2k rows.")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, cache, ledger: Ledger) -> None:
        rng = np.random.default_rng(seed)
        self.sizes, self.cache, self.ledger = sizes, cache, ledger
        self.big = equicorrelated(rng, sizes.csv_rows, 3, RHO)
        self.small = equicorrelated(rng, sizes.small_rows, 3, RHO)
        self.uniform = [rng.random((sizes.acc_rows, 3)) for _ in range(sizes.acc_samples)]
        self.gauss = [equicorrelated(rng, sizes.acc_rows, 3, RHO) for _ in range(sizes.acc_samples)]
        self.big_csv, self.small_csv = workdir / "big.csv", workdir / "small.csv"
        write_csv(self.big_csv, self.big)
        write_csv(self.small_csv, self.small)
        cov = np.full((3, 3), RHO)
        np.fill_diagonal(cov, 1.0)
        self.gauss_truth = gaussian_renyi_mi(cov, ALPHA)
        self.settings = cache.settings(alpha=ALPHA)

    def _argv(self, command: str, path: Path) -> list[str]:
        return [command, str(path), "--alpha", str(ALPHA), *self.cache.cli_args()]

    def run_pass(self, p: Pass) -> dict:
        out = {
            "entropy": p.cli("entropy_s", self._argv("entropy", self.big_csv)),
            "mi": p.cli("mi_s", self._argv("mi", self.big_csv)),
            "small": [
                p.cli("mi_small_s", self._argv("mi", self.small_csv))
                for _ in range(self.sizes.small_calls)
            ],
        }
        lib = functools.partial(p.value, "library_s", settings=self.settings)
        out["uniform_h"] = [lib(estimators.renyi_entropy, u) for u in self.uniform]
        out["indep_mi"] = [lib(estimators.renyi_mi, u) for u in self.uniform]
        out["gauss_mi"] = [lib(estimators.renyi_mi, g) for g in self.gauss]
        return out

    @staticmethod
    def signature(out: dict):
        return {k: [key(v) for v in vs] if isinstance(vs, list) else key(vs) for k, vs in out.items()}

    def quality(self, out: dict) -> dict[str, float]:
        def mean_abs(values, truth):
            if not all(map(finite, values)):
                return math.nan
            return math.fsum(abs(v - truth) for v in values) / len(values)

        return {
            "uniform_h_abs_err": mean_abs(out["uniform_h"], 0.0),
            "indep_mi_abs_err": mean_abs(out["indep_mi"], 0.0),
            "gauss_mi_abs_err": mean_abs(out["gauss_mi"], self.gauss_truth),
        }

    def checks(self, out: dict) -> None:
        ledger = self.ledger
        plain = ledger.op("rank invariance", lambda: estimators.renyi_mi(self.big, self.settings).value)
        logged = ledger.op(
            "rank invariance", lambda: estimators.renyi_mi(np.exp(self.big), self.settings).value
        )
        ledger.check("renyi_mi(X) == renyi_mi(exp X) bitwise",
                     finite(plain) and key(plain) == key(logged), f"{plain!r} != {logged!r}")
        p = Pass(ledger)
        argv = self._argv("mi", self.small_csv)
        default, single = p.cli("threads", argv), p.cli("threads", argv + ["--threads", "1"])
        ledger.check("mi --threads 1 value == default value bitwise",
                     finite(default) and key(default) == key(single), f"{default!r} != {single!r}")

    def record(self) -> dict:
        n, spec = self.sizes, [1, 2, 3]
        op = {"d": 3, "S": spec, "alpha": ALPHA}
        return {
            "ops": {
                "entropy_s": {**op, "n": n.csv_rows, "input.dup_share": dup_share(self.big)},
                "mi_s": {**op, "n": n.csv_rows, "input.dup_share": copula_dup_share(self.big)},
                "mi_small_s": {**op, "n": n.small_rows, "calls_per_pass": n.small_calls,
                               "input.dup_share": copula_dup_share(self.small)},
                "library_s": {**op, "n": n.acc_rows, "calls_per_pass": 3 * n.acc_samples,
                              "input.dup_share": max(
                                  [dup_share(u) for u in self.uniform]
                                  + [copula_dup_share(x) for x in self.uniform + self.gauss])},
            },
            "gamma_keys": [{"d": 3, "p": 3 * (1 - ALPHA), "S": spec}],
        }


class Cliffs:
    """The tie fallback and the exhaustive high-dimension neighbor search."""

    name = "cliffs"
    why = ("The neighbor-search cliffs: the per-row tie fallback on rounded data and the "
           "exhaustive path at d > 20, which do no work in the other workloads.")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, cache, ledger: Ledger) -> None:
        rng = np.random.default_rng(seed)
        self.sizes, self.ledger = sizes, ledger
        self.rounded = np.round(equicorrelated(rng, sizes.ties_rows, 3, RHO), 1)
        self.wide = rng.standard_normal((sizes.hd_rows, sizes.hd_dim))
        self.ties_settings = cache.settings(alpha=ALPHA)
        self.ties_settings_1 = cache.settings(alpha=ALPHA, workers=1)
        # Calibrating at d = 25 would run the exhaustive path at n_cal
        # points, so the high-dimension estimate uses the closed form.
        self.wide_settings = EstimatorSettings(alpha=ALPHA, spec=(1,), gamma="analytic")

    def run_pass(self, p: Pass) -> dict:
        return {
            "ties_mi": p.value("ties_mi_s", estimators.renyi_mi, self.rounded, self.ties_settings),
            "highdim_entropy": p.value(
                "highdim_entropy_s", estimators.renyi_entropy, self.wide, self.wide_settings
            ),
        }

    @staticmethod
    def signature(out: dict):
        return {k: key(v) for k, v in out.items()}

    def quality(self, out: dict) -> dict[str, float]:
        return {}

    def checks(self, out: dict) -> None:
        ledger = self.ledger
        m = self.sizes.check_rows
        copula = ledger.op("copula", lambda: estimators.empirical_copula(self.rounded).points[:m])
        for label, points, k in (("rounded copula", copula, 3), ("d=25 sample", self.wide[:m], 1)):
            if points is None:
                continue
            kd = ledger.op("knn kdtree", lambda: neighbors.knn_all(points, k, method="kdtree"))
            brute = ledger.op("knn brute", lambda: neighbors.knn_all(points, k, method="brute"))
            ledger.check(f"knn kdtree == brute on {label}",
                         kd is not None and brute is not None and same_neighbors(kd, brute))
        single = ledger.op(
            "ties workers=1", lambda: estimators.renyi_mi(self.rounded, self.ties_settings_1).value
        )
        ledger.check("ties renyi_mi workers=1 == default bitwise",
                     finite(single) and key(single) == key(out["ties_mi"]),
                     f"{single!r} != {out['ties_mi']!r}")

    def record(self) -> dict:
        n = self.sizes
        return {
            "ops": {
                "ties_mi_s": {"n": n.ties_rows, "d": 3, "S": [1, 2, 3], "alpha": ALPHA,
                              "rounding": "1 decimal",
                              "input.dup_share": copula_dup_share(self.rounded)},
                "highdim_entropy_s": {"n": n.hd_rows, "d": n.hd_dim, "S": [1], "alpha": ALPHA,
                                      "gamma": "analytic",
                                      "input.dup_share": dup_share(self.wide)},
            },
            "gamma_keys": [{"d": 3, "p": 3 * (1 - ALPHA), "S": [1, 2, 3]}],
        }


class Studies:
    """The paper's two experiments: the rate study and paper-scale ISA."""

    name = "studies"
    why = ("The paper's two experiments: many small renyi_mi calls, so per-call overhead, "
           "small kd-trees, whitening, ICA and swap refinement matter; four gamma keys.")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, cache, ledger: Ledger) -> None:
        self.seed, self.sizes, self.cache, self.ledger = seed, sizes, cache, ledger

    def _rate(self, workers: int = -1):
        result = experiments.run_rate_experiment(
            self.sizes.rate, seed=self.seed, workers=workers, **self.cache.driver_kwargs()
        )
        for row in result.rows:
            if row.abs_error is not None:
                finite_value(row.abs_error)
        return result

    def _isa(self):
        result = experiments.run_isa_experiment(
            self.sizes.isa, seed=self.seed, **self.cache.driver_kwargs()
        )
        finite_value(result.solution.score)
        return result

    def run_pass(self, p: Pass) -> dict:
        rate = p.call("rate_study_s", self._rate)
        isa = p.call("isa_s", self._isa)
        return {"rate": rate, "isa": isa}

    @staticmethod
    def signature(out: dict):
        rate, isa = out["rate"], out["isa"]
        return {
            "rate": None if rate is None else _rate_rows(rate),
            "isa": None if isa is None else (
                isa.solution.blocks, key(isa.solution.score), key(isa.solution.objective)
            ),
        }

    def quality(self, out: dict) -> dict[str, float]:
        isa = out["isa"]
        return {"isa_score": math.nan if isa is None else isa.solution.score}

    def checks(self, out: dict) -> None:
        ledger = self.ledger
        single = ledger.op("rate workers=1", lambda: self._rate(workers=1))
        ledger.check("rate study workers=1 == default bitwise",
                     single is not None and out["rate"] is not None
                     and _rate_rows(single) == _rate_rows(out["rate"]))

    def record(self) -> dict:
        rate, isa = self.sizes.rate, self.sizes.isa
        isa_keys = [{"d": d, "p": d * (1 - isa.alpha), "S": list(isa.spec)}
                    for d in (2, isa.subspace_dim)]
        return {
            "ops": {
                "rate_study_s": {"n_grid": list(rate.n_grid), "runs": rate.runs, "d": 3,
                                 "estimators": {l: list(s) for l, s in rate.estimators},
                                 "histogram": rate.histogram, "alpha": rate.alpha},
                "isa_s": {"n": isa.n, "shapes": list(isa.shapes), "subspace_dim": isa.subspace_dim,
                          "q": isa.q, "S": list(isa.spec), "alpha": isa.alpha},
            },
            # The drivers sample their own inputs from continuous
            # distributions; the benchmark never sees them.
            "input.dup_share": None,
            "gamma_keys": [{"d": 3, "p": 3 * (1 - rate.alpha), "S": list(s)}
                           for _, s in rate.estimators] + isa_keys,
        }


def _rate_rows(result):
    return [(r.n, r.run, r.estimator, key(r.abs_error), r.note) for r in result.rows]


def copula_dup_share(points) -> float:
    return dup_share(estimators.empirical_copula(points).points)


WORKLOADS = {w.name: w for w in (CsvEstimate, Cliffs, Studies)}
