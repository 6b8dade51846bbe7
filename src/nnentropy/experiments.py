"""Desk-scale experiment drivers.

Two studies ship with the package. The convergence-rate study estimates
mutual information on growing samples from a known distribution and
records per-run absolute errors for the neighbor-graph estimators, the
histogram baseline, and a theoretical reference slope anchored at the
smallest size, the first of a strictly increasing grid. The
subspace-separation study mixes independent wireframe sources through a
random matrix and runs the full separation pipeline, scoring the result
against the known mixing. Both are driven by small JSON configs (parsed
here) and emit plot-ready long-format tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import estimators
from .calibration import DEFAULT_N_CAL, DEFAULT_REPS
from .errors import DataFormatError, HistogramInfeasibleError
from .estimators import DEFAULT_SPEC, EstimatorSettings, empirical_copula, histogram_entropy

# Unused here: the benchmark's tracer (perfbench/spans.py) wraps these
# attributes of this module, so they stay until it goes (ROADMAP item 6).
from .estimators import histogram_mi, renyi_mi  # noqa: F401
from .graph import _rank_columns, build_nn_graph
from .isa import IsaProblem, IsaSolution, block_norm_matrix, run_isa
from .points import NeighborSpec, _json_form, _json_keys, as_neighbor_spec, check_alpha
from .points import check_integer, check_real
from .samplers import (
    WIREFRAME_SHAPES,
    DistributionSpec,
    Gaussian,
    Product,
    UniformCube,
    Wireframe3D,
    check_json_keys,
    mix,
    sample,
    spec_dim,
    spec_from_json,
    spec_to_json,
)
from .theory import gaussian_renyi_mi, mi_rate_exponent

__all__ = [
    "PAPER_SCALE_ISA",
    "RateExperimentConfig",
    "RateRow",
    "RateExperimentResult",
    "IsaExperimentConfig",
    "IsaExperimentResult",
    "mi_truth",
    "run_rate_experiment",
    "run_isa_experiment",
]

# The two neighbor-graph estimators the rate study compares: the single
# third-neighbor graph and the full first-three-neighbors graph.
DEFAULT_RATE_ESTIMATORS = (("kth", NeighborSpec((3,))), ("knn", DEFAULT_SPEC))

_INFEASIBLE_NOTE = "histogram infeasible in this dimension"


def mi_truth(spec: DistributionSpec, alpha: float) -> float:
    """Ground-truth mutual information of a distribution, where known.

    Uniform cubes and products of one-dimensional factors have independent
    coordinates, so the truth is 0; Gaussians have a closed form. Anything
    else raises ``ValueError`` — supply the truth explicitly in the config.
    """
    alpha = check_alpha(alpha)
    if isinstance(spec, UniformCube):
        return 0.0
    if isinstance(spec, Product) and all(spec_dim(part) == 1 for part in spec.parts):
        return 0.0
    if isinstance(spec, Gaussian):
        return gaussian_renyi_mi(spec.cov, alpha)
    raise ValueError(
        "no closed-form mutual information for this distribution; set a numeric truth"
    )


def _ranks_from_json(value, where: str) -> list:
    """A rank set as the JSON configs give it: an array, not a comma string."""
    if not isinstance(value, list):
        raise DataFormatError(f"{where} must be a JSON array of ranks, got {value!r}")
    return value


def _distribution_from_json(obj) -> DistributionSpec:
    """Parse a distribution, allowing a Gaussian (d, rho) shorthand.

    ``{"kind": "gaussian", "d": 3, "rho": 0.5}`` expands to the
    zero-mean equicorrelated Gaussian; everything else is the samplers'
    canonical JSON form. Both reject keys they do not have.
    """
    if isinstance(obj, dict) and obj.get("kind") == "gaussian" and "cov" not in obj:
        check_json_keys(obj, ("kind", "d", "rho"), "gaussian shorthand")
        try:
            d = check_integer(obj["d"], "d")
            rho = check_real(obj.get("rho", 0.0), "rho", -math.inf)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"invalid gaussian shorthand: {exc}") from None
        cov = np.full((d, d), rho)
        np.fill_diagonal(cov, 1.0)
        return Gaussian(mean=np.zeros(d), cov=cov)
    return spec_from_json(obj)


@dataclass(frozen=True, eq=False)
class RateExperimentConfig:
    """Settings of one convergence-rate study.

    ``truth`` is the target mutual information the errors are measured
    against; :meth:`from_dict` resolves the string ``"auto"`` through
    :func:`mi_truth`. ``estimators`` pairs a CSV label (a string other than
    ``"hist"`` and ``"theoretical"``, which label the baseline and reference
    rows) with the neighbor ranks it uses. Every field is checked on
    construction: the distribution must have at least two coordinates, the
    sizes, ``runs``, ``n_cal`` and ``reps`` must be integers (not bools or
    floats), every size and ``n_cal`` larger than the largest rank, the
    sizes strictly increasing, ``alpha`` a real in (0, 1) and ``histogram``
    a bool. ``n_cal`` and ``reps`` are echoed in :meth:`to_dict` but affect
    no estimate: the constant is closed-form. The JSON form has one key per
    field, named as the field.
    """

    distribution: DistributionSpec
    truth: float
    n_grid: tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    runs: int = 25
    alpha: float = 0.7
    estimators: tuple[tuple[str, NeighborSpec], ...] = DEFAULT_RATE_ESTIMATORS
    histogram: bool = True
    n_cal: int = DEFAULT_N_CAL
    reps: int = DEFAULT_REPS

    def __post_init__(self) -> None:
        if spec_dim(self.distribution) < 2:
            raise ValueError("mutual information needs a distribution with d >= 2 coordinates")
        object.__setattr__(self, "truth", check_real(self.truth, "truth", -math.inf))
        ests = tuple((label, as_neighbor_spec(spec)) for label, spec in self.estimators)
        if not ests:
            raise ValueError("at least one estimator is required")
        for label, _ in ests:
            if not isinstance(label, str):
                raise ValueError(f"estimator label must be a string, got {label!r}")
            if label in ("hist", "theoretical"):
                raise ValueError(
                    f"estimator label {label!r} is reserved for the histogram baseline "
                    "and theoretical reference rows"
                )
        if len({label for label, _ in ests}) != len(ests):
            raise ValueError("estimator labels must be distinct")
        object.__setattr__(self, "estimators", ests)
        k = max(spec.k for _, spec in ests)
        if not isinstance(self.n_grid, (list, tuple)) or not self.n_grid:
            raise ValueError(f"n_grid must be a nonempty list of sizes, got {self.n_grid!r}")
        grid = tuple(check_integer(n, "n_grid size", k + 1) for n in self.n_grid)
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must strictly increase, got {list(grid)}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "runs", check_integer(self.runs, "runs"))
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not isinstance(self.histogram, bool):
            raise ValueError(f"histogram must be true or false, got {self.histogram!r}")
        object.__setattr__(self, "n_cal", check_integer(self.n_cal, "n_cal", k + 1))
        object.__setattr__(self, "reps", check_integer(self.reps, "reps"))

    @classmethod
    def from_dict(cls, obj: dict) -> RateExperimentConfig:
        """Build a config from its JSON form, resolving ``"truth": "auto"``."""
        if not isinstance(obj, dict):
            raise DataFormatError("rate config must be a JSON object")
        check_json_keys(obj, _json_keys(cls), "rate config")
        if "distribution" not in obj:
            raise DataFormatError("rate config needs a 'distribution'")
        kwargs = dict(obj, distribution=_distribution_from_json(obj["distribution"]))
        if "estimators" in obj:
            ests = obj["estimators"]
            if not isinstance(ests, list):
                raise DataFormatError("'estimators' must be a list of {label, S} objects")
            for entry in ests:
                if not isinstance(entry, dict) or set(entry) != {"label", "S"}:
                    raise DataFormatError(
                        "each estimator must be an object with exactly 'label' and 'S'"
                    )
            kwargs["estimators"] = tuple(
                (entry["label"], _ranks_from_json(entry["S"], "estimators: S")) for entry in ests
            )
        truth = obj.get("truth", "auto")
        if not (truth == "auto" or isinstance(truth, Real)):
            raise DataFormatError(f'truth must be a number or "auto", got {truth!r}')
        try:
            kwargs["alpha"] = check_alpha(obj.get("alpha", 0.7))
            if truth == "auto":
                kwargs["truth"] = mi_truth(kwargs["distribution"], kwargs["alpha"])
            return cls(**kwargs)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-ready form (with the truth resolved to a number)."""
        return _json_form(
            self,
            distribution=spec_to_json(self.distribution),
            estimators=[{"label": l, "S": list(s)} for l, s in self.estimators],
        )


@dataclass(frozen=True)
class RateRow:
    """One long-format record: a per-run error, a reference value, or a note.

    ``run`` is None on theoretical-reference and note rows; ``abs_error``
    is None on note rows.
    """

    n: int
    run: int | None
    estimator: str
    abs_error: float | None
    note: str = ""


@dataclass(frozen=True, eq=False)
class RateExperimentResult:
    """All rows produced by one rate study, plus summary helpers."""

    config: RateExperimentConfig
    rows: tuple[RateRow, ...]

    def mean_errors(self) -> dict[str, dict[int, float]]:
        """Mean absolute error per estimator per sample size."""
        sums: dict[str, dict[int, list[float]]] = {}
        for row in self.rows:
            if row.run is None or row.abs_error is None:
                continue
            sums.setdefault(row.estimator, {}).setdefault(row.n, []).append(row.abs_error)
        return {
            label: {n: math.fsum(v) / len(v) for n, v in per_n.items()}
            for label, per_n in sums.items()
        }

    def summary(self) -> dict:
        """JSON-ready digest: config echo plus the mean-error table."""
        means = self.mean_errors()
        return {
            "config": self.config.to_dict(),
            "mean_abs_error": {
                label: {str(n): means[label][n] for n in sorted(means[label])}
                for label in sorted(means)
            },
            "notes": sorted({row.note for row in self.rows if row.note}),
        }

    def write_csv(self, path) -> None:
        """Write the long-format table with header ``n,run,estimator,abs_error,note``."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "run", "estimator", "abs_error", "note"])
            for row in self.rows:
                writer.writerow([
                    row.n,
                    "" if row.run is None else row.run,
                    row.estimator,
                    "" if row.abs_error is None else repr(row.abs_error),
                    row.note,
                ])


def run_rate_experiment(
    config: RateExperimentConfig, seed=0, cache=None, workers: int = -1
) -> RateExperimentResult:
    """Run the convergence-rate study; deterministic given ``seed``.

    Per (size, run) a fresh sample is drawn and every estimator records
    ``|estimate - truth|``. Each sample is ranked once and searched once,
    to the largest rank any estimator uses; each estimator reads its rank
    columns of that neighbor table and the histogram reads the same copula,
    so the rows equal what :func:`renyi_mi` and :func:`histogram_mi` give
    on the sample, bitwise, including the normalizing constant, which each
    estimate resolves at its own sample size. ``cache`` is accepted and
    ignored, since no constant is calibrated. Where the histogram baseline
    is infeasible, its rows are replaced by a single note row per size.
    The theoretical reference decays from the anchor (the "knn" — else
    first — estimator's mean error at the smallest size, the first of the
    strictly increasing grid) with the rate exponent of the estimator's
    dimension; it is omitted below dimension 3, where no rate guarantee
    exists.
    """
    d = spec_dim(config.distribution)
    resolved = [
        (label, EstimatorSettings(alpha=config.alpha, spec=ranks, workers=workers))
        for label, ranks in config.estimators
    ]
    k = max(ranks.k for _, ranks in config.estimators)
    table_spec = NeighborSpec(tuple(range(1, k + 1)))

    streams = np.random.SeedSequence(seed).spawn(len(config.n_grid) * config.runs)
    rows: list[RateRow] = []
    for ni, n in enumerate(config.n_grid):
        hist_infeasible = False
        for run in range(config.runs):
            points = sample(config.distribution, n, streams[ni * config.runs + run])
            copula = empirical_copula(points)
            table = build_nn_graph(copula, table_spec, workers=workers)
            for label, settings in resolved:
                graph = _rank_columns(copula, settings.spec, table.neighbor_index, table.length)
                value = estimators._copula_mi(copula, settings, graph).value
                rows.append(RateRow(n, run, label, abs(value - config.truth)))
            if config.histogram and not hist_infeasible:
                try:
                    value = -histogram_entropy(copula, config.alpha).value
                except HistogramInfeasibleError:
                    hist_infeasible = True
                    rows.append(RateRow(n, None, "hist", None, _INFEASIBLE_NOTE))
                else:
                    rows.append(RateRow(n, run, "hist", abs(value - config.truth)))

    if d >= 3:
        kappa = mi_rate_exponent(d, d * (1.0 - config.alpha))
        labels = [label for label, _ in config.estimators]
        anchor_label = "knn" if "knn" in labels else labels[0]
        n0 = config.n_grid[0]
        mean_at_n0 = [
            r.abs_error for r in rows if r.estimator == anchor_label and r.n == n0
        ]
        anchor = math.fsum(mean_at_n0) / len(mean_at_n0)
        for n in config.n_grid:
            rows.append(RateRow(n, None, "theoretical", anchor * (n / n0) ** (-kappa)))

    return RateExperimentResult(config=config, rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class IsaExperimentConfig:
    """Settings of one subspace-separation study.

    ``shapes`` names the wireframe sources (one block each); 2-D blocks
    use the xy projection of the shape. ``mixing`` is either a seeded
    standard-normal matrix or the identity; ``q`` lifts the observations
    to a higher dimension (random mixing only). Every field is checked on
    construction: ``subspace_dim``, ``n``, ``q``, ``n_cal`` and ``reps``
    must be integers (not bools or floats) and ``alpha`` a real in (0, 1).
    ``n_cal`` and ``reps`` are echoed in :meth:`to_dict` but affect no
    estimate: the constant is closed-form. The JSON form has one key per
    field, named as the field, with ``spec`` as ``"S"``.
    """

    shapes: tuple[str, ...]
    subspace_dim: int = 2
    n: int = 2000
    alpha: float = 0.99
    spec: NeighborSpec = DEFAULT_SPEC
    mixing: str = "gaussian"
    q: int | None = None
    n_cal: int = DEFAULT_N_CAL
    reps: int = DEFAULT_REPS

    def __post_init__(self) -> None:
        shapes = tuple(str(s) for s in self.shapes)
        if len(shapes) < 2:
            raise ValueError("need at least two source shapes")
        for shape in shapes:
            if shape not in WIREFRAME_SHAPES:
                raise ValueError(
                    f"unknown wireframe shape {shape!r}; choose from {sorted(WIREFRAME_SHAPES)}"
                )
        object.__setattr__(self, "shapes", shapes)
        d = check_integer(self.subspace_dim, "subspace_dim", 2)
        if d > 3:
            raise ValueError(f"subspace_dim must be 2 or 3, got {d}")
        object.__setattr__(self, "subspace_dim", d)
        object.__setattr__(self, "n", check_integer(self.n, "n", 10))
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        spec = as_neighbor_spec(self.spec)
        object.__setattr__(self, "spec", spec)
        if self.mixing not in ("gaussian", "identity"):
            raise ValueError(f"mixing must be 'gaussian' or 'identity', got {self.mixing!r}")
        dm = d * len(shapes)
        q = dm if self.q is None else check_integer(self.q, "q", dm)
        if self.mixing == "identity" and q != dm:
            raise ValueError("identity mixing requires q == subspace_dim * num_sources")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n_cal", check_integer(self.n_cal, "n_cal", spec.k + 1))
        object.__setattr__(self, "reps", check_integer(self.reps, "reps"))

    @classmethod
    def from_dict(cls, obj: dict) -> IsaExperimentConfig:
        """Build a config from its JSON form."""
        if not isinstance(obj, dict):
            raise DataFormatError("ISA config must be a JSON object")
        keys = _json_keys(cls)
        check_json_keys(obj, keys, "ISA config")
        if "shapes" not in obj or not isinstance(obj["shapes"], list):
            raise DataFormatError("ISA config needs a 'shapes' list")
        kwargs = {keys[key]: value for key, value in obj.items()}
        if "S" in obj:
            kwargs["spec"] = _ranks_from_json(obj["S"], "S")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return _json_form(self)


# The full-size configuration from the source-separation study: six 3-D
# wireframe sources observed through a random 18 x 18 mixing.
PAPER_SCALE_ISA = IsaExperimentConfig(
    shapes=("spiral", "trefoil", "cube_edges", "star", "rings", "zigzag"),
    subspace_dim=3,
)


@dataclass(frozen=True, eq=False)
class IsaExperimentResult:
    """Outcome of one separation study against the known mixing."""

    config: IsaExperimentConfig
    solution: IsaSolution
    block_norms: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready digest of the solution and its score."""
        return {
            "config": self.config.to_dict(),
            "blocks": [list(b) for b in self.solution.blocks],
            "objective": self.solution.objective,
            "amari_block_index": self.solution.score,
            "iterations": self.solution.iterations,
            "converged": self.solution.converged,
            "warnings": list(self.solution.warnings),
        }

    def write_block_norms_csv(self, path) -> None:
        """Write the (m, m) recovered-vs-true block-norm matrix."""
        m = len(self.config.shapes)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"true_block_{j}" for j in range(m)])
            for row in self.block_norms:
                writer.writerow([repr(float(v)) for v in row])


def run_isa_experiment(
    config: IsaExperimentConfig, seed=0, cache=None, workers: int = -1
) -> IsaExperimentResult:
    """Sample sources, mix, separate, and score; deterministic given ``seed``.

    ``cache`` is accepted and ignored, since no constant is calibrated.
    """
    d, m = config.subspace_dim, len(config.shapes)
    axes = (0, 1) if d == 2 else (0, 1, 2)
    sources = Product(tuple(Wireframe3D(shape, axes=axes) for shape in config.shapes))

    sample_ss, mix_ss, pipe_ss = np.random.SeedSequence(seed).spawn(3)
    src = sample(sources, config.n, sample_ss)
    if config.mixing == "identity":
        mixing = np.eye(d * m)
    else:
        mixing = np.random.default_rng(mix_ss).standard_normal((config.q, d * m))
    problem = IsaProblem(
        mix(src, mixing), subspace_dim=d, num_sources=m, true_mixing=mixing
    )
    settings = EstimatorSettings(alpha=config.alpha, spec=config.spec, workers=workers)
    solution = run_isa(problem, settings, seed=int(pipe_ss.generate_state(1)[0]))
    norms = block_norm_matrix(solution.separation @ mixing, d, m)
    return IsaExperimentResult(config=config, solution=solution, block_norms=norms)
