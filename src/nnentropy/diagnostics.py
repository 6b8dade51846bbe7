"""Structural checks on the edge-length functionals.

The estimator's consistency rests on a family of deterministic properties
of ``L_p`` and its boundary variant: translation invariance, ``p``-homogeneous
scaling, the boundary functional never exceeding the plain one, exact
superadditivity over subcube partitions, approximate subadditivity, bounded
in-degree, bounded growth, smoothness under point edits, stability under
adding one point, and robustness to small perturbations. Each check here
evaluates one of them on concrete instances and returns a small report with
the measured numbers and a pass flag; :func:`run_diagnostics` bundles a
standard grid of them into a single machine-readable summary.

Exact identities and inequalities are asserted outright. The approximate
bounds hold up to dimension-dependent constants with no usable closed form,
so those checks compare against constants frozen from a one-time empirical
survey (``scripts/survey_constants.py``, grids documented there; frozen
2026-08-15 at twice the maximum observed ratio). The frozen values live in
:data:`SURVEYED`.

Every check takes its sizes, dimensions, counts and partition granularity
as integers (not bools or floats) and ``p`` as a finite real: in (0, d),
or any ``p >= 0`` for the two exact identities.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .graph import build_boundary_graph, build_nn_graph, l_p
from .points import (
    Cube,
    PointSet,
    as_neighbor_spec,
    as_point_set,
    check_integer,
    check_power,
    check_real,
)
from .samplers import _as_seed_sequence

__all__ = [
    "SURVEYED",
    "GROWTH_SPREAD_BOUND",
    "PERTURBATION_EPSILONS",
    "TranslationScalingReport",
    "BoundaryReport",
    "GrowthIndegreeReport",
    "SmoothnessReport",
    "SubadditivityReport",
    "AddOneReport",
    "PerturbationReport",
    "DiagnosticsSummary",
    "check_translation_scaling",
    "check_boundary_and_superadditivity",
    "check_growth_and_indegree",
    "check_smoothness",
    "check_subadditivity",
    "check_add_one",
    "check_perturbation",
    "run_diagnostics",
]

# Frozen survey results (see module docstring). Keys: "indegree_c" maps
# dimension -> c with max in-degree <= c * max(S); the rest are the bounds
# on the normalized ratios defined in the corresponding check.
SURVEYED = {
    "indegree_c": {1: 4.0, 2: 8.0, 3: 10.0, 5: 12.0},
    "smoothness": 3.46,
    "subadditivity": 3.4392,
    "add_one": 4.2875,
    "perturbation": 0.1874,
}

# The growth ratio L_p / n^(1 - p/d) converges (to the calibration constant),
# so its spread across the n sweep is a fixed small factor by design, not a
# surveyed quantity.
GROWTH_SPREAD_BOUND = 3.0

# Displacement norms of the perturbation check: small against the typical
# neighbor distance of the surveyed samples (n = 1000 in the unit cube).
PERTURBATION_EPSILONS = (1e-3, 1e-2)

_DEFAULT_N_SWEEP = (256, 512, 1024, 2048, 4096, 8192)


@dataclass(frozen=True)
class TranslationScalingReport:
    """Relative errors of the exact translation/scaling identities."""

    translation_rel_err: float
    scaling_rel_err: float
    max_rel_err: float
    passed: bool


def check_translation_scaling(
    points, spec, p, scale: float = 2.0, shift=None
) -> TranslationScalingReport:
    """Verify ``L_p(V + y) = L_p(V)`` and ``L_p(tV) = t^p L_p(V)``.

    Both identities are exact in real arithmetic; floating point leaves a
    few ulps, so the check passes when the larger relative error is at most
    1e-12. ``shift`` defaults to ``0.5`` in every coordinate.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    p = check_power(p)
    scale = check_real(scale, "scale")
    offset = np.full(ps.d, 0.5) if shift is None else np.asarray(shift, dtype=np.float64)

    base = l_p(build_nn_graph(ps, spec), p)
    shifted = l_p(build_nn_graph(ps.points + offset, spec), p)
    scaled = l_p(build_nn_graph(scale * ps.points, spec), p)
    denom = max(abs(base), np.finfo(np.float64).tiny)
    translation_err = abs(shifted - base) / denom
    scaling_err = abs(scaled - scale**p * base) / max(scale**p * denom, np.finfo(np.float64).tiny)
    worst = max(translation_err, scaling_err)
    return TranslationScalingReport(
        translation_rel_err=translation_err,
        scaling_rel_err=scaling_err,
        max_rel_err=worst,
        passed=worst <= 1e-12,
    )


@dataclass(frozen=True)
class BoundaryReport:
    """Exact boundary-functional inequalities and their slacks.

    ``boundary_slack`` is ``L_p - L_p*`` on the whole cube (NaN when the
    sample is too small for the plain graph); ``superadditivity_slack`` is
    ``L_p*(whole) - sum of block L_p*``. Both inequalities must hold on
    every instance, so ``passed`` requires both slacks nonnegative.
    """

    boundary_ok: bool
    boundary_slack: float
    superadditivity_ok: bool
    superadditivity_slack: float
    passed: bool


def _partition_blocks(ps: PointSet, cube: Cube, m: int):
    """Split points among the m^d half-open subcubes of ``cube``.

    Points on the closing faces land in the last subcube along that axis,
    so every point belongs to exactly one block.
    """
    rel = (ps.points - cube.lower) / cube.side
    idx = np.minimum((rel * m).astype(np.int64), m - 1)
    idx = np.maximum(idx, 0)
    flat = (idx * m ** np.arange(ps.d)).sum(axis=1)
    side = cube.side / m
    for key in np.unique(flat):
        sel = flat == key
        digits = (key // m ** np.arange(ps.d)) % m
        lower = cube.lower + digits * side
        yield PointSet(ps.points[sel]), Cube(lower, side)


def check_boundary_and_superadditivity(points, spec, p, m: int) -> BoundaryReport:
    """Assert ``L_p* <= L_p`` and block superadditivity of ``L_p*``.

    The unit cube is split into ``m^d`` equal subcubes;
    every block's boundary functional is evaluated against its own subcube,
    and the block sum must not exceed the whole-cube boundary functional.
    Blocks are never skipped here — the boundary graph is defined for any
    nonempty block, with missing neighbor ranks routed to the subcube
    boundary. The plain-graph comparison requires ``n > max(S)`` and is
    reported as NaN (vacuously true) below that.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    p = check_power(p)
    m = check_integer(m, "partition granularity m")
    cube = Cube.unit(ps.d)

    star_whole = l_p(build_boundary_graph(ps, spec, cube), p)
    if ps.n > spec.k:
        plain = l_p(build_nn_graph(ps, spec), p)
        boundary_slack = plain - star_whole
        boundary_ok = star_whole <= plain
    else:
        boundary_slack = math.nan
        boundary_ok = True

    block_sum = math.fsum(
        l_p(build_boundary_graph(block, spec, sub), p)
        for block, sub in _partition_blocks(ps, cube, m)
    )
    super_slack = star_whole - block_sum
    super_ok = block_sum <= star_whole
    return BoundaryReport(
        boundary_ok=boundary_ok,
        boundary_slack=boundary_slack,
        superadditivity_ok=super_ok,
        superadditivity_slack=super_slack,
        passed=boundary_ok and super_ok,
    )


@dataclass(frozen=True)
class GrowthIndegreeReport:
    """Extremes of in-degree and of the growth ratio ``L_p / n^(1-p/d)``.

    ``growth_ratios`` holds the per-``n`` maxima over trials;
    ``growth_spread`` is their max/median, which stays near 1 when the
    ratio converges instead of blowing up.
    """

    max_indegree: int
    indegree_bound: float
    growth_ratios: tuple[tuple[int, float], ...]
    growth_spread: float
    passed: bool


def check_growth_and_indegree(
    trials: int, d: int, spec, p, n=None, seed=0, indegree_c=None
) -> GrowthIndegreeReport:
    """Sample uniform instances; bound the in-degree and the growth ratio.

    Over ``trials`` uniform samples per size, the maximum in-degree must
    stay within ``c(d) * max(S)`` (``c`` from the frozen survey unless
    ``indegree_c`` overrides it) and the per-size maxima of
    ``L_p / n^(1-p/d)`` must have max/median at most 3 across the size
    sweep (default ``n``: 256 to 8192 by doubling).
    """
    spec = as_neighbor_spec(spec)
    d = check_integer(d, "d")
    p = check_power(p, d)
    trials = check_integer(trials, "trials")
    if indegree_c is None:
        try:
            indegree_c = SURVEYED["indegree_c"][d]
        except KeyError:
            raise ValueError(
                f"no surveyed in-degree constant for d={d}; pass indegree_c explicitly"
            ) from None
    indegree_c = check_real(indegree_c, "indegree_c")
    if n is None:
        n = _DEFAULT_N_SWEEP
    sizes = tuple(check_integer(v, "n") for v in ((n,) if np.isscalar(n) else n))

    bound = indegree_c * spec.k
    max_indegree = 0
    ratios = []
    streams = _as_seed_sequence(seed).spawn(len(sizes) * trials)
    for si, size in enumerate(sizes):
        best = -math.inf
        for t in range(trials):
            rng = np.random.default_rng(streams[si * trials + t])
            graph = build_nn_graph(PointSet(rng.random((size, d))), spec)
            max_indegree = max(max_indegree, int(graph.in_degrees().max()))
            best = max(best, l_p(graph, p) / size ** (1 - p / d))
        ratios.append((size, best))
    values = [r for _, r in ratios]
    spread = max(values) / float(np.median(values))
    passed = max_indegree <= bound and spread <= GROWTH_SPREAD_BOUND
    return GrowthIndegreeReport(
        max_indegree=max_indegree,
        indegree_bound=bound,
        growth_ratios=tuple(ratios),
        growth_spread=spread,
        passed=passed,
    )


@dataclass(frozen=True)
class SmoothnessReport:
    """Edit-distance smoothness ratio of ``L_p`` and the frozen bound."""

    ratio: float
    bound: float
    sym_diff: int
    passed: bool


def check_smoothness(points, points2, spec, p) -> SmoothnessReport:
    """Bound ``|L_p(V') - L_p(V)|`` by the symmetric-difference size.

    The normalizer is ``max(|V' sym-diff V|^(1-p/d), 1)`` with rows compared
    exactly; the ratio must stay within the frozen surveyed constant.
    Identical samples give ratio 0.
    """
    ps = as_point_set(points)
    ps2 = as_point_set(points2)
    if ps.d != ps2.d:
        raise ValueError(f"point sets have different dimensions: {ps.d} and {ps2.d}")
    spec = as_neighbor_spec(spec)
    p = check_power(p, ps.d)
    bound = SURVEYED["smoothness"]

    rows = {row.tobytes() for row in ps.points}
    rows2 = {row.tobytes() for row in ps2.points}
    sym_diff = len(rows ^ rows2)
    gap = abs(
        l_p(build_nn_graph(ps2, spec), p) - l_p(build_nn_graph(ps, spec), p)
    )
    ratio = gap / max(sym_diff ** (1 - p / ps.d), 1.0)
    return SmoothnessReport(ratio=ratio, bound=bound, sym_diff=sym_diff, passed=ratio <= bound)


@dataclass(frozen=True)
class SubadditivityReport:
    """Subcube-partition subadditivity slack of plain ``L_p``."""

    slack: float
    normalized_slack: float
    bound: float
    skipped_blocks: int
    passed: bool


def check_subadditivity(points, spec, p, m: int) -> SubadditivityReport:
    """Bound ``L_p(V) - sum of block L_p`` by the frozen constant times ``m^(d-p)``.

    The unit cube is split into ``m^d`` equal subcubes. Blocks with at
    most ``max(S)`` points have no plain neighbor graph and are skipped
    from the block sum (their count is reported); the slack they leave
    behind is exactly what the ``m^(d-p)`` normalization absorbs. Negative
    slack is clamped to zero.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    p = check_power(p, ps.d)
    m = check_integer(m, "partition granularity m")
    bound = SURVEYED["subadditivity"]

    whole = l_p(build_nn_graph(ps, spec), p)
    parts = []
    skipped = 0
    for block, _sub in _partition_blocks(ps, Cube.unit(ps.d), m):
        if block.n > spec.k:
            parts.append(l_p(build_nn_graph(block, spec), p))
        else:
            skipped += 1
    slack = max(0.0, whole - math.fsum(parts))
    normalized = slack / m ** (ps.d - p)
    return SubadditivityReport(
        slack=slack,
        normalized_slack=normalized,
        bound=bound,
        skipped_blocks=skipped,
        passed=normalized <= bound,
    )


@dataclass(frozen=True)
class AddOneReport:
    """Mean effect on ``L_p`` of adding one point to a uniform sample."""

    gap: float
    normalized_gap: float
    bound: float
    passed: bool


def check_add_one(d: int, spec, p, n: int, seeds: int = 200, seed=0) -> AddOneReport:
    """Bound ``|mean L_p(U_n) - mean L_p(U_(n+1))|`` by the frozen constant times ``n^(-p/d)``.

    Each replication draws ``n + 1`` uniform points and evaluates ``L_p``
    on the first ``n`` and on all of them, so the two means are coupled and
    the Monte-Carlo noise largely cancels. This is a trend diagnostic: the
    bound is generous because residual noise, not the add-one effect,
    dominates at small ``n``.
    """
    spec = as_neighbor_spec(spec)
    d = check_integer(d, "d")
    p = check_power(p, d)
    n = check_integer(n, "n")
    if n <= spec.k:
        raise ValueError(f"n must exceed max(S) = {spec.k}, got {n}")
    seeds = check_integer(seeds, "seeds")
    bound = SURVEYED["add_one"]

    small, big = [], []
    for stream in _as_seed_sequence(seed).spawn(seeds):
        pts = np.random.default_rng(stream).random((n + 1, d))
        small.append(l_p(build_nn_graph(PointSet(pts[:n]), spec), p))
        big.append(l_p(build_nn_graph(PointSet(pts), spec), p))
    gap = abs(math.fsum(small) / seeds - math.fsum(big) / seeds)
    normalized = gap / n ** (-p / d)
    return AddOneReport(gap=gap, normalized_gap=normalized, bound=bound, passed=normalized <= bound)


@dataclass(frozen=True)
class PerturbationReport:
    """Change in ``L_p`` when every point moves by exactly epsilon."""

    ratios: tuple[tuple[float, float], ...]
    max_ratio: float
    bound: float
    passed: bool


def check_perturbation(points, spec, p, seed=0) -> PerturbationReport:
    """Bound ``|L_p(V + noise) - L_p(V)|`` by the frozen constant times ``n * eps^p``.

    Every point is displaced by a uniformly random direction scaled to
    Euclidean norm exactly ``eps``. The normalized ratio must stay within
    the frozen bound for each ``eps`` in ``PERTURBATION_EPSILONS``; the
    property is specific to ``p < 1``, where small displacements cost the
    most relative to ``eps^p``.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    p = check_power(p, ps.d)
    if p >= 1.0:
        raise ValueError(f"the perturbation bound applies for 0 < p < 1, got p={p}")
    bound = SURVEYED["perturbation"]

    base = l_p(build_nn_graph(ps, spec), p)
    ratios = []
    streams = _as_seed_sequence(seed).spawn(len(PERTURBATION_EPSILONS))
    for eps, stream in zip(PERTURBATION_EPSILONS, streams):
        noise = np.random.default_rng(stream).standard_normal((ps.n, ps.d))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        moved = l_p(build_nn_graph(ps.points + eps * noise, spec), p)
        ratios.append((eps, abs(moved - base) / (ps.n * eps**p)))
    worst = max(r for _, r in ratios)
    return PerturbationReport(
        ratios=tuple(ratios), max_ratio=worst, bound=bound, passed=worst <= bound
    )


@dataclass(frozen=True, eq=False)
class DiagnosticsSummary:
    """All check reports from one :func:`run_diagnostics` call."""

    entries: tuple[tuple[str, dict, object], ...]
    passed: bool

    def to_dict(self) -> dict:
        """JSON-ready form: one record per check with its config and report."""
        return {
            "passed": self.passed,
            "checks": [
                {
                    "check": name,
                    "config": config,
                    "report": dataclasses.asdict(report),
                    "passed": report.passed,
                }
                for name, config, report in self.entries
            ],
        }


def run_diagnostics(seed=0, quick: bool = True) -> DiagnosticsSummary:
    """Run the standard diagnostic grid and aggregate the reports.

    Quick mode exercises every check on one representative cell each and
    finishes in seconds; full mode widens the grids (all surveyed
    dimensions for the in-degree check, more partition cells, the full
    size sweep) and takes a few minutes. Instance generation is
    deterministic given ``seed``.
    """
    root = np.random.SeedSequence(seed)
    streams = iter(root.spawn(64))

    def uniform(n, d):
        return PointSet(np.random.default_rng(next(streams)).random((n, d)))

    entries = []

    def record(name, config, report):
        entries.append((name, config, report))

    ts_cells = [(500, 4, (1, 2), 1.7), (300, 2, (1,), 0.5)]
    for n, d, ranks, p in ts_cells if not quick else ts_cells[:1]:
        config = {"n": n, "d": d, "S": list(ranks), "p": p, "scale": 0.37, "shift": 0.61}
        report = check_translation_scaling(
            uniform(n, d), ranks, p, scale=0.37, shift=np.full(d, 0.61)
        )
        record("translation_scaling", config, report)

    bs_cells = [(300, 2, (1, 2), 1.0, 3), (300, 3, (1, 2, 3), 1.5, 2), (40, 2, (1, 2), 0.5, 4)]
    for n, d, ranks, p, m in bs_cells if not quick else bs_cells[:2]:
        config = {"n": n, "d": d, "S": list(ranks), "p": p, "m": m}
        report = check_boundary_and_superadditivity(uniform(n, d), ranks, p, m)
        record("boundary_superadditivity", config, report)

    if quick:
        gi_cells = [(20, 2, (1, 2, 3), 1.0, (256, 512, 1024, 2048))]
    else:
        gi_cells = [
            (100, 1, (1,), 0.5, None),
            (100, 2, (1, 2, 3), 1.0, None),
            (100, 3, (1, 2, 3), 1.5, None),
            (50, 5, (1, 2, 3, 4, 5), 2.5, None),
        ]
    for trials, d, ranks, p, sweep in gi_cells:
        config = {"trials": trials, "d": d, "S": list(ranks), "p": p}
        report = check_growth_and_indegree(trials, d, ranks, p, n=sweep, seed=next(streams))
        record("growth_indegree", config, report)

    sm_cells = [(3, (1, 2, 3), 1.5), (2, (1,), 0.9)]
    for d, ranks, p in sm_cells if not quick else sm_cells[:1]:
        base = uniform(500, d)
        fresh = np.random.default_rng(next(streams)).random((50, d))
        other = PointSet(np.vstack([base.points[:400], fresh]))
        config = {"d": d, "S": list(ranks), "p": p, "sizes": [500, 450]}
        record("smoothness", config, check_smoothness(base, other, ranks, p))

    sub_cells = [(500, 3, (1, 2), 1.0, 3), (60, 2, (1, 2), 0.5, 5), (60, 3, (1,), 1.7, 5)]
    for n, d, ranks, p, m in sub_cells if not quick else sub_cells[:2]:
        config = {"n": n, "d": d, "S": list(ranks), "p": p, "m": m}
        record("subadditivity", config, check_subadditivity(uniform(n, d), ranks, p, m))

    ao_cells = [(2, (1,), 0.9, 128), (3, (1, 2, 3), 1.5, 128)]
    for d, ranks, p, n in ao_cells if not quick else ao_cells[:1]:
        config = {"d": d, "S": list(ranks), "p": p, "n": n, "seeds": 200}
        record("add_one", config, check_add_one(d, ranks, p, n, seeds=200, seed=next(streams)))

    pert_cells = [(0.9,), (0.5,)]
    for (p,) in pert_cells if not quick else pert_cells[:1]:
        config = {"n": 1000, "d": 3, "S": [1, 2, 3], "p": p, "epsilons": list(PERTURBATION_EPSILONS)}
        report = check_perturbation(uniform(1000, 3), (1, 2, 3), p, seed=next(streams))
        record("perturbation", config, report)

    return DiagnosticsSummary(
        entries=tuple(entries), passed=all(r.passed for _, _, r in entries)
    )
