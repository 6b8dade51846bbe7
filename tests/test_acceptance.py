"""Acceptance checks for the shipped estimator stack.

Each test verifies one advertised guarantee end to end at its stated
tolerance and prints a one-line verdict (``ACCEPTANCE <n> PASS|FAIL ...``)
to the terminal.
"""

import math
import time

import numpy as np

from nnentropy import (
    EstimatorSettings,
    Gaussian,
    IsaExperimentConfig,
    PAPER_SCALE_ISA,
    PointSet,
    UniformCube,
    check_boundary_and_superadditivity,
    check_perturbation,
    check_translation_scaling,
    gamma_analytic,
    group_components,
    histogram_mi,
    knn_all,
    renyi_entropy,
    renyi_mi,
    run_isa_experiment,
    sample,
)
from nnentropy.cli import main as cli_main

from .oracles import brute_knn, equal_block_partitions, quad_gaussian_mi_3d, torus_gamma

EQUI3 = np.full((3, 3), 0.5) + np.diag(np.full(3, 0.5))


def verdict(announce, number, ok, detail, t0):
    announce(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} {detail} [{time.monotonic() - t0:.1f}s]")


def test_1_kdtree_matches_exhaustive_scan(announce):
    """Tree-based neighbor queries equal the quadratic reference exactly."""
    t0 = time.monotonic()
    instances = mismatches = 0
    for d in (1, 2, 3, 5, 10):
        for trial in range(50):
            X = np.random.default_rng((d, trial)).random((500, d))
            idx, dist = knn_all(PointSet(X), 5, method="kdtree")
            ref_idx, ref_dist = brute_knn(X, 5)
            instances += 1
            if not (np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    verdict(announce, 1, ok,
            f"{instances - mismatches}/{instances} instances identical (d in 1,2,3,5,10; n=500, k=5)", t0)
    assert ok, f"{mismatches} mismatching instances, elapsed {elapsed:.1f}s"


def test_2_exact_functional_identities(announce):
    """Translation/scaling identities and the boundary inequalities, instance by instance."""
    t0 = time.monotonic()
    cells = [(d, m, p) for d in (2, 3) for m in (2, 3) for p in (0.5, 1.0, 1.7)]
    failures = []
    for i in range(200):
        d, m, p = cells[i % len(cells)]
        rng = np.random.default_rng(100 + i)
        ps = PointSet(rng.random((int(rng.integers(150, 400)), d)))
        ts = check_translation_scaling(ps, (1, 2), p, scale=float(rng.uniform(0.2, 3.0)),
                                       shift=rng.uniform(-1.0, 1.0, size=d))
        bs = check_boundary_and_superadditivity(ps, (1, 2), p, m)
        if not (ts.passed and bs.passed):
            failures.append((i, d, m, p, ts.max_rel_err, bs.passed))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    verdict(announce, 2, ok,
            f"{200 - len(failures)}/200 instances hold (rel err <= 1e-12; both inequalities exact)", t0)
    assert ok, f"failing instances: {failures[:5]}, elapsed {elapsed:.1f}s"


def test_3_calibration_matches_analytic_form(announce):
    """Monte-Carlo gamma on the periodic box vs the closed form, across the single-rank grid."""
    t0 = time.monotonic()
    within = 0
    offenders = []
    # Highest rank first, so each dimension's samples are searched once.
    cells = [(d, k, ratio * d) for d in (1, 2, 3) for k in (3, 2, 1) for ratio in (0.3, 0.5)]
    for d, k, p in cells:
        mean, std_error = torus_gamma(d, p, (k,), n=100_000, reps=10, seed=11)
        z = abs(mean - gamma_analytic(d, p, k)) / std_error
        if z <= 3.0:
            within += 1
        else:
            offenders.append(f"d={d},k={k},p={p:.1f}:|z|={z:.1f}")
    frac = within / len(cells)
    ok = frac >= 0.9
    verdict(announce, 3, ok,
            f"{within}/{len(cells)} cells within 3 standard errors (need >=90%); "
            f"beyond: {', '.join(offenders)}", t0)
    assert ok, f"only {within}/{len(cells)} cells within 3 SE"


def test_4_uniform_entropy_and_shift_law(announce):
    """Entropy of the unit cube is zero; doubling the side adds 3 log 2."""
    t0 = time.monotonic()
    settings = EstimatorSettings(alpha=0.7)
    unit, doubled = [], []
    for s in range(25):
        pts = np.random.default_rng(1000 + s).random((2000, 3))
        unit.append(renyi_entropy(PointSet(pts), settings).value)
        doubled.append(renyi_entropy(PointSet(2.0 * pts), settings).value)
    mean_unit = math.fsum(unit) / 25
    shift = math.fsum(doubled) / 25 - mean_unit
    shift_err = abs(shift - 3 * math.log(2.0))
    elapsed = time.monotonic() - t0
    ok = abs(mean_unit) <= 0.1 and shift_err <= 0.05 and elapsed < 120.0
    verdict(announce, 4, ok,
            f"|mean H|={abs(mean_unit):.4f} (<=0.1); shift off 3log2 by {shift_err:.2e} (<=0.05)", t0)
    assert ok, f"mean {mean_unit:.4f}, shift error {shift_err:.4f}, elapsed {elapsed:.1f}s"


def test_5_mutual_information_ground_truth(announce):
    """MI is zero for independent uniforms and matches quadrature for a Gaussian."""
    t0 = time.monotonic()
    settings = EstimatorSettings(alpha=0.7)
    indep = [
        renyi_mi(sample(UniformCube(3), 2000, 2000 + s), settings).value for s in range(25)
    ]
    mean_indep = math.fsum(indep) / 25

    oracle = quad_gaussian_mi_3d(EQUI3, 0.7)
    spec = Gaussian(np.zeros(3), EQUI3)
    gauss = [renyi_mi(sample(spec, 4000, 3000 + s), settings).value for s in range(25)]
    gauss_err = abs(math.fsum(gauss) / 25 - oracle)
    elapsed = time.monotonic() - t0
    ok = abs(mean_indep) <= 0.1 and gauss_err <= 0.15 and elapsed < 300.0
    verdict(announce, 5, ok,
            f"|mean I| indep={abs(mean_indep):.4f} (<=0.1); "
            f"Gaussian rho=0.5 off quadrature {oracle:.4f} by {gauss_err:.4f} (<=0.15)", t0)
    assert ok, f"indep {mean_indep:.4f}, gaussian error {gauss_err:.4f}, elapsed {elapsed:.1f}s"


def test_6_rank_invariance_is_bitwise(announce):
    """Strictly increasing coordinate maps leave the MI estimate bit-identical."""
    t0 = time.monotonic()
    settings = EstimatorSettings(alpha=0.7, gamma=1.0)
    transforms = (
        lambda x, a, b: a * x + b,
        lambda x, a, b: x**3 + a * x,
        lambda x, a, b: np.exp(x / (0.5 + a)),
        lambda x, a, b: np.arctan((0.5 + a) * x),
    )
    identical = 0
    for i in range(100):
        rng = np.random.default_rng(6000 + i)
        n, d = int(rng.integers(50, 401)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d)) if i % 2 else rng.random((n, d))
        Y = np.column_stack([
            transforms[int(rng.integers(len(transforms)))](
                X[:, j], float(rng.uniform(0.1, 2.0)), float(rng.uniform(-5.0, 5.0))
            )
            for j in range(d)
        ])
        identical += renyi_mi(X, settings).value == renyi_mi(Y, settings).value
    ok = identical == 100
    verdict(announce, 6, ok, f"{identical}/100 transform/sample pairs bit-identical", t0)
    assert ok


def test_7_error_shrinks_with_sample_size(announce):
    """NN-graph MI error falls monotonically in n and beats the histogram at n=4096."""
    t0 = time.monotonic()
    grid = (256, 512, 1024, 2048, 4096)
    settings = EstimatorSettings(alpha=0.7)
    targets = [
        ("uniform", UniformCube(3), 0.0),
        ("gaussian", Gaussian(np.zeros(3), EQUI3), quad_gaussian_mi_3d(EQUI3, 0.7)),
    ]
    details, ok = [], True
    for label, spec, truth in targets:
        nn_means, hist_at_4096 = [], None
        for n in grid:
            nn_err, hist_err = [], []
            for run in range(25):
                points = sample(spec, n, 4000 + run)
                nn_err.append(abs(renyi_mi(points, settings).value - truth))
                if n == grid[-1]:
                    hist_err.append(abs(histogram_mi(points, 0.7).value - truth))
            nn_means.append(math.fsum(nn_err) / 25)
            if hist_err:
                hist_at_4096 = math.fsum(hist_err) / 25
        decreasing = all(b < a for a, b in zip(nn_means, nn_means[1:]))
        beats_hist = nn_means[-1] < hist_at_4096
        ok = ok and decreasing and beats_hist
        details.append(
            f"{label}: nn {nn_means[0]:.3f}->{nn_means[-1]:.3f} "
            f"{'monotone' if decreasing else 'NOT monotone'}, hist@4096 {hist_at_4096:.3f}"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900.0
    verdict(announce, 7, ok, "; ".join(details), t0)
    assert ok, f"{details}, elapsed {elapsed:.1f}s"


def _planted_components(seed, n=400, m=3, d=2):
    """Randomly permuted columns built from m shared factors, d columns each."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(m):
        factor = rng.random(n)
        cols.extend(factor + 0.05 * rng.standard_normal(n) for _ in range(d))
    X = np.column_stack(cols)
    return X[:, rng.permutation(m * d)]


def test_8_subspace_recovery(announce, tmp_path):
    """Desk-scale separation quality, optimality of the search, full-size execution."""
    t0 = time.monotonic()
    config = IsaExperimentConfig(
        shapes=("spiral", "star", "zigzag"), subspace_dim=2, n=2000, alpha=0.99
    )
    scores = [run_isa_experiment(config, seed=seed).solution.score for seed in range(5)]
    good = sum(score < 0.15 for score in scores)

    fixed = EstimatorSettings(alpha=0.99, gamma=1.0)
    agree = 0
    for seed in range(20):
        X = _planted_components(seed)
        cache: dict = {}

        def block_mi(block):
            key = frozenset(block)
            if key not in cache:
                cache[key] = renyi_mi(X[:, sorted(block)], fixed).value
            return cache[key]

        best = max(
            equal_block_partitions(tuple(range(6)), 2),
            key=lambda part: math.fsum(block_mi(b) for b in part),
        )
        found = group_components(X, 2, 3, fixed).blocks
        agree += tuple(sorted(found)) == tuple(sorted(tuple(sorted(b)) for b in best))

    paper_rc = cli_main(
        ["isa", "--paper-scale", "--out-dir", str(tmp_path / "paper"), "--seed", "0"]
    )
    paper_amari = run_isa_experiment(PAPER_SCALE_ISA, seed=0).solution.score

    elapsed = time.monotonic() - t0
    ok = good >= 4 and agree >= 18 and paper_rc == 0 and elapsed < 600.0
    verdict(announce, 8, ok,
            f"desk scale {good}/5 seeds below 0.15 (max {max(scores):.4f}); "
            f"search matches exhaustive optimum {agree}/20; "
            f"full-size run exit {paper_rc} (index {paper_amari:.4f}, no bar)", t0)
    assert ok, f"good={good}/5, agree={agree}/20, paper_rc={paper_rc}, elapsed {elapsed:.1f}s"


def test_9_perturbation_boundedness(announce):
    """Moving every point by epsilon changes L_p by at most the frozen constant times n*eps^p."""
    t0 = time.monotonic()
    worst, all_ok = 0.0, True
    for p in (0.5, 0.9):
        for s in range(5):
            pts = np.random.default_rng(9000 + s).random((1000, 3))
            report = check_perturbation(pts, (1, 2, 3), p, seed=9500 + s)
            worst = max(worst, report.max_ratio)
            all_ok = all_ok and report.passed
    verdict(announce, 9, all_ok,
            f"worst |dL_p|/(n eps^p) = {worst:.4f} vs bound 0.1874 "
            f"(eps in 1e-3,1e-2; p in 0.5,0.9; d=3, n=1000)", t0)
    assert all_ok
