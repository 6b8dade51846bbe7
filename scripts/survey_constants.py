"""One-time survey fixing the empirical constants used by the diagnostics.

Several structural bounds on the edge-length functional hold with unknown
dimension-dependent constants. This script measures the relevant ratios on
fixed grids of random instances and prints, for each constant, the maximum
observed ratio and the frozen bound (2x the maximum, the convention used
throughout). The frozen values are pasted into ``nnentropy.diagnostics``
(the SURVEYED dict) together with the grid description; rerunning this
script reproduces them from the seeds below. The smoothness, subadditivity
and add-one ratios are computed by the diagnostics checks themselves, so a
frozen constant and the check that reads it share one formula.

Run from the repository root:

    PYTHONPATH=src python3 scripts/survey_constants.py

The script exits with status 1 when a printed constant differs from
``SURVEYED``: exactly for the in-degree constants, to 4 decimals for the
rest.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from nnentropy.diagnostics import SURVEYED, check_add_one, check_smoothness, check_subadditivity
from nnentropy.graph import build_nn_graph, l_p
from nnentropy.points import NeighborSpec, PointSet


def _uniform(rng, n, d):
    return PointSet(rng.random((n, d)))


def survey_indegree():
    """Max in-degree / k of the neighbor graph; one constant per dimension."""
    print("== in-degree: 100 instances per (d, k), n=500, S={1..k}, uniform cube ==")
    results = {}
    for d in (1, 2, 3, 5):
        worst = 0.0
        for k in (1, 3, 5):
            spec = NeighborSpec(tuple(range(1, k + 1)))
            streams = np.random.SeedSequence((10, d, k)).spawn(100)
            for s in streams:
                g = build_nn_graph(_uniform(np.random.default_rng(s), 500, d), spec)
                worst = max(worst, g.in_degrees().max() / k)
        results[d] = worst
        print(f"  d={d}: max in-degree/k = {worst:.4f}  -> freeze c({d}) = {2 * worst:g}")
    return results


def survey_smoothness():
    """|L_p(V') - L_p(V)| / max(|V' sym-diff V|^(1-p/d), 1) on add/remove/replace edits."""
    print("== smoothness: d in {1,2,3}, p in {0.5,0.9,1.5} (p<d), S in {{1},{1,2,3}} ==")
    print("   V: 500 uniform points; edits: add 100 / remove 100 / replace 50 (x100 instances)")
    worst = 0.0
    for d in (1, 2, 3):
        for p in (0.5, 0.9, 1.5):
            if p >= d:
                continue
            for ranks in ((1,), (1, 2, 3)):
                spec = NeighborSpec(ranks)
                streams = np.random.SeedSequence((20, d, int(p * 10), len(ranks))).spawn(100)
                for s in streams:
                    rng = np.random.default_rng(s)
                    base = rng.random((500, d))
                    edit = rng.integers(3)
                    if edit == 0:
                        other = np.vstack([base, rng.random((100, d))])
                    elif edit == 1:
                        other = base[:400]
                    else:
                        other = np.vstack([base[:450], rng.random((50, d))])
                    worst = max(worst, check_smoothness(base, other, spec, p).ratio)
    print(f"  max ratio = {worst:.4f}  -> freeze smoothness bound = {2 * worst:.4f}")
    return worst


def survey_subadditivity():
    """max(0, L_p(V) - sum_blocks L_p) / m^(d-p) over partition grids.

    The sparse cells (small n, large m) matter most: blocks holding at most
    max(S) points are skipped on the right-hand side, so their edges appear
    only on the left and the slack goes positive. Dense cells give slack 0.
    """
    print("== subadditivity: d in {2,3}, m in {2,3,5}, p in {0.5,1,1.7}, S in {{1},{1,2}},")
    print("   n in {60,500} uniform, 25 instances per cell; blocks with <= max(S) points skipped ==")
    worst = 0.0
    for d in (2, 3):
        for m in (2, 3, 5):
            for p in (0.5, 1.0, 1.7):
                for ranks in ((1,), (1, 2)):
                    for n in (60, 500):
                        spec = NeighborSpec(ranks)
                        streams = np.random.SeedSequence((30, d, m, int(p * 10), len(ranks), n)).spawn(25)
                        for s in streams:
                            pts = np.random.default_rng(s).random((n, d))
                            report = check_subadditivity(pts, spec, p, m)
                            worst = max(worst, report.normalized_slack)
    print(f"  max normalized slack = {worst:.4f}  -> freeze subadditivity bound = {2 * worst:.4f}")
    return worst


def survey_add_one():
    """|mean L_p(U_n) - mean L_p(U_(n+1))| / n^(-p/d) over 200 seeds."""
    print("== add-one: d in {1,2,3}, p in {0.5,0.9} (p<d), S in {{1},{1,2,3}}, n in {128,512},")
    print("   200 seeds, U_(n+1) extends U_n by one point ==")
    worst = 0.0
    for d in (1, 2, 3):
        for p in (0.5, 0.9):
            if p >= d:
                continue
            for ranks in ((1,), (1, 2, 3)):
                spec = NeighborSpec(ranks)
                for n in (128, 512):
                    seed = np.random.SeedSequence((40, d, int(p * 10), len(ranks), n))
                    report = check_add_one(d, spec, p, n, seed=seed)
                    worst = max(worst, report.normalized_gap)
    print(f"  max normalized gap = {worst:.4f}  -> freeze add-one bound = {2 * worst:.4f}")
    return worst


def survey_perturbation():
    """|L_p(V + eps*noise) - L_p(V)| / (n * eps^p), unit-norm noise directions."""
    print("== perturbation: d=3, n=1000, p in {0.5,0.9}, eps in {1e-3,1e-2}, S={1,2,3},")
    print("   20 instances per (p, eps), every point moved by exactly eps ==")
    spec = NeighborSpec((1, 2, 3))
    worst = 0.0
    for p in (0.5, 0.9):
        for eps in (1e-3, 1e-2):
            streams = np.random.SeedSequence((50, int(p * 10), int(-math.log10(eps)))).spawn(20)
            for s in streams:
                rng = np.random.default_rng(s)
                pts = rng.random((1000, 3))
                noise = rng.standard_normal((1000, 3))
                noise /= np.linalg.norm(noise, axis=1, keepdims=True)
                lv = l_p(build_nn_graph(PointSet(pts), spec), p)
                lw = l_p(build_nn_graph(PointSet(pts + eps * noise), spec), p)
                ratio = abs(lw - lv) / (1000 * eps ** p)
                worst = max(worst, ratio)
    print(f"  max ratio = {worst:.4f}  -> freeze perturbation bound = {2 * worst:.4f}")
    return worst


def survey_growth():
    """Context only: max/median of max-ratio L_p/n^(1-p/d) across the n sweep."""
    print("== growth (context, bound fixed at 3.0 by design): d=3, p=1.5, S={1,2,3},")
    print("   20 trials per n in {2^8..2^13} ==")
    spec = NeighborSpec((1, 2, 3))
    maxima = []
    for n in (256, 512, 1024, 2048, 4096, 8192):
        streams = np.random.SeedSequence((60, n)).spawn(20)
        vals = [
            l_p(build_nn_graph(_uniform(np.random.default_rng(s), n, 3), spec), 1.5)
            / n ** (1 - 1.5 / 3)
            for s in streams
        ]
        maxima.append(max(vals))
        print(f"  n={n}: max ratio = {maxima[-1]:.4f}")
    print(f"  max/median across n = {max(maxima) / np.median(maxima):.4f} (bound 3.0)")


def main() -> int:
    t0 = time.time()
    c = survey_indegree()
    frozen = {
        "smoothness": 2 * survey_smoothness(),
        "subadditivity": 2 * survey_subadditivity(),
        "add_one": 2 * survey_add_one(),
        "perturbation": 2 * survey_perturbation(),
    }
    survey_growth()
    print("\n== frozen constants (paste into nnentropy.diagnostics.SURVEYED) ==")
    print(f'  "indegree_c": {{{", ".join(f"{d}: {2 * v:g}" for d, v in c.items())}}},')
    for name, value in frozen.items():
        print(f'  "{name}": {value:.4f},')
    print(f"[{time.time() - t0:.1f}s]")

    indegree = {d: float(2 * v) for d, v in c.items()}
    mismatches = []
    if indegree != SURVEYED["indegree_c"]:
        mismatches.append(f"indegree_c: surveyed {indegree}, frozen {SURVEYED['indegree_c']}")
    mismatches += [
        f"{name}: surveyed {value:.4f}, frozen {SURVEYED[name]}"
        for name, value in frozen.items()
        if round(value, 4) != SURVEYED[name]
    ]
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
