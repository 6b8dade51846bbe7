"""Calibrate the graph normalizing constant and cache it.

The entropy estimator divides the edge-length sum by gamma * n^(1 - p/d),
where gamma is the limit of that ratio on uniform samples. The constant
depends only on (d, p, S), so it is estimated once by Monte Carlo and
cached. It also has a closed form (for a rank set S, the single-rank
constants summed over S), which makes a good cross-check: the Monte-Carlo
value drifts toward it as the calibration sample grows (finite-size bias
shrinks roughly like a power of n_cal — compare the bias column below).
"""

import tempfile
from pathlib import Path

from nnentropy import GammaCache, GammaKey, estimate_gamma, gamma_analytic

D, K, P = 3, 1, 0.9


def main() -> None:
    analytic = gamma_analytic(D, P, K)
    print(f"d={D}, S={{{K}}}, p={P}: analytic gamma = {analytic:.6f}\n")

    print(f"{'n_cal':>8} {'mean':>10} {'std err':>10} {'rel bias':>10}")
    for n_cal in (10_000, 40_000, 160_000):
        key = GammaKey(d=D, p=P, spec=(K,), n_cal=n_cal, reps=5)
        est = estimate_gamma(key, seed=2)
        bias = (est.mean - analytic) / analytic
        print(f"{n_cal:>8} {est.mean:>10.6f} {est.std_error:>10.6f} {bias:>+10.4%}")

    # The cache is a JSON-lines file keyed by (d, p, S, n_cal, reps);
    # a second request for the same key reads instead of recomputing.
    with tempfile.TemporaryDirectory() as tmp:
        cache = GammaCache(Path(tmp) / "gamma.jsonl")
        key = GammaKey(d=2, p=0.6, spec=(1, 2, 3), n_cal=20_000, reps=3)
        first, hit1 = cache.get_or_compute(key, seed=0)
        again, hit2 = cache.get_or_compute(key, seed=99)  # seed ignored on a hit
        print(f"\ncache: first call hit={hit1}, second call hit={hit2}, "
              f"same record={first == again}")
        print(f"cache file holds {len(cache.path.read_text().splitlines())} line(s)")


if __name__ == "__main__":
    main()
