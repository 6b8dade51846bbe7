"""The graph normalizing constant: closed forms against the Monte Carlo.

The entropy estimator divides the edge-length sum by gamma * n^(1 - p/d),
where gamma is the limit of that ratio on uniform samples. The limit has a
closed form (for a rank set S, the single-rank constants summed over S).
On n uniform points in the unit cube the ratio sits above the limit by a
boundary term: to first order gamma_inf * (1 + b * n^(-1/d)), where b also
has a closed form. `nnentropy calibrate` prints both numbers. The library's
Monte-Carlo estimate on the cube converges to the limit only slowly, but
agrees with the boundary-corrected value at every size, within its standard
error (compare the last two columns below). The estimators use the closed
forms; the Monte Carlo is their cross-check.
"""

import math

from nnentropy import GammaKey, boundary_coefficient, estimate_gamma, gamma_analytic

D, S, P = 3, (1, 2, 3), 0.9


def main() -> None:
    terms = [gamma_analytic(D, P, k) for k in S]
    limit = math.fsum(terms)
    b = math.fsum(g * boundary_coefficient(D, P, k) for g, k in zip(terms, S)) / limit
    print(f"d={D}, S={set(S)}, p={P}: gamma_inf = {limit:.6f}, b = {b:.6f}\n")

    print(f"{'n_cal':>8} {'MC mean':>10} {'std err':>10} {'(MC-inf)/se':>12} "
          f"{'inf(1+bn^-1/d)':>15} {'(MC-pred)/se':>13}")
    for n_cal in (10_000, 40_000, 160_000):
        est = estimate_gamma(GammaKey(d=D, p=P, spec=S, n_cal=n_cal, reps=5), seed=2)
        predicted = limit * (1.0 + b * n_cal ** (-1.0 / D))
        print(f"{n_cal:>8} {est.mean:>10.6f} {est.std_error:>10.6f} "
              f"{(est.mean - limit) / est.std_error:>+12.1f} {predicted:>15.6f} "
              f"{(est.mean - predicted) / est.std_error:>+13.1f}")


if __name__ == "__main__":
    main()
