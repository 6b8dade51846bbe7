"""Mutual information through the empirical copula transform.

Mapping each coordinate to its normalized rank strips the marginals and
keeps only the dependence structure; the negative Renyi entropy of the
rank-transformed sample is the Renyi mutual information. Two consequences
worth seeing with numbers:

* the estimate is invariant (bit for bit) under strictly increasing
  per-coordinate transforms, because ranks do not move;
* for a correlated Gaussian the estimate approaches the closed form.
"""

import numpy as np

from nnentropy import (
    EstimatorSettings,
    empirical_copula,
    gaussian_renyi_mi,
    renyi_mi,
)

ALPHA = 0.7
N = 4000


def main() -> None:
    settings = EstimatorSettings(alpha=ALPHA)

    cov = np.full((3, 3), 0.5)
    np.fill_diagonal(cov, 1.0)
    rng = np.random.default_rng(0)
    X = rng.multivariate_normal(np.zeros(3), cov, size=N)

    print(f"trivariate Gaussian, pairwise correlation 0.5, n = {N}")
    print(f"  closed form I_alpha : {gaussian_renyi_mi(cov, ALPHA):.4f}")
    print(f"  estimate            : {renyi_mi(X, settings).value:.4f}")

    indep = rng.random((N, 3))
    print(f"\nindependent uniforms (truth 0): {renyi_mi(indep, settings).value:+.4f}")

    # Ranks ignore the marginals entirely: warp each coordinate with a
    # different increasing map and the estimate does not change at all.
    warped = np.column_stack([np.exp(X[:, 0]), X[:, 1] ** 3 + X[:, 1], np.arctan(X[:, 2])])
    v, w = renyi_mi(X, settings).value, renyi_mi(warped, settings).value
    print(f"\nafter exp/cubic/arctan warps : {w:.15f}")
    print(f"original                     : {v:.15f}")
    print(f"bit-identical                : {v == w}")

    # The transform itself: every column of the copula sample is exactly
    # the grid {1/n, ..., 1}, whatever the input distribution was.
    Z = empirical_copula(X[:100]).points
    grid = np.arange(1, 101) / 100.0
    print(f"\ncopula marginals equal the rank grid: "
          f"{all(np.array_equal(np.sort(Z[:, j]), grid) for j in range(3))}")


if __name__ == "__main__":
    main()
