"""Convergence-rate study, desk scale.

How fast does the mutual-information estimate approach the truth as the
sample grows? This runs a small version of the shipped experiment: a
3-D Gaussian with known mutual information, two neighbor-graph estimators
(the third neighbor alone, and ranks one to three), and the histogram
plug-in baseline. The long-format table the driver writes is plot-ready;
here we just print the mean absolute error per sample size.

The full-size study is available from the command line:

    nnentropy rate-experiment --config config.json --out rates.csv
"""

from nnentropy import RateExperimentConfig, run_rate_experiment

CONFIG = RateExperimentConfig.from_dict({
    "distribution": {"kind": "gaussian", "d": 3, "rho": 0.5},
    "n_grid": [256, 512, 1024, 2048],
    "runs": 10,
    "alpha": 0.7,
})


def main() -> None:
    print(f"target mutual information: {CONFIG.truth:.4f}\n")
    result = run_rate_experiment(CONFIG, seed=0)
    means = result.mean_errors()

    labels = sorted(means)
    print(f"{'n':>6} " + " ".join(f"{label:>12}" for label in labels))
    for n in CONFIG.n_grid:
        cells = " ".join(f"{means[label][n]:>12.4f}" for label in labels)
        print(f"{n:>6} {cells}")

    theory = {r.n: r.abs_error for r in result.rows if r.estimator == "theoretical"}
    print("\nreference slope (anchored at the first size): "
          + ", ".join(f"{n}:{theory[n]:.4f}" for n in CONFIG.n_grid))
    print("\nmean error shrinks with n for the neighbor-graph estimators, while")
    print("the histogram baseline stalls — binning cannot keep up in 3-D.")


if __name__ == "__main__":
    main()
