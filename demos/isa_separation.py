"""Separate mixed planar sources by grouping components with mutual information.

Three independent 2-D sources (points on wireframe shapes) are mixed by a
random 6 x 6 matrix. Plain ICA can recover one-dimensional components only
up to an arbitrary rotation inside each dependent pair, so the pipeline
finishes by grouping components into blocks that maximize within-block
mutual information.

Quality is scored against the known mixing with a block-structure index
in [0, 1]: 0 means the product of separation and mixing is a perfect
block permutation. Random guessing sits near 1; below 0.15 the shapes are
visibly recovered.

The full-size study (six 3-D sources, 18 x 18 mixing) runs from the CLI:

    nnentropy isa --paper-scale --out-dir out/
"""

import numpy as np

from nnentropy import IsaExperimentConfig, run_isa_experiment

CONFIG = IsaExperimentConfig(
    shapes=("spiral", "star", "zigzag"),
    subspace_dim=2,
    n=2000,
    alpha=0.99,
)


def main() -> None:
    print(f"sources: {', '.join(CONFIG.shapes)} (2-D each), n = {CONFIG.n}")
    result = run_isa_experiment(CONFIG, seed=0)

    print(f"recovered blocks        : {result.solution.blocks}")
    print(f"within-block objective  : {result.solution.objective:.4f}")
    print(f"block-structure index   : {result.solution.score:.4f}  (0 = perfect)")

    print("\nblock norms of separation @ mixing (one dominant entry per row = recovered):")
    with np.printoptions(precision=3, suppress=True):
        print(result.block_norms)


if __name__ == "__main__":
    main()
