"""Entropy and mutual-information estimation from nearest-neighbor graphs.

The package estimates Renyi entropy of order alpha in (0, 1) from i.i.d.
samples via the p-th-power edge lengths of generalized nearest-neighbor
graphs, and Renyi mutual information via the empirical copula transform.
It ships the graph constant in closed form (with the unit cube's boundary
factor for the copula) and its Monte-Carlo cross-check, synthetic data
generators, an independent-subspace-analysis pipeline built on the MI
estimator, a structural diagnostics suite, and a command-line interface.

Each module's ``__all__`` is its public list; the package exports their
union. Other module-level names stay importable by module path.
"""

from . import calibration, diagnostics, errors, estimators, experiments, graph, isa
from . import neighbors, points, samplers, theory
from ._version import __version__
from .calibration import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .experiments import *  # noqa: F403
from .graph import *  # noqa: F403
from .isa import *  # noqa: F403
from .neighbors import *  # noqa: F403
from .points import *  # noqa: F403
from .samplers import *  # noqa: F403
from .theory import *  # noqa: F403

__all__ = [
    "__version__",
    *calibration.__all__,
    *diagnostics.__all__,
    *errors.__all__,
    *estimators.__all__,
    *experiments.__all__,
    *graph.__all__,
    *isa.__all__,
    *neighbors.__all__,
    *points.__all__,
    *samplers.__all__,
    *theory.__all__,
]
