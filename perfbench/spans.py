"""Span recording around the package's public functions, for the traced run.

A :class:`Tracer` replaces each listed function at the module attribute the
package looks it up through with a wrapper that records one span per call:
its name, its parent span, start and end times and a few counts taken from
the call's arguments and return value. :meth:`Tracer.uninstall` puts the
original functions back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import nnentropy.calibration
import nnentropy.cli
import nnentropy.estimators
import nnentropy.experiments
import nnentropy.graph
import nnentropy.isa
import nnentropy.neighbors
from nnentropy import GammaCache, PointSet


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    children: float = 0.0  # summed duration of direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


def _rows(points) -> int:
    return points.n if isinstance(points, PointSet) else len(points)


def _knn_counts(args, kwargs, result, seconds) -> dict:
    points = args[0] if args else kwargs["points"]
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        d = points.d if isinstance(points, PointSet) else len(points[0])
        method = "kdtree" if d <= nnentropy.neighbors.BRUTE_FORCE_DIMENSION else "brute"
    return {"neighbors.knn_all.points": _rows(points), f"neighbors.knn_all.{method}_s": seconds}


def _gamma_counts(args, kwargs, result, seconds) -> dict:
    key = args[0] if args else kwargs["key"]
    return {"calibration.points": key.n_cal * key.reps}


def _source_counts(args, kwargs, result, seconds) -> dict:
    return {f"calibration.gamma_source.{result.gamma_source}": 1}


def _cli_counts(args, kwargs, result, seconds) -> dict:
    return {"cli.rows": _rows(args[0]), **_source_counts(args, kwargs, result, seconds)}


# (module or class, attribute, span name, counts).  ``counts`` maps the
# call's (args, kwargs, return value, duration) to metric increments.
TARGETS = (
    (nnentropy.cli, "main", "cli.main", None),
    (nnentropy.cli, "renyi_entropy", "estimators.renyi_entropy", _cli_counts),
    (nnentropy.cli, "renyi_mi", "estimators.renyi_mi",
     lambda a, k, r, dt: {"cli.rows": _rows(a[0])}),
    (nnentropy.estimators, "renyi_entropy", "estimators.renyi_entropy", _source_counts),
    (nnentropy.estimators, "renyi_mi", "estimators.renyi_mi", None),
    (nnentropy.estimators, "empirical_copula", "estimators.empirical_copula", None),
    (nnentropy.estimators, "build_nn_graph", "graph.build_nn_graph",
     lambda a, k, r, dt: {"graph.edges": r.n_edges}),
    (nnentropy.estimators, "l_p", "graph.l_p", None),
    (nnentropy.estimators, "estimate_gamma", "calibration.estimate_gamma", _gamma_counts),
    (nnentropy.graph, "knn_all", "neighbors.knn_all", _knn_counts),
    (nnentropy.calibration, "build_nn_graph", "calibration.build_nn_graph", None),
    (nnentropy.calibration, "estimate_gamma", "calibration.estimate_gamma", _gamma_counts),
    (GammaCache, "get_or_compute", "calibration.get_or_compute", None),
    (nnentropy.isa, "whiten", "isa.whiten", None),
    (nnentropy.isa, "fastica", "isa.fastica",
     lambda a, k, r, dt: {"isa.fastica.iterations": r.iterations}),
    (nnentropy.isa, "pairwise_mi_matrix", "isa.pairwise_mi_matrix", None),
    (nnentropy.isa, "group_components", "isa.group_components", None),
    (nnentropy.isa, "renyi_mi", "estimators.renyi_mi", None),
    (nnentropy.experiments, "sample", "samplers.sample", None),
    (nnentropy.experiments, "renyi_mi", "estimators.renyi_mi", None),
    (nnentropy.experiments, "histogram_mi", "estimators.histogram_mi", None),
    (nnentropy.experiments, "run_isa", "isa.run_isa", None),
    (nnentropy.experiments, "run_rate_experiment", "experiments.run_rate_experiment", None),
    (nnentropy.experiments, "run_isa_experiment", "experiments.run_isa_experiment", None),
)


class Tracer:
    """Records spans while installed; :meth:`take` hands them over."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.children += span.duration
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result, span.duration)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counts in TARGETS:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one pass, keyed by metric name."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span in spans:
        add(f"{span.name}.s", span.duration)
        add(f"{span.name}.self_s", span.self_time)
        add(f"{span.name}.calls", 1)
        for key, value in span.counts.items():
            add(key, value)
        if (
            span.name == "estimators.renyi_mi"
            and span.parent is not None
            and span.parent.name == "isa.group_components"
        ):
            add("isa.block_mi_calls", 1)
    return out


def root_time(spans: list[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(span.duration for span in spans if span.parent is None)
