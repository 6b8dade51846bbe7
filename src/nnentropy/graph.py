"""Generalized nearest-neighbor graphs and their power-weighted lengths.

A graph for rank set ``S`` has one directed edge per vertex and rank: the
edge for rank ``i`` points to the vertex's i-th nearest other point. The
boundary variant rewires an edge to the enclosing cube's nearest boundary
point whenever that is closer than the graph neighbor; it is the version
whose total length is superadditive over a partition of the cube.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPointsError
from .neighbors import knn_all
from .points import Cube, NeighborSpec, PointSet, as_neighbor_spec, as_point_set, check_power

__all__ = ["NNGraph", "build_nn_graph", "build_boundary_graph", "l_p"]

# Edge powers l_p converts to Python floats at a time: 4096 keeps the
# scratch list near 130 kB and sums as fast as any larger chunk.
_FSUM_CHUNK = 4096


@dataclass(frozen=True)
class NNGraph:
    """A generalized nearest-neighbor graph.

    ``neighbor_index[i, j]`` is the target vertex of the edge emitted by
    vertex ``i`` for rank ``spec.indices[j]``; the value -1 marks an edge
    redirected to the cube boundary (boundary graphs only), in which case
    ``boundary_point[i, j]`` holds the substituted endpoint coordinates
    (NaN for kept edges; ``boundary_point`` is None on a plain graph).
    ``length[i, j]`` is the Euclidean edge length after any substitution.
    """

    point_set: PointSet
    spec: NeighborSpec
    neighbor_index: np.ndarray
    length: np.ndarray
    boundary_point: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.point_set.n

    @property
    def n_edges(self) -> int:
        return int(self.length.size)

    def in_degrees(self) -> np.ndarray:
        """Number of incoming point-to-point edges per vertex."""
        targets = self.neighbor_index[self.neighbor_index >= 0]
        return np.bincount(targets, minlength=self.n_vertices)


def build_nn_graph(points, spec, workers: int = -1) -> NNGraph:
    """Build the nearest-neighbor graph of a sample for rank set ``spec``.

    Requires ``n > max(spec)``. Ties in neighbor distance are broken by
    ascending point index, so the graph is a deterministic function of the
    sample whatever the number of ``workers``.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    if ps.n <= spec.k:
        raise InsufficientPointsError(
            f"rank {spec.k} requested but the sample has only {ps.n} points"
        )
    idx, lengths = knn_all(ps, spec.k, workers=workers)
    cols = np.asarray(spec.indices, dtype=np.intp) - 1
    return NNGraph(ps, spec, idx[:, cols], lengths[:, cols])


def build_boundary_graph(points, spec, cube: Cube) -> NNGraph:
    """Build the boundary-rewired neighbor graph inside ``cube``.

    Every edge ``(x, y)`` of the plain graph is kept when
    ``||x - y|| <= ||x - b||`` for ``b`` the nearest boundary point of
    ``x``, and replaced by ``(x, b)`` otherwise. Ranks that do not exist
    because the sample is smaller than ``max(spec) + 1`` point to the
    boundary directly, so the graph is defined for any nonempty sample.

    Raises
    ------
    OutsideCubeError
        If a point lies outside the closed cube.
    """
    ps = as_point_set(points)
    spec = as_neighbor_spec(spec)
    if not isinstance(cube, Cube):
        raise ValueError("cube must be a Cube")
    if cube.d != ps.d:
        raise ValueError(f"cube dimension {cube.d} != sample dimension {ps.d}")
    X = ps.points
    b, r = cube.nearest_boundary(X)

    n = ps.n
    ncols = len(spec)
    neighbor_index = np.full((n, ncols), -1, dtype=np.intp)
    length = np.tile(r[:, None], (1, ncols))

    k_avail = min(spec.k, n - 1)
    if k_avail >= 1:
        all_idx, all_len = knn_all(ps, k_avail)
        for j, rank in enumerate(spec.indices):
            if rank <= k_avail:
                cand_len = all_len[:, rank - 1]
                keep = cand_len <= r
                neighbor_index[keep, j] = all_idx[keep, rank - 1]
                length[keep, j] = cand_len[keep]

    redirected = neighbor_index < 0
    boundary_point = np.where(redirected[:, :, None], b[:, None, :], np.nan)
    return NNGraph(ps, spec, neighbor_index, length, boundary_point=boundary_point)


def l_p(graph: NNGraph, p: float) -> float:
    """Sum of p-th powers of the graph's edge lengths.

    Uses the conventions ``0^p = 0`` for ``p > 0`` and ``0^0 = 1``.
    Summation is exactly rounded (math.fsum), so the value is independent
    of edge order and of how the graph was built.
    """
    powered = (graph.length ** check_power(p)).ravel()
    # Iterating the array would box every element as a numpy scalar; tolist()
    # hands fsum plain floats, a chunk at a time so the lists stay small.
    return math.fsum(
        itertools.chain.from_iterable(
            powered[i : i + _FSUM_CHUNK].tolist() for i in range(0, powered.size, _FSUM_CHUNK)
        )
    )
