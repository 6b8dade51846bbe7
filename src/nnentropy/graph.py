"""Generalized nearest-neighbor graphs and their power-weighted lengths.

A graph for rank set ``S`` has one directed edge per vertex and rank: the
edge for rank ``i`` points to the vertex's i-th nearest other point. The
boundary variant shortens an edge to the vertex's distance from the
enclosing cube's boundary whenever that is less than the edge length; it
is the version whose total length is superadditive over a partition of the
cube.
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
    redirected to the cube boundary (boundary graphs only). ``length[i, j]``
    is the Euclidean edge length after any redirection, the vertex's
    boundary distance for a redirected edge.
    """

    point_set: PointSet
    spec: NeighborSpec
    neighbor_index: np.ndarray
    length: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.length.size)

    def in_degrees(self) -> np.ndarray:
        """Number of incoming point-to-point edges per vertex."""
        targets = self.neighbor_index[self.neighbor_index >= 0]
        return np.bincount(targets, minlength=self.point_set.n)


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
    return _rank_columns(ps, spec, *knn_all(ps, spec.k, workers=workers))


def _rank_columns(ps: PointSet, spec: NeighborSpec, idx, lengths) -> NNGraph:
    """The graph for ``spec`` from a neighbor table whose column j holds rank j + 1.

    :func:`build_nn_graph` passes the search for ``max(spec)`` ranks; the
    rate study passes one table of more ranks, which several rank sets
    share. The table is ordered by length and then index, so its leading
    columns are the search for fewer ranks.
    """
    if len(spec) == idx.shape[1]:
        # Every rank of the table: its arrays are the graph's.
        return NNGraph(ps, spec, idx, lengths)
    cols = np.asarray(spec.indices, dtype=np.intp) - 1
    return NNGraph(ps, spec, idx[:, cols], lengths[:, cols])


def build_boundary_graph(points, spec, cube: Cube) -> NNGraph:
    """Build the boundary-rewired neighbor graph inside ``cube``.

    Every edge ``(x, y)`` of the plain graph is kept when ``||x - y||``
    is at most the distance from ``x`` to the cube's boundary, and is
    redirected to the boundary (index -1, that distance as its length)
    otherwise. Ranks that do not exist because the sample is smaller than
    ``max(spec) + 1`` point to the boundary directly, so the graph is
    defined for any nonempty sample. Only edge lengths enter ``L_p``, so
    the graph keeps no boundary endpoints.

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
    r = cube.boundary_distance(ps.points)

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
    return NNGraph(ps, spec, neighbor_index, length)


def l_p(graph: NNGraph, p: float) -> float:
    """Sum of p-th powers of the graph's edge lengths.

    Uses the conventions ``0^p = 0`` for ``p > 0`` and ``0^0 = 1``.
    Summation is exactly rounded (math.fsum), so the value is independent
    of edge order and of how the graph was built. A sum beyond float64's
    range is ``inf``, without a warning.
    """
    with np.errstate(over="ignore"):  # an edge power beyond float64 is inf
        powered = (graph.length ** check_power(p)).ravel()
    # Iterating the array would box every element as a numpy scalar; tolist()
    # hands fsum plain floats, a chunk at a time so the lists stay small.
    try:
        return math.fsum(
            itertools.chain.from_iterable(
                powered[i : i + _FSUM_CHUNK].tolist() for i in range(0, powered.size, _FSUM_CHUNK)
            )
        )
    except OverflowError:  # finite powers whose sum is beyond float64
        return math.inf
