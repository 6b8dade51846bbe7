"""Exception types shared across the package."""

__all__ = [
    "NNEntropyError",
    "InsufficientPointsError",
    "OutsideCubeError",
    "DegenerateSampleError",
    "HistogramInfeasibleError",
    "DataFormatError",
]


class NNEntropyError(Exception):
    """Base class for package-specific errors."""


class InsufficientPointsError(NNEntropyError, ValueError):
    """A sample has too few points for the requested neighbor order."""


class OutsideCubeError(NNEntropyError, ValueError):
    """A point lies outside a cube that is required to contain it."""


class DegenerateSampleError(NNEntropyError, ValueError):
    """A sample is degenerate for the requested computation.

    Raised, for example, when every edge of a neighbor graph has length
    zero (all points coincide), when neighbor distances overflow or
    underflow float64, when ``L_p`` or an estimate overflows float64, or
    when a coordinate has zero spread where a positive spread is required.
    """


class HistogramInfeasibleError(NNEntropyError, ValueError):
    """A histogram grid would exceed the cell budget."""


class DataFormatError(NNEntropyError, ValueError):
    """An input data file (CSV, JSON config) is malformed."""
