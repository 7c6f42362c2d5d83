"""Exact symbolic toolkit for near-primitive characteristic classes and
bordism-invariant generalised Miller-Morita-Mumford numbers."""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    InhomogeneousError,
    MMMKitError,
    ParseError,
    QueryError,
)
from .exactq import Subspace, kernel_basis, subspace_equal

__all__ = [
    "AlphabetMismatch",
    "DimensionMismatch",
    "InhomogeneousError",
    "MMMKitError",
    "ParseError",
    "QueryError",
    "Subspace",
    "kernel_basis",
    "subspace_equal",
    "__version__",
]
