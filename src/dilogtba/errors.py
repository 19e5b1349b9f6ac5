"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "RangeViolation",
    "SingularMatrixError",
    "ScanFailure",
    "NonTerminatingSeries",
    "TailBoundError",
    "CatalogError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeViolation(ValueError):
    """A coefficient matrix violates the admissibility conditions
    a >= 0, d >= 0, b >= -min(a, d)."""


class SingularMatrixError(ValueError):
    """The matrix has zero determinant where an inverse is required."""


class ScanFailure(RuntimeError):
    """The fixed-point grid scan found no usable solution."""


class NonTerminatingSeries(ValueError):
    """A q-series expansion has infinitely many terms at or below the
    requested truncation order."""


class TailBoundError(RuntimeError):
    """A numeric q-series evaluation cannot certify its truncation tail
    at the requested cutoff."""


class CatalogError(ValueError):
    """An identity catalog file is malformed."""
