"""Exception hierarchy shared by all tspectral modules.

Every failure mode maps to one of these classes so that callers (and the
CLI exit-code contract) can distinguish malformed input from violated
numerical preconditions.
"""

__all__ = [
    "TSpectralError",
    "ShapeError",
    "ParseError",
    "DomainError",
    "PreconditionError",
    "SingularityError",
    "NumericError",
]


class TSpectralError(Exception):
    """Base class for all tspectral errors."""


class ShapeError(TSpectralError):
    """Operands have incompatible or invalid dimensions."""


class ParseError(TSpectralError):
    """A tensor file does not conform to the JSON schema."""


class DomainError(TSpectralError):
    """A value lies outside the mathematical domain of the operation."""


class PreconditionError(TSpectralError):
    """A documented precondition (e.g. Hermitian input) is violated."""


class SingularityError(DomainError):
    """An operation requiring strict positive definiteness met a
    (numerically) singular operand."""


class NumericError(TSpectralError):
    """An internal numerical consistency check failed."""
