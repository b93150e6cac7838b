"""Shared domain exceptions."""

from .exact import IndeterminateForm  # re-export
from .series import InsufficientTruncation, TruncationUnderflow  # re-export


class DomainError(Exception):
    """Base class for input-level errors (CLI exit code 2)."""


class InvalidCluster(DomainError):
    pass


class InternalMismatch(AssertionError):
    """Two independent computations of the same quantity disagreed."""


class ZeroPolynomial(DomainError):
    pass


class PolynomialSyntaxError(DomainError):
    """Polynomial text outside the grammar of ``poly.parse``."""


class PrecisionExceeded(DomainError):
    pass


class RootValuation(DomainError):
    """The requested construction degenerates to -deg."""


class NotDivisorial(DomainError):
    pass


class NeedsFieldExtension(DomainError):
    def __init__(self, message, minimal_polynomial=None):
        super().__init__(message)
        self.minimal_polynomial = minimal_polynomial


class ZeroOrConstant(DomainError):
    pass


class PreconditionViolated(DomainError):
    pass


class SkewnessTooHigh(DomainError):
    pass


class SingularSystem(DomainError):
    pass


class KernelDimensionNotOne(DomainError):
    pass


class NonPositiveKernel(DomainError):
    pass


class WitnessNotFound(DomainError):
    pass


class Undecidable(DomainError):
    pass


__all__ = [
    "DomainError", "InvalidCluster", "InternalMismatch", "ZeroPolynomial",
    "PolynomialSyntaxError",
    "PrecisionExceeded", "RootValuation", "NotDivisorial",
    "NeedsFieldExtension", "ZeroOrConstant", "PreconditionViolated",
    "SkewnessTooHigh", "SingularSystem", "KernelDimensionNotOne",
    "NonPositiveKernel", "WitnessNotFound", "Undecidable",
    "InsufficientTruncation", "TruncationUnderflow", "IndeterminateForm",
]
