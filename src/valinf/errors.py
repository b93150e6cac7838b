"""Every exception that valinf raises, in three families.

Each family has one CLI exit code:

- 2, bad input: ``DomainError`` and its subclasses ``InvalidCluster``,
  ``ZeroPolynomial``, ``PolynomialSyntaxError``, ``RootValuation``,
  ``NeedsFieldExtension``, ``ZeroOrConstant``, ``PreconditionViolated``,
  ``SkewnessTooHigh``, ``SingularSystem``, ``KernelDimensionNotOne``,
  ``NonPositiveKernel``, ``WitnessNotFound``, ``ScenarioError``;
- 3, undecided at this truncation, precision or cap: ``Undecided`` and
  its subclasses ``InsufficientTruncation``, ``Undecidable`` and
  ``PrecisionExceeded``, which are siblings, so that catching one never
  catches another;
- 1, internal error: ``InternalMismatch`` (an ``AssertionError``),
  ``IndeterminateForm`` (an ``ArithmeticError``) and any other exception.

This module imports no other valinf module, so every layer can import it.
"""


class DomainError(Exception):
    """Base class for input-level errors (CLI exit code 2)."""


class Undecided(Exception):
    """Base class for answers left open at a truncation or a cap (CLI
    exit code 3)."""


class InternalMismatch(AssertionError):
    """Two independent computations of the same quantity disagreed."""


class IndeterminateForm(ArithmeticError):
    """Raised on (+inf) + (-inf), 0 * inf and similar."""


class InsufficientTruncation(Undecided):
    """A series-backed quantity could not be certified at the stored order."""


class Undecidable(Undecided):
    pass


class PrecisionExceeded(Undecided):
    pass


class InvalidCluster(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class PolynomialSyntaxError(DomainError):
    """Polynomial text outside the grammar of ``poly.parse``."""


class RootValuation(DomainError):
    """The requested construction degenerates to -deg."""


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


class ScenarioError(DomainError):
    """A scenario file or a CLI argument that names into it is malformed.

    ``path`` holds the JSON path of the bad field, outermost key first;
    the message starts with it, dotted: ``valuations.c.coefficients.3:``.
    """

    def __init__(self, message, path=()):
        super().__init__(message)
        self.message = message
        self.path = tuple(path)

    def __str__(self):
        if not self.path:
            return self.message
        return ".".join(map(str, self.path)) + ": " + self.message


__all__ = [
    "DomainError", "Undecided", "InvalidCluster", "InternalMismatch",
    "ZeroPolynomial", "PolynomialSyntaxError",
    "PrecisionExceeded", "RootValuation",
    "NeedsFieldExtension", "ZeroOrConstant", "PreconditionViolated",
    "SkewnessTooHigh", "SingularSystem", "KernelDimensionNotOne",
    "NonPositiveKernel", "WitnessNotFound", "Undecidable", "ScenarioError",
    "InsufficientTruncation", "IndeterminateForm",
]
