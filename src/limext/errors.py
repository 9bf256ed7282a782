"""Domain-error types with machine-readable codes for the batch interface.

Every precondition failure raises a :class:`DomainError` subclass.  The
``code`` is stable and machine readable; ``citation`` names the violated
documented constraint in plain words.
"""

from __future__ import annotations


class DomainError(ValueError):
    code = "domain-error"

    def __init__(self, message: str, *, citation: str | None = None):
        super().__init__(message)
        self.citation = citation

    def to_json(self) -> dict:
        out = {"code": self.code, "message": str(self)}
        if self.citation is not None:
            out["citation"] = self.citation
        return out


class NotPrimeError(DomainError):
    code = "not-prime"


class DimensionError(DomainError):
    code = "dimension-mismatch"


class ContinuumError(DomainError):
    code = "continuum-not-supported"


class ModuleHypothesisError(DomainError):
    """The input is outside the module class for which the result is proved."""

    code = "hypothesis-violation"


class SpanError(DomainError):
    code = "span-deficient"


class InvalidSystemError(DomainError):
    code = "invalid-system"


class UnsupportedInputError(DomainError):
    code = "unsupported-input"


class InconsistentInputsError(DomainError):
    code = "inconsistent-inputs"


class BudgetExceededError(DomainError):
    """The input is valid, but the computation it asks for is refused as too
    large before any work starts."""

    code = "budget-exceeded"
