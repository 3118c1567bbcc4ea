"""Exception types shared across the package."""

__all__ = ["DomainError", "DegeneratePairError", "ParameterError", "NotApplicableError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegeneratePairError(DomainError):
    """A computation required two distinct values but got a == b."""


class ParameterError(ValueError):
    """A tuning parameter (depth, grid size, weight, ...) is unusable."""


class NotApplicableError(Exception):
    """The inputs fall outside the stated scope of an inequality record.

    Raised by catalog checks whose statement carries a domain restriction;
    callers should treat it as "no verdict", not as a failure.
    """
