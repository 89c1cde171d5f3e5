"""Exception types shared across the package.

The CLI maps these onto exit codes: parse errors -> 2, validation errors -> 3,
numeric failures -> 4, resource guards -> 5.
"""


class TreeShiftError(Exception):
    """Base class for all package errors."""


class ModelParseError(TreeShiftError):
    """Model file is syntactically or structurally unreadable."""


class ModelValidationError(TreeShiftError):
    """Model violates a structural invariant; carries offending indices when known."""

    def __init__(self, message, *, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class EmptyModel(ModelValidationError):
    """All symbols were deleted while reducing to satisfy the column-sum condition."""


class A1Violated(ModelValidationError):
    """No symbol generates every other symbol as a descendant."""

    def __init__(self, message, recurrent=()):
        super().__init__(message)
        self.recurrent = tuple(recurrent)


class ClassInconsistency(ModelValidationError):
    """Reachable symbols admit generation paths with conflicting residues mod p."""


class BadExponent(TreeShiftError):
    """Exponent vector leaves the admissible set (0, d]^p with unit product."""


class NoConvergence(TreeShiftError):
    """An iteration did not reach its tolerance; carries the best estimate."""

    def __init__(self, message, *, bracket=None, best=None):
        super().__init__(message)
        self.bracket = bracket
        self.best = best


class ValidationFailed(TreeShiftError):
    """A numerical cross-check missed its tolerance; carries both numbers."""

    def __init__(self, message, *, expected=None, got=None):
        super().__init__(message)
        self.expected = expected
        self.got = got


class TooLarge(TreeShiftError):
    """A requested enumeration exceeds a resource guard."""


class Overflow(TreeShiftError):
    """A quantity leaves its number type's range: an integer past 2**63 - 1, or a
    floating-point result that is no longer finite."""
