"""Exception hierarchy shared across the package.

Every error raised deliberately by this library derives from
:class:`BiderivError`, so callers can tell our diagnostics apart from
genuine bugs.  Each class carries the ``exit_code`` the CLI ends with when
it escapes a subcommand: 1 for out-of-domain input, 2 for parse errors and
3 for violated preconditions.
"""

from __future__ import annotations

__all__ = [
    "BiderivError",
    "CharacteristicError",
    "CoercionError",
    "DegreeGuardError",
    "DimensionMismatchError",
    "DomainError",
    "FieldMismatchError",
    "ParseError",
    "PreconditionError",
    "SeparationError",
]


class BiderivError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DimensionMismatchError(BiderivError):
    """Operands live over different numbers of variables."""

    exit_code = 3


class FieldMismatchError(BiderivError):
    """Operands have coefficients in different fields."""

    exit_code = 3


class CharacteristicError(BiderivError):
    """The coefficient field has the wrong characteristic for the operation."""

    exit_code = 3


class CoercionError(BiderivError):
    """A value cannot be represented in the requested coefficient field."""

    exit_code = 3


class DomainError(BiderivError):
    """An input lies outside the mathematical domain of the operation."""


class PreconditionError(BiderivError):
    """A stated precondition of the operation was violated."""

    exit_code = 3


class SeparationError(BiderivError):
    """A Cartan element failed to separate the eigenvalues of a support."""


class ParseError(BiderivError):
    """Syntax or semantic error in a polynomial expression.

    Attributes:
        offset: byte offset into the (UTF-8 encoded) input where the error
            was detected.
        expected: sorted tuple of token descriptions that would have been
            accepted at that position (may be empty for semantic errors).
    """

    exit_code = 2

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        detail = f"at byte {offset}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class DegreeGuardError(BiderivError):
    """An expression exceeded the configured maximum degree guard."""

    exit_code = 3

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"at byte {offset}: {message}"
        super().__init__(message)
