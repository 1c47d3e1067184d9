"""Exact square matrices over a coefficient field.

Only what the algebra needs: addition, scaling, matrix product, transpose,
and a symmetry-enforcing subclass.  Entries are stored as a tuple of row
tuples and never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable

from .errors import DimensionMismatchError, DomainError, FieldMismatchError
from .fields import QQ, Field, FpElement

__all__ = ["SquareMatrix", "SymMatrix"]


class SquareMatrix:
    """An n x n matrix with exact entries."""

    __slots__ = ("n", "field", "entries")

    def __init__(self, rows: Iterable[Iterable], field: Field = QQ):
        coerced = tuple(tuple(field(v) for v in row) for row in rows)
        n = len(coerced)
        if n == 0:
            raise DomainError("matrices must have at least one row")
        if any(len(row) != n for row in coerced):
            raise DimensionMismatchError("matrix rows must all have length equal to the row count")
        self.n = n
        self.field = field
        self.entries = coerced

    @classmethod
    def identity(cls, n: int, field: Field = QQ) -> "SquareMatrix":
        one, zero = field.one, field.zero
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field)

    def _check_compatible(self, other: "SquareMatrix"):
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot combine {self.n}x{self.n} and {other.n}x{other.n} matrices")
        if self.field != other.field:
            raise FieldMismatchError(f"cannot combine matrices over {self.field!r} and {other.field!r}")

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_compatible(other)
        return SquareMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.field,
        )

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_compatible(other)
        return SquareMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.field,
        )

    def __neg__(self):
        return SquareMatrix([[-a for a in row] for row in self.entries], self.field)

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            # Integer rows times integer columns, one scalar per entry.
            self._check_compatible(other)
            (a, sa), (b, sb) = self._integer_rows(), other._integer_rows()
            cols = tuple(zip(*b))
            scalar = self.field if self.field.characteristic else lambda c: Fraction(c, sa * sb)
            return SquareMatrix([[scalar(sum(map(mul, row, col))) for col in cols] for row in a],
                                self.field)
        if isinstance(other, (int, Fraction, FpElement)):
            c = self.field(other)
            return SquareMatrix([[a * c for a in row] for row in self.entries], self.field)
        return NotImplemented

    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """(rows, scale) with each entry equal to rows[i][j] / scale (scale 1 over GF(p))."""
        if self.field.characteristic:
            return [[v.value for v in row] for row in self.entries], 1
        scale = lcm(*(v.denominator for row in self.entries for v in row))
        return [[v.numerator * (scale // v.denominator) for v in row] for row in self.entries], scale

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            return self * other
        return NotImplemented

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.entries)), self.field)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.n == other.n and self.field == other.field and self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"{type(self).__name__}([{rows}])"


class SymMatrix(SquareMatrix):
    """A square matrix that is checked to be symmetric at construction."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable], field: Field = QQ):
        super().__init__(rows, field)
        if not self.is_symmetric():
            raise DomainError("matrix is not symmetric")
