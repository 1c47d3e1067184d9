"""Exact coefficient fields: the rationals and odd prime fields.

Rational scalars are plain :class:`fractions.Fraction` values, which are
always stored in lowest terms with a positive denominator.  Prime-field
scalars are :class:`FpElement` residues with canonical value in ``0..p-1``.
Characteristic 2 is rejected everywhere: the algebra needs one half.

A field object is a callable that coerces ints, Fractions, strings such as
``"3/4"``, and (for ``GF(p)``) existing residues into field elements.  The
elements themselves support exact ``+ - * / **`` and mix freely with Python
ints through the canonical ring map from the integers.  A residue compares
equal only to its canonical int (``FpElement(1, 5) == 1`` but ``!= 6``), so
equality agrees with hashing.  Strings in exponent notation (``"3e-5"``)
are read only for exponents up to 4300 in size, and :func:`scalar_to_str`
refuses numbers above the interpreter's int-to-str digit limit.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

from .errors import CharacteristicError, CoercionError, FieldMismatchError, PreconditionError

__all__ = [
    "QQ",
    "Field",
    "FpElement",
    "PrimeField",
    "RationalField",
    "Scalar",
    "field_from_name",
    "scalar_to_str",
]

# Largest exponent size a scalar string may carry in exponent notation.
_MAX_DECIMAL_EXPONENT = 4300

# Witnesses for deterministic Miller-Rabin; exact for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue modulo an odd prime, with exact field arithmetic."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> int | None:
        """Return the residue of `other`, or None if it cannot participate."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix GF({self.p}) and GF({other.p}) elements"
                )
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(v * pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, exponent: int):
        if exponent < 0 and self.value == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return FpElement(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            # Only the reduced representative: FpElement(1, 5) != 6.
            return self.value == other
        return NotImplemented

    def __hash__(self):
        # Agrees with int hashing, since FpElement(k, p) == k exactly when k == value.
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """The field of rational numbers; its scalars are Fraction values."""

    __slots__ = ()

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _read_fraction(value, "a rational")
        raise CoercionError(f"cannot coerce {value!r} into the rationals")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    @property
    def name(self) -> str:
        return "q"


class PrimeField:
    """The finite field GF(p) for an odd prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise CoercionError(f"field modulus must be an integer >= 3, got {p!r}")
        if p == 2:
            raise CharacteristicError("characteristic 2 is not supported (1/2 must exist)")
        if not _is_prime(p):
            raise CoercionError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise FieldMismatchError(
                    f"cannot reinterpret a GF({value.p}) element in GF({self.p})"
                )
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            den = value.denominator
            if den % self.p == 0:
                raise CoercionError(
                    f"denominator {den} is divisible by {self.p}; "
                    f"the value has no image in GF({self.p})"
                )
            return FpElement(value.numerator * pow(den, -1, self.p), self.p)
        if isinstance(value, str):
            return self(_read_fraction(value, "a scalar"))
        raise CoercionError(f"cannot coerce {value!r} into GF({self.p})")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    @property
    def name(self) -> str:
        return f"fp:{self.p}"


QQ = RationalField()

Scalar = Union[Fraction, FpElement]
Field = Union[RationalField, PrimeField]


def field_from_name(name: str) -> Field:
    """Resolve ``"q"`` or ``"fp:P"`` to a field object."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError as exc:
            raise CoercionError(f"bad field spec {name!r}") from exc
        return PrimeField(p)
    raise CoercionError(f"unknown field {name!r} (use 'q' or 'fp:P')")


def _read_fraction(text: str, what: str) -> Fraction:
    _, marker, exponent = text.lower().partition("e")
    try:
        if marker and abs(int(exponent)) > _MAX_DECIMAL_EXPONENT:
            raise CoercionError(f"cannot read {text!r}: its exponent is above the bound "
                                f"{_MAX_DECIMAL_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CoercionError(f"cannot read {text!r} as {what}") from exc


def scalar_to_str(c: Scalar) -> str:
    """Exact text form: 'a/b' or 'a' for rationals, the residue for GF(p)."""
    if isinstance(c, FpElement):
        return str(c.value)
    try:
        return str(c)
    except ValueError:  # past the interpreter's int-to-str digit limit, kept: it is quadratic
        big = max(abs(c.numerator), c.denominator)
        digits = int(big.bit_length() * 0.30102999566398120)  # floor(bits * log10(2))
        digits += big >= 10 ** digits
        raise PreconditionError(
            f"a scalar with {digits} digits is above the limit of "
            f"{sys.get_int_max_str_digits()} digits for decimal output") from None
