"""Weight-space machinery for the action of quadratic idempotents.

The squares ``x_i^2 / 4`` form a complete set of mutually orthogonal
primitive idempotents; their span acts diagonally on monomials:

    (a1 x1^2/4 + ... + an xn^2/4) o X^u  =  (sum_i a_i u_i / 2) X^u.

Every monomial therefore spans a one-dimensional weight space, a weight
being determined by the exponent vector u (the functional u -> sum u_i b_i/2
in the dual basis b_i of the idempotents).  We store weights as the integer
vector u itself and multiply by one half only when evaluating.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import DimensionMismatchError, DomainError, FieldMismatchError
from .fields import QQ, Field, Scalar
from .poly import Monomial, Polynomial, circ, grlex_key, monomials_of_degree
from .verdicts import Verdict, _Record, _set_field

__all__ = [
    "CartanElement",
    "Weight",
    "WeightDecomposition",
    "basis_weight",
    "cartan_action",
    "decompose",
    "idempotents",
    "peirce_decomposition",
    "product_rule_check",
    "weight_of_monomial",
    "weights_of_degree",
]


class CartanElement:
    """A diagonal quadratic sum_i a_i x_i^2/4, stored by its coefficients."""

    __slots__ = ("coefficients", "field")

    def __init__(self, coefficients, field: Field = QQ):
        coeffs = tuple(field(c) for c in coefficients)
        if not coeffs:
            raise DomainError("a Cartan element needs at least one coefficient")
        self.coefficients = coeffs
        self.field = field

    @classmethod
    def basis(cls, n: int, i: int, field: Field = QQ) -> "CartanElement":
        """The i-th idempotent x_i^2/4 (1-based)."""
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range 1..{n}")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(n)), field)

    @classmethod
    def unit(cls, n: int, field: Field = QQ) -> "CartanElement":
        """All-ones coefficients: the quadratic unit as a Cartan element."""
        return cls((1,) * n, field)

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def to_polynomial(self) -> Polynomial:
        quarter = self.field(Fraction(1, 4))
        terms = {}
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            u = [0] * self.n
            u[i] = 2
            terms[tuple(u)] = a * quarter
        return Polynomial(self.n, terms, self.field)

    def __eq__(self, other):
        if not isinstance(other, CartanElement):
            return NotImplemented
        return self.field == other.field and self.coefficients == other.coefficients

    def __repr__(self):
        return f"CartanElement({self.coefficients})"


class Weight(_Record):
    """Weight of a monomial X^u: the functional h -> sum_i u_i b_i(h) / 2."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        exponents = tuple(exponents)
        if any(not isinstance(e, int) or e < 0 for e in exponents):
            raise DomainError("weights are indexed by nonnegative integer vectors")
        _set_field(self, "exponents", exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __add__(self, other: "Weight") -> "Weight":
        if self.n != other.n:
            raise DimensionMismatchError("weights over different variable counts")
        return Weight(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def subtract(self, other: "Weight") -> "Weight | None":
        """Componentwise difference, or None when it leaves the weight monoid."""
        if self.n != other.n:
            raise DimensionMismatchError("weights over different variable counts")
        diff = tuple(a - b for a, b in zip(self.exponents, other.exponents))
        return Weight(diff) if all(d >= 0 for d in diff) else None

    def evaluate(self, h: CartanElement) -> Scalar:
        """The eigenvalue sum_i u_i a_i / 2 on the Cartan element h."""
        if h.n != self.n:
            raise DimensionMismatchError("weight and Cartan element sizes differ")
        acc = h.field.zero
        for u, a in zip(self.exponents, h.coefficients):
            if u:
                acc = acc + a * u
        return acc * h.field(Fraction(1, 2))


def basis_weight(n: int, i: int) -> Weight:
    """The weight carried by x_i^2 (dual to the i-th idempotent), 1-based."""
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    return Weight(tuple(2 if j == i - 1 else 0 for j in range(n)))


class WeightDecomposition:
    """A polynomial split into its weight-space parts.

    Each part is a scalar multiple of a single monomial (weight spaces are
    one-dimensional) and the parts sum back to the decomposed polynomial.
    """

    __slots__ = ("n", "field", "parts")

    def __init__(self, n: int, parts: dict[Weight, Polynomial], field: Field = QQ):
        self.n = n
        self.field = field
        self.parts = dict(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, w: Weight) -> Polynomial:
        return self.parts[w]

    def __contains__(self, w: Weight) -> bool:
        return w in self.parts

    def __iter__(self) -> Iterator[tuple[Weight, Polynomial]]:
        """Iterate parts in descending graded-lex order of the weight."""
        return iter(sorted(self.parts.items(),
                           key=lambda kv: grlex_key(kv[0].exponents), reverse=True))

    def weights(self) -> list[Weight]:
        return [w for w, _ in self]

    def total(self) -> Polynomial:
        acc = Polynomial.zero(self.n, self.field)
        for _, part in self:
            acc = acc + part
        return acc

    def __eq__(self, other):
        if not isinstance(other, WeightDecomposition):
            return NotImplemented
        return self.n == other.n and self.field == other.field and self.parts == other.parts

    def __repr__(self):
        inner = ", ".join(f"{w.exponents}: {p}" for w, p in self)
        return f"WeightDecomposition({{{inner}}})"


def idempotents(n: int, field: Field = QQ) -> list[Polynomial]:
    """The orthogonal idempotent system [x1^2/4, ..., xn^2/4]."""
    return [CartanElement.basis(n, i, field).to_polynomial() for i in range(1, n + 1)]


def cartan_action(h: CartanElement, f: Polynomial) -> Polynomial:
    """Act by the represented quadratic: each monomial X^u scales by sum a_i u_i / 2."""
    if h.n != f.n:
        raise DimensionMismatchError(
            f"Cartan element over {h.n} variables cannot act on {f.n} variables"
        )
    if h.field != f.field:
        raise FieldMismatchError("Cartan element and polynomial over different fields")
    return circ(h.to_polynomial(), f)


def weight_of_monomial(u: Monomial) -> Weight:
    return Weight(tuple(u))


def decompose(f: Polynomial) -> WeightDecomposition:
    """Partition the terms of f by exponent vector (one part per weight)."""
    parts = {
        Weight(u): Polynomial.monomial(f.n, u, c, f.field)
        for u, c in f.terms.items()
    }
    return WeightDecomposition(f.n, parts, f.field)


def weights_of_degree(n: int, k: int) -> list[Weight]:
    """All weights of total degree k, grlex-descending; there are C(n+k-1, n-1)."""
    ws = [Weight(u) for u in monomials_of_degree(n, k)]
    assert len(ws) == comb(n + k - 1, n - 1)
    return ws


def peirce_decomposition(n: int, field: Field = QQ) -> WeightDecomposition:
    """Monomial basis x_i x_j of the quadratics, indexed by weight.

    This is the eigenspace (Peirce) decomposition of the quadratic Jordan
    algebra relative to the idempotents x_i^2/4.
    """
    parts = {
        Weight(u): Polynomial.monomial(n, u, 1, field)
        for u in monomials_of_degree(n, 2)
    }
    return WeightDecomposition(n, parts, field)


def product_rule_check(a1: Weight, a2: Weight, field: Field = QQ) -> Verdict:
    """Check the weight laws on the monomial representatives of two weights.

    The ring product adds weights exactly; every term of the gradient
    product has weight a1 + a2 - b_i for some i (the product drops one
    degree in each of two slots, possibly the same slot twice).
    """
    if a1.n != a2.n:
        raise DimensionMismatchError("weights over different variable counts")
    n = a1.n
    xu = Polynomial.monomial(n, a1.exponents, 1, field)
    xv = Polynomial.monomial(n, a2.exponents, 1, field)

    prod = xu * xv
    expected = tuple(a + b for a, b in zip(a1.exponents, a2.exponents))
    for u in prod.terms:
        if u != expected:
            return Verdict(False, detail="ring product left the expected weight",
                           witness=u)

    for w in circ(xu, xv).terms:
        diff = tuple(e - x for e, x in zip(expected, w))
        # valid iff the difference is exactly 2 in a single slot
        if sorted(diff) != [0] * (n - 1) + [2]:
            return Verdict(False,
                           detail="gradient-product term outside the shifted weights",
                           witness=w)
    return Verdict(True, detail="weight laws hold on the representatives")
