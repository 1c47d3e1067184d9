"""Jordan structure carried by polynomials of degree at most two.

Under the gradient product, the homogeneous quadratics form a Jordan
algebra isomorphic to the symmetric matrices with half the anticommutator:
the quadratic form ``q_A = X A X^T`` of a symmetric matrix A satisfies
``q_A o q_B = 4 q_{A o B}``, so ``q_A -> 4A`` is an isomorphism.  This
module exposes that correspondence, residual calculators for the Jordan
identity and the three bimodule identities (zero residual means the
identity holds; a nonzero residual is a concrete witness), the degree-wise
semidirect product on (quadratic, linear) pairs, and the nilpotency check
for the low-degree radical.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatchError, DomainError, FieldMismatchError, PreconditionError
from .fields import QQ, Field
from .matrices import SymMatrix
from .poly import Polynomial, _kernel, circ
from .verdicts import _Record, _set_field

__all__ = [
    "GradedPair",
    "bimodule_defects",
    "jordan_identity_defect",
    "matrix_correspondence_residual",
    "matrix_jordan_product",
    "matrix_to_quadratic",
    "quadratic_form",
    "quadratic_to_matrix",
    "radical_nilpotency_check",
    "semidirect_jordan_defect",
    "semidirect_product",
    "unit",
]


def quadratic_form(a: SymMatrix) -> Polynomial:
    """The homogeneous quadratic X A X^T = sum_{ij} a_ij x_i x_j.

    Diagonal entries contribute ``a_ii x_i^2``; each off-diagonal pair
    contributes ``2 a_ij x_i x_j``.
    """
    n = a.n
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = a.entries[i][j] if i == j else a.entries[i][j] + a.entries[j][i]
            if not c:
                continue
            u = [0] * n
            u[i] += 1
            u[j] += 1
            terms[tuple(u)] = c
    return Polynomial(n, terms, a.field)


def quadratic_to_matrix(q: Polynomial) -> SymMatrix:
    """Map a homogeneous quadratic q_A to 4A (the Jordan isomorphism).

    Rejects polynomials with any term of degree other than two; the zero
    polynomial maps to the zero matrix.
    """
    if not q.is_homogeneous(2):
        raise DomainError("input must be homogeneous of degree 2")
    n = q.n
    zero = q.field.zero
    rows = [[zero] * n for _ in range(n)]
    for u, c in q.terms.items():
        support = [i for i, e in enumerate(u) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = 4 * c
        else:
            i, j = support
            rows[i][j] = rows[j][i] = 2 * c
    return SymMatrix(rows, q.field)


def matrix_to_quadratic(m: SymMatrix) -> Polynomial:
    """Inverse of :func:`quadratic_to_matrix`: 4A maps back to X A X^T."""
    quarter = m.field(Fraction(1, 4))
    return quadratic_form(SymMatrix([[v * quarter for v in row] for row in m.entries], m.field))


def matrix_jordan_product(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Half the anticommutator (AB + BA)/2 on symmetric matrices."""
    half = a.field(Fraction(1, 2))
    prod = (a * b + b * a) * half
    return SymMatrix(prod.entries, a.field)


def matrix_correspondence_residual(a: SymMatrix, b: SymMatrix) -> Polynomial:
    """q_A o q_B - 4 q_{A o B}; identically zero, returned as a witness."""
    qa, qb = quadratic_form(a), quadratic_form(b)
    k = _kernel(qa, qb)
    qa, qb, qab = k.pack(qa, qb, quadratic_form(matrix_jordan_product(a, b)))
    return k.unpack(k.comb((1, k.circ(qa, qb)), (-4, qab)))


def jordan_identity_defect(x: Polynomial, y: Polynomial) -> Polynomial:
    """x o (y o x^2) - (x o y) o x^2 with x^2 = x o x.

    Vanishes whenever x and y have degree at most 2; the cubic witness
    x = x1^3, y = x1 shows the full polynomial algebra is not Jordan.
    """
    k = _kernel(y, x)
    x, y = k.pack(x, y)
    sq = k.circ(x, x)
    return k.unpack(k.comb((1, k.circ(x, k.circ(y, sq))), (-1, k.circ(k.circ(x, y), sq))))


def unit(n: int, field: Field = QQ) -> Polynomial:
    """The quadratic unit (x1^2 + ... + xn^2)/4.

    Acts as the identity on every homogeneous quadratic; on degree-k
    polynomials it multiplies by k/2 (half the Euler operator).
    """
    if n < 1:
        raise DomainError("need at least one variable")
    quarter = field(Fraction(1, 4))
    terms = {}
    for i in range(n):
        u = [0] * n
        u[i] = 2
        terms[tuple(u)] = quarter
    return Polynomial(n, terms, field)


def bimodule_defects(x: Polynomial, y: Polynomial,
                     m: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Residuals of the three Jordan-bimodule identities for the action of x, y on m.

    r1 = x o m - m o x
    r2 = x o (x^2 o m) - x^2 o (x o m)
    r3 = (x^2 o y) o m - x^2 o (y o m) - 2 (x o y) o (x o m) + 2 (x o (y o (x o m)))

    All three vanish when x, y are homogeneous quadratics and m has degree
    at most 2.  On (x1^2, x1^2, x1^i) the third residual equals
    16 i (i-1)(i-2) x1^i, nonzero exactly for i >= 3.
    """
    k = _kernel(x, m, y)
    x, y, m = k.pack(x, y, m)
    c = k.circ
    sq = c(x, x)
    xm = c(x, m)
    r1 = k.comb((1, xm), (-1, c(m, x)))
    r2 = k.comb((1, c(x, c(sq, m))), (-1, c(sq, xm)))
    r3 = k.comb((1, c(c(sq, y), m)), (-1, c(sq, c(y, m))),
                (-2, c(c(x, y), xm)), (2, c(x, c(y, xm))))
    return k.unpack(r1), k.unpack(r2), k.unpack(r3)


class GradedPair(_Record):
    """A (quadratic, linear) pair: element of the degree-2 plus degree-1 sum."""

    __slots__ = ("quad", "lin")

    def __init__(self, quad: Polynomial, lin: Polynomial):
        if quad.n != lin.n:
            raise DimensionMismatchError("pair components live over different variable counts")
        if quad.field != lin.field:
            raise FieldMismatchError("pair components live over different fields")
        if not quad.is_homogeneous(2):
            raise DomainError("quadratic part must be homogeneous of degree 2 (or zero)")
        if not lin.is_homogeneous(1):
            raise DomainError("linear part must be homogeneous of degree 1 (or zero)")
        _set_field(self, "quad", quad)
        _set_field(self, "lin", lin)

    @property
    def n(self) -> int:
        return self.quad.n

    @property
    def field(self) -> Field:
        return self.quad.field

    def __add__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.quad + other.quad, self.lin + other.lin)

    def __sub__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.quad - other.quad, self.lin - other.lin)

    @property
    def is_zero(self) -> bool:
        return self.quad.is_zero and self.lin.is_zero


def semidirect_product(p: GradedPair, q: GradedPair) -> GradedPair:
    """(a2, a1) * (b2, b1) = (a2 o b2, a1 o b2 + a2 o b1).

    The product on quadratic/linear pairs induced by working modulo
    constants; the linear-times-linear contribution (a constant) is
    discarded by that quotient.  The result is again a Jordan algebra.
    """
    return GradedPair(
        circ(p.quad, q.quad),
        circ(p.lin, q.quad) + circ(p.quad, q.lin),
    )


def semidirect_jordan_defect(p: GradedPair, q: GradedPair) -> GradedPair:
    """Jordan-identity residual of the semidirect product; always zero."""
    sq = semidirect_product(p, p)
    lhs = semidirect_product(p, semidirect_product(q, sq))
    rhs = semidirect_product(semidirect_product(p, q), sq)
    return lhs - rhs


def radical_nilpotency_check(f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """(f o g) o h for inputs of degree <= 1; contract: always zero.

    f o g is a constant for affine inputs, and constants annihilate, which
    is exactly the cube-nilpotency of the affine radical.
    """
    for name, p in (("f", f), ("g", g), ("h", h)):
        d = p.degree()
        if d is not None and d > 1:
            raise PreconditionError(f"{name} must have degree <= 1, got degree {d}")
    return circ(circ(f, g), h)
