import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from bideriv import (
    QQ,
    FpElement,
    Polynomial,
    PrimeField,
    SquareMatrix,
    SymMatrix,
    random_polynomial,
)

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F10007 = PrimeField(10007)
KERNEL_FIELDS = [QQ, F3, F5, F10007]


def var(n, i, field=QQ):
    return Polynomial.variable(n, i, field)


@st.composite
def polynomials(draw, n=2, max_exp=3, max_terms=4, field=QQ):
    """Sparse polynomial strategy with small exact coefficients."""
    exps = st.tuples(*[st.integers(0, max_exp) for _ in range(n)])
    if isinstance(field, PrimeField):
        coeffs = st.integers(1, field.p - 1)
    else:
        coeffs = st.fractions(
            min_value=-6, max_value=6, max_denominator=4
        ).filter(lambda c: c != 0)
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return Polynomial(n, terms, field)


def rand_sym_matrix(rng: random.Random, n, field=QQ) -> SymMatrix:
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = field(rng.randint(-9, 9))
            rows[i][j] = rows[j][i] = c
    return SymMatrix(rows, field)


def rand_matrix(rng: random.Random, n, field=QQ) -> SquareMatrix:
    return SquareMatrix(
        [[field(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)], field
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


# ----------------------------------------------------------------------
# Fraction/FpElement-level oracles for the integer coefficient kernel
# ----------------------------------------------------------------------


def schoolbook_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Term-pair product with field-scalar arithmetic throughout."""
    out = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            w = tuple(x + y for x, y in zip(u, v))
            out[w] = out[w] + a * b if w in out else a * b
    return Polynomial(f.n, {u: c for u, c in out.items() if c}, f.field)


def assert_canonical(p: Polynomial):
    """No stored zero, and every coefficient is a scalar of p's field."""
    for c in p.terms.values():
        assert c
        if isinstance(p.field, PrimeField):
            assert type(c) is FpElement and c.p == p.field.p
        else:
            assert type(c) is Fraction


def combine(*terms):
    """sum a*p over the (a, p) terms, added up by the Polynomial constructor."""
    p = terms[0][1]
    return Polynomial(p.n, [(u, a * c) for a, q in terms for u, c in q.terms.items()], p.field)


def circ_oracle(f, g):
    """f o g as the sum of the schoolbook products of partial derivatives."""
    return combine(*((1, schoolbook_mul(f.derivative(i), g.derivative(i)))
                     for i in range(1, f.n + 1)))


def associator_oracle(f, g, h):
    c = circ_oracle
    return combine((1, c(c(f, g), h)), (-1, c(f, c(g, h))))


def jacobiator_oracle(f, g, h):
    c = circ_oracle
    return combine((1, c(c(f, g), h)), (1, c(c(g, h), f)), (1, c(c(h, f), g)))


def jordan_defect_oracle(x, y):
    c = circ_oracle
    sq = c(x, x)
    return combine((1, c(x, c(y, sq))), (-1, c(c(x, y), sq)))


def bimodule_defects_oracle(x, y, m):
    c = circ_oracle
    sq, xm = c(x, x), c(x, m)
    return (combine((1, c(x, m)), (-1, c(m, x))),
            combine((1, c(x, c(sq, m))), (-1, c(sq, xm))),
            combine((1, c(c(sq, y), m)), (-1, c(sq, c(y, m))),
                    (-2, c(c(x, y), xm)), (2, c(x, c(y, xm)))))


def matmul_oracle(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Row-times-column product with field-scalar sums."""
    cols = list(zip(*b.entries))
    return SquareMatrix([[sum((x * y for x, y in zip(row, col)), a.field.zero) for col in cols]
                         for row in a.entries], a.field)


def chain_inputs(field, seed):
    """Seeded triples over `field` for chains of products: random sparse ones
    with n = 1..6, zero and constant slots, factors whose intermediate products
    vanish mod 3 or mod 5 (x^3 o x^2 = 6 x^3; x^5 has derivative 5 x^4), and
    over QQ mixed denominators."""
    rng = random.Random(seed)
    triples = []
    for n in range(1, 7):
        deg = 4 if n <= 3 else 3
        for _ in range(3):
            triples.append(tuple(random_polynomial(rng, n, deg, field, max_terms=4)
                                 for _ in range(3)))
        f = random_polynomial(rng, n, deg, field)
        zero, seven = Polynomial.zero(n, field), Polynomial.constant(n, 7, field)
        triples += [(zero, f, f), (f, seven, f), (f, f, zero)]
    x, y = var(2, 1, field), var(2, 2, field)
    triples += [(x ** 3, x ** 2, x * y + y ** 3), (x ** 5 + y, x ** 3, y ** 2),
                (x ** 3 + y ** 3, x ** 3 - y ** 3, x * y), (x ** 2 - y ** 2, x * y, x ** 3)]
    if field == QQ:
        mixed = Polynomial(2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(-5, 4),
                               (0, 1): Fraction(7, 6), (0, 0): Fraction(2, 9)})
        triples += [(mixed, x * Fraction(1, 10) + y ** 2, mixed * mixed),
                    (y * Fraction(3, 7), mixed, x ** 2 * Fraction(-1, 6))]
    return triples
