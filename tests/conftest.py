import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from bideriv import QQ, FpElement, Polynomial, PrimeField, SquareMatrix, SymMatrix

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
