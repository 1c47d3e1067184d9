import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given

from bideriv import (
    CartanElement,
    DimensionMismatchError,
    Polynomial,
    Weight,
    basis_weight,
    cartan_action,
    circ,
    decompose,
    idempotents,
    peirce_decomposition,
    random_polynomial,
    product_rule_check,
    random_homogeneous_polynomial,
    unit,
    weight_of_monomial,
    weights_of_degree,
)
from conftest import F5, KERNEL_FIELDS, assert_canonical, polynomials, var


# ----------------------------------------------------------------------
# idempotents
# ----------------------------------------------------------------------


def test_idempotent_system():
    for n in range(1, 7):
        es = idempotents(n)
        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                prod = circ(ei, ej)
                assert prod == (ei if i == j else Polynomial.zero(n))
        total = Polynomial.zero(n)
        for ei in es:
            total = total + ei
        assert total == unit(n)


def test_first_idempotent_value():
    (e1,) = idempotents(1)
    assert e1 == Fraction(1, 4) * var(1, 1) ** 2


# ----------------------------------------------------------------------
# Cartan action
# ----------------------------------------------------------------------


def test_basis_action_halves_exponent():
    # (x_i^2 / 4) o X^u = (u_i / 2) X^u
    h = CartanElement.basis(2, 1)
    m = var(2, 1) ** 3 * var(2, 2)
    assert cartan_action(h, m) == Fraction(3, 2) * m


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_cartan_action_matches_weight_formula(field):
    # X^u scales by its weight sum_i a_i u_i / 2; over GF(p) the weight of
    # x_i^p vanishes, so terms drop out of the gradient product.
    rng = random.Random(12)
    for n in range(1, 7):
        for _ in range(4):
            h = CartanElement([rng.choice((0, 1, -2, 3, 5, Fraction(1, 2))) for _ in range(n)],
                              field)
            f = random_polynomial(rng, n, 6, field, max_terms=5)
            got = cartan_action(h, f)
            assert got == Polynomial(n, [(u, Weight(u).evaluate(h) * c)
                                         for u, c in f.terms.items()], field)
            assert_canonical(got)


def test_unit_action_is_half_euler():
    h = CartanElement.unit(3)
    for k in range(0, 5):
        rngl = random.Random(k)
        f = random_homogeneous_polynomial(rngl, 3, k)
        assert cartan_action(h, f) == Fraction(k, 2) * f


def test_action_kills_constants():
    h = CartanElement((2, -3, 5))
    assert cartan_action(h, Polynomial.constant(3, 9)).is_zero


def test_action_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cartan_action(CartanElement.basis(2, 1), var(3, 1))


def test_action_in_characteristic_p():
    h = CartanElement.basis(2, 1, F5)
    m = var(2, 1, F5) ** 3
    # 3/2 = 3 * inverse(2) = 3*3 = 9 = 4 mod 5
    assert cartan_action(h, m) == 4 * m


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------


def test_weight_of_monomial():
    w = weight_of_monomial((2, 1))
    assert w == Weight((2, 1)) and w.degree == 3
    assert weight_of_monomial((0, 0)).degree == 0
    assert weight_of_monomial((1,)) == Weight((1,))


def test_weight_evaluation():
    w = Weight((2, 1))
    assert w.evaluate(CartanElement.basis(2, 1)) == 1
    assert w.evaluate(CartanElement.basis(2, 2)) == Fraction(1, 2)
    assert w.evaluate(CartanElement((2, 6))) == 5


def test_basis_weight_is_dual():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            b = basis_weight(n, i)
            for j in range(1, n + 1):
                assert b.evaluate(CartanElement.basis(n, j)) == (1 if i == j else 0)


def test_weight_addition_and_subtraction():
    a, b = Weight((2, 0)), Weight((1, 1))
    assert a + b == Weight((3, 1))
    assert (a + b).subtract(basis_weight(2, 1)) == Weight((1, 1))
    assert a.subtract(Weight((0, 1))) is None


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------


def test_decompose_partitions_terms():
    f = var(2, 1) ** 2 + var(2, 1) * var(2, 2)
    d = decompose(f)
    assert d.weights() == [Weight((2, 0)), Weight((1, 1))]
    assert d[Weight((2, 0))] == var(2, 1) ** 2


def test_decompose_monomial_and_zero():
    assert len(decompose(3 * var(2, 1))) == 1
    assert len(decompose(Polynomial.zero(2))) == 0
    assert decompose(Polynomial.zero(2)).total().is_zero


@given(polynomials(n=3, max_exp=3))
def test_decompose_soundness_and_completeness(f):
    d = decompose(f)
    assert d.total() == f
    for w, part in d:
        assert len(part.terms) == 1  # weight spaces are one-dimensional
        for i in range(1, 4):
            h = CartanElement.basis(3, i)
            assert cartan_action(h, part) == w.evaluate(h) * part


def test_dimension_law():
    for n in range(1, 5):
        for k in range(0, 7):
            ws = weights_of_degree(n, k)
            assert len(ws) == comb(n + k - 1, n - 1)
            assert len(set(ws)) == len(ws)
            assert all(w.degree == k for w in ws)


def test_weights_of_degree_examples_and_order():
    assert [w.exponents for w in weights_of_degree(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert len(weights_of_degree(3, 2)) == 6
    assert weights_of_degree(5, 0) == [Weight((0,) * 5)]


# ----------------------------------------------------------------------
# Peirce decomposition
# ----------------------------------------------------------------------


def test_peirce_matches_degree_two_weights():
    for n in (1, 2, 3, 4):
        d = peirce_decomposition(n)
        assert len(d) == n * (n + 1) // 2
        assert d.weights() == weights_of_degree(n, 2)
        for w, p in d:
            assert p == Polynomial.monomial(n, w.exponents, 1)


def test_peirce_two_variables():
    d = peirce_decomposition(2)
    assert d[Weight((2, 0))] == var(2, 1) ** 2
    assert d[Weight((1, 1))] == var(2, 1) * var(2, 2)
    assert d[Weight((0, 2))] == var(2, 2) ** 2


# ----------------------------------------------------------------------
# product rules
# ----------------------------------------------------------------------


def test_product_rule_examples():
    assert product_rule_check(Weight((1, 0)), Weight((0, 1))).ok
    assert product_rule_check(Weight((2, 0)), Weight((1, 1))).ok
    assert product_rule_check(Weight((1, 0)), Weight((1, 0))).ok


def test_product_rule_exhaustive_small():
    for n in (1, 2, 3):
        mons = [w for k in range(4) for w in weights_of_degree(n, k)]
        for a in mons:
            for b in mons:
                assert product_rule_check(a, b).ok


def test_multiplicative_weight_law(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        u = tuple(rng.randint(0, 3) for _ in range(n))
        v = tuple(rng.randint(0, 3) for _ in range(n))
        prod = Polynomial.monomial(n, u) * Polynomial.monomial(n, v)
        (w,) = prod.terms
        assert weight_of_monomial(w) == Weight(u) + Weight(v)
