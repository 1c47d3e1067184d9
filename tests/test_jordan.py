import random
from fractions import Fraction

import pytest

from bideriv import (
    QQ,
    DomainError,
    SquareMatrix,
    GradedPair,
    Polynomial,
    PreconditionError,
    SymMatrix,
    bimodule_defects,
    circ,
    jordan_identity_defect,
    matrix_correspondence_residual,
    matrix_jordan_product,
    matrix_to_quadratic,
    quadratic_form,
    quadratic_to_matrix,
    radical_nilpotency_check,
    random_homogeneous_polynomial,
    random_polynomial,
    semidirect_jordan_defect,
    semidirect_product,
    unit,
)
from conftest import (
    F5,
    F7,
    KERNEL_FIELDS,
    assert_canonical,
    bimodule_defects_oracle,
    chain_inputs,
    circ_oracle,
    combine,
    jordan_defect_oracle,
    matmul_oracle,
    rand_sym_matrix,
    var,
)


def e_matrix(n, pairs, field=QQ):
    rows = [[field.zero] * n for _ in range(n)]
    for i, j, v in pairs:
        rows[i][j] = field(v)
    return SymMatrix(rows, field)


# ----------------------------------------------------------------------
# quadratic forms and the matrix correspondence
# ----------------------------------------------------------------------


def test_quadratic_form_of_identity():
    q = quadratic_form(SymMatrix([[1, 0], [0, 1]]))
    assert q == var(2, 1) ** 2 + var(2, 2) ** 2


def test_quadratic_form_off_diagonal_doubles():
    a = e_matrix(2, [(0, 1, 1), (1, 0, 1)])
    assert quadratic_form(a) == 2 * var(2, 1) * var(2, 2)


def test_quadratic_form_of_zero():
    assert quadratic_form(e_matrix(2, [])).is_zero


def test_matrix_of_unit_quadratic_is_identity():
    assert quadratic_to_matrix(unit(3)) == SymMatrix.identity(3)


def test_matrix_of_x1_squared():
    assert quadratic_to_matrix(var(2, 1) ** 2) == e_matrix(2, [(0, 0, 4)])


def test_correspondence_round_trips(rng):
    for n in (1, 2, 3, 4):
        for _ in range(5):
            a = rand_sym_matrix(rng, n)
            assert quadratic_to_matrix(quadratic_form(a)) == 4 * a
            m = rand_sym_matrix(rng, n)
            assert quadratic_to_matrix(matrix_to_quadratic(m)) == m
    q = var(2, 1) * var(2, 2)
    assert matrix_to_quadratic(quadratic_to_matrix(q)) == q


def test_quadratic_form_is_linear(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = rand_sym_matrix(rng, n)
        b = rand_sym_matrix(rng, n)
        assert quadratic_form(a + b) == quadratic_form(a) + quadratic_form(b)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        scaled = quadratic_form(c * a)
        assert scaled == c * quadratic_form(a)


def test_matrix_of_non_quadratic_rejected():
    with pytest.raises(DomainError):
        quadratic_to_matrix(var(2, 1))
    with pytest.raises(DomainError):
        quadratic_to_matrix(var(2, 1) ** 2 + var(2, 1))


def test_matrix_jordan_product_examples():
    e11 = e_matrix(2, [(0, 0, 1)])
    e22 = e_matrix(2, [(1, 1, 1)])
    sym12 = e_matrix(2, [(0, 1, 1), (1, 0, 1)])
    identity = SymMatrix.identity(2)
    assert matrix_jordan_product(e11, e22) == e_matrix(2, [])
    assert matrix_jordan_product(sym12, identity) == sym12
    half = Fraction(1, 2)
    assert matrix_jordan_product(e11, sym12) == e_matrix(2, [(0, 1, half), (1, 0, half)])


def test_correspondence_residual_hand_example():
    e11 = e_matrix(2, [(0, 0, 1)])
    sym12 = e_matrix(2, [(0, 1, 1), (1, 0, 1)])
    assert circ(quadratic_form(e11), quadratic_form(sym12)) == 4 * var(2, 1) * var(2, 2)
    assert matrix_correspondence_residual(e11, sym12).is_zero


def test_correspondence_residual_vanishes_randomly(rng):
    for field in (QQ, F7):
        for _ in range(30):
            n = rng.randint(1, 5)
            a = rand_sym_matrix(rng, n, field)
            b = rand_sym_matrix(rng, n, field)
            assert matrix_correspondence_residual(a, b).is_zero


def kernel_matrices(field, seed):
    """Seeded matrix pairs over `field`, n = 1..6: integer and mixed-denominator
    entries, a zero matrix, and over GF(p) rows whose products are multiples of p."""
    rng = random.Random(seed)

    def entry():
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 4, 7)))
        return c if field == QQ else field(c.numerator) / field(c.denominator)

    pairs = []
    for n in range(1, 7):
        for _ in range(3):
            a, b = (SquareMatrix([[entry() for _ in range(n)] for _ in range(n)], field)
                    for _ in range(2))
            pairs += [(a, b), (a, SquareMatrix.identity(n, field) * 0)]
    if field != QQ:
        p = field.p
        ones = SquareMatrix([[1] * 2] * 2, field)
        pairs.append((ones, SquareMatrix([[1, p - 1], [p - 1, 1]], field)))
    return pairs


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_matrix_product_matches_fraction_oracle(field):
    for a, b in kernel_matrices(field, 8):
        got = a * b
        assert got == matmul_oracle(a, b)
        assert all(type(c) is type(field.one) for row in got.entries for c in row)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_correspondence_residual_matches_circ_oracle(field):
    rng = random.Random(9)
    for n in range(1, 7):
        for _ in range(3):
            a, b = rand_sym_matrix(rng, n, field), rand_sym_matrix(rng, n, field)
            half = field(Fraction(1, 2))
            jordan = SymMatrix(((matmul_oracle(a, b) + matmul_oracle(b, a)) * half).entries, field)
            want = combine((1, circ_oracle(quadratic_form(a), quadratic_form(b))),
                           (-4, quadratic_form(jordan)))
            assert want.is_zero
            assert matrix_correspondence_residual(a, b) == want


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_jordan_identity_defect_matches_circ_oracle(field):
    for x, y, _ in chain_inputs(field, 10):
        got = jordan_identity_defect(x, y)
        assert got == jordan_defect_oracle(x, y)
        assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_bimodule_defects_match_circ_oracle(field):
    for x, y, m in chain_inputs(field, 11):
        got = bimodule_defects(x, y, m)
        assert got == bimodule_defects_oracle(x, y, m)
        for r in got:
            assert_canonical(r)


# ----------------------------------------------------------------------
# Jordan identity
# ----------------------------------------------------------------------


def test_jordan_identity_holds_in_low_degree():
    x = var(2, 1) ** 2 + var(2, 1)
    y = var(2, 1) * var(2, 2)
    assert jordan_identity_defect(x, y).is_zero


def test_jordan_identity_cubic_witness():
    x = var(1, 1)
    assert jordan_identity_defect(x ** 3, x) == 108 * x ** 4


def test_one_annihilates_jordan_defect(rng):
    one = Polynomial.constant(2, 1)
    for _ in range(5):
        x = random_polynomial(rng, 2, 4)
        assert jordan_identity_defect(x, one).is_zero


def _random_low_degree(rng, n, field=QQ):
    """Random polynomial of degree <= 2 (a general low-degree element)."""
    p = random_polynomial(rng, n, 2, field)
    return p


def test_jordan_identity_on_low_degree_samples(rng):
    for field in (QQ, F5):
        for _ in range(40):
            n = rng.randint(1, 4)
            x = _random_low_degree(rng, n, field)
            y = _random_low_degree(rng, n, field)
            assert jordan_identity_defect(x, y).is_zero


# ----------------------------------------------------------------------
# unit
# ----------------------------------------------------------------------


def test_unit_acts_as_identity_on_quadratics():
    e = unit(2)
    assert circ(e, var(2, 1) * var(2, 2)) == var(2, 1) * var(2, 2)
    for n in (1, 2, 3):
        e = unit(n)
        for i in range(1, n + 1):
            q = var(n, i) ** 2
            assert circ(e, q) == q


def test_unit_halves_linear_terms():
    assert circ(unit(2), var(2, 1)) == Fraction(1, 2) * var(2, 1)


# ----------------------------------------------------------------------
# bimodule identities
# ----------------------------------------------------------------------


def test_bimodule_defect_table():
    x = var(1, 1)
    sq = x ** 2
    for i in range(0, 9):
        m = x ** i if i else Polynomial.constant(1, 1)
        r1, r2, r3 = bimodule_defects(sq, sq, m)
        assert r1.is_zero and r2.is_zero
        expected = 16 * i * (i - 1) * (i - 2)
        if expected == 0:
            assert r3.is_zero, f"i={i}"
        else:
            assert r3 == expected * m, f"i={i}"
    # spot values called out explicitly
    assert bimodule_defects(sq, sq, x ** 2)[2].is_zero
    assert bimodule_defects(sq, sq, x ** 3)[2] == 96 * x ** 3


def test_bimodule_defects_vanish_on_linear_module(rng):
    for _ in range(40):
        x = random_homogeneous_polynomial(rng, 2, 2)
        y = random_homogeneous_polynomial(rng, 2, 2)
        m = random_homogeneous_polynomial(rng, 2, 1)
        r1, r2, r3 = bimodule_defects(x, y, m)
        assert r1.is_zero and r2.is_zero and r3.is_zero


# ----------------------------------------------------------------------
# semidirect product on (quadratic, linear) pairs
# ----------------------------------------------------------------------


def test_graded_pair_validation():
    with pytest.raises(DomainError):
        GradedPair(var(2, 1), var(2, 2))  # quad part has degree 1
    with pytest.raises(DomainError):
        GradedPair(var(2, 1) ** 2, var(2, 2) ** 2)  # lin part has degree 2


def test_semidirect_product_example():
    x = var(1, 1)
    p = GradedPair(x ** 2, x)
    q = GradedPair(x ** 2, Polynomial.zero(1))
    got = semidirect_product(p, q)
    assert got.quad == 4 * x ** 2 and got.lin == 2 * x


def test_semidirect_product_symmetric(rng):
    for _ in range(10):
        p = _rand_pair(rng, 2)
        q = _rand_pair(rng, 2)
        assert semidirect_product(p, q) == semidirect_product(q, p)


def test_linear_times_linear_is_discarded():
    a = GradedPair(Polynomial.zero(2), var(2, 1))
    b = GradedPair(Polynomial.zero(2), var(2, 2))
    assert semidirect_product(a, b).is_zero


def _rand_pair(rng, n, field=QQ):
    quad = random_homogeneous_polynomial(rng, n, 2, field, nonzero=False)
    lin = random_homogeneous_polynomial(rng, n, 1, field, nonzero=False)
    return GradedPair(quad, lin)


def test_semidirect_jordan_identity(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        p = _rand_pair(rng, n)
        q = _rand_pair(rng, n)
        assert semidirect_jordan_defect(p, q).is_zero


# ----------------------------------------------------------------------
# radical nilpotency
# ----------------------------------------------------------------------


def test_radical_cube_vanishes_examples():
    x1, x2 = var(2, 1), var(2, 2)
    assert radical_nilpotency_check(x1, x1, x2).is_zero
    f = 3 * x1 + x2
    assert radical_nilpotency_check(f, x2, x1 + 2 * x2).is_zero
    c = Polynomial.constant(2, 5)
    assert radical_nilpotency_check(c, x1, x2).is_zero


def test_radical_cube_vanishes_randomly(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        polys = [random_polynomial(rng, n, 1) for _ in range(3)]
        assert radical_nilpotency_check(*polys).is_zero


def test_radical_check_rejects_high_degree():
    with pytest.raises(PreconditionError):
        radical_nilpotency_check(var(1, 1) ** 2, var(1, 1), var(1, 1))
