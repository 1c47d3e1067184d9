import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bideriv import (
    QQ,
    PrimeField,
    DimensionMismatchError,
    FieldMismatchError,
    Polynomial,
    PreconditionError,
    VectorField,
    associator,
    bracket_with_square,
    circ,
    gradient,
    induced_map,
    iterated_circ,
    jacobiator,
    lie_bracket,
    monomials_of_degree,
    random_polynomial,
    rational_orthogonal_sample,
)
from bideriv.poly import _kernel
from conftest import (
    F3,
    F5,
    F7,
    KERNEL_FIELDS,
    assert_canonical,
    associator_oracle,
    chain_inputs,
    circ_oracle,
    combine,
    jacobiator_oracle,
    polynomials,
    schoolbook_mul,
    var,
)


# ----------------------------------------------------------------------
# construction and ring operations
# ----------------------------------------------------------------------


def test_zero_coefficients_never_stored():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    assert p == var(2, 1)


def test_add_additive_inverse():
    x1 = var(2, 1)
    assert (x1 + (-x1)).is_zero


def test_mul_difference_of_squares():
    x1 = var(1, 1)
    one = Polynomial.constant(1, 1)
    assert (x1 + one) * (x1 - one) == x1 ** 2 - one


def test_mul_monomials():
    x1, x2 = var(2, 1), var(2, 2)
    assert (2 * x1 * x2) * (3 * x2) == 6 * x1 * x2 ** 2


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        var(2, 1) + var(3, 1)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        var(2, 1) + var(2, 1, F5)


def test_degree_of_zero_is_none():
    assert Polynomial.zero(3).degree() is None
    assert Polynomial.constant(3, 5).degree() == 0


def test_pow_matches_repeated_mul():
    p = var(2, 1) + 2 * var(2, 2)
    assert p ** 3 == p * p * p
    assert p ** 0 == Polynomial.constant(2, 1)


def test_fp_coefficients_canonical():
    p = Polynomial(1, {(1,): -1}, F5)
    assert p.coefficient((1,)) == 4


# ----------------------------------------------------------------------
# the integer coefficient kernel against field-scalar oracles
# ----------------------------------------------------------------------


def bracket_with_square_loop(f):
    """2 sum_{ijk} f_i f_j f_{ijk} d/dx_k, one derivative product at a time."""
    n = f.n
    first = [f.derivative(i) for i in range(1, n + 1)]
    comps = []
    for k in range(1, n + 1):
        acc = Polynomial.zero(n, f.field)
        for i in range(n):
            for j in range(n):
                third = first[i].derivative(j + 1).derivative(k)
                acc = acc + schoolbook_mul(schoolbook_mul(first[i], first[j]), third)
        comps.append(2 * acc)
    return VectorField(comps)


def kernel_inputs(field, seed):
    """Seeded polynomials over `field`: random sparse ones with n = 1..4, the
    zero polynomial, constants, and over QQ mixed denominators and the images of
    products of rational orthogonal samples."""
    rng = random.Random(seed)
    polys = [random_polynomial(rng, rng.randint(1, 4), 4, field, max_terms=6)
             for _ in range(30)]
    for n in (1, 2, 3):
        polys += [Polynomial.zero(n, field), Polynomial.constant(n, 7, field),
                  random_polynomial(rng, n, 3, field)]
    if field == QQ:
        polys.append(Polynomial(2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(-5, 4),
                                    (0, 1): Fraction(7, 6), (0, 0): Fraction(2, 9)}))
        for n in (2, 3):
            m = rational_orthogonal_sample(seed, n) * rational_orthogonal_sample(seed + 1, n)
            h = induced_map(m).images
            polys += [h[0], h[0] * h[1] + h[-1] ** 3]
    return polys


def kernel_pairs(field, seed):
    polys = kernel_inputs(field, seed)
    return [(f, g) for f in polys for g in polys[::5] if f.n == g.n]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_matches_schoolbook_oracle(field):
    for f, g in kernel_pairs(field, 1):
        got = f * g
        assert got == schoolbook_mul(f, g)
        assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_circ_matches_derivative_oracle(field):
    for f, g in kernel_pairs(field, 2):
        got = circ(f, g)
        assert got == circ_oracle(f, g)
        assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_bracket_with_square_matches_loop_oracle(field):
    for f in kernel_inputs(field, 3):
        got = bracket_with_square(f)
        assert got == bracket_with_square_loop(f)
        for c in got.components:
            assert_canonical(c)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_associator_matches_circ_oracle(field):
    for f, g, h in chain_inputs(field, 4):
        got = associator(f, g, h)
        assert got == associator_oracle(f, g, h)
        assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_jacobiator_matches_circ_oracle(field):
    for f, g, h in chain_inputs(field, 5):
        got = jacobiator(f, g, h)
        assert got == jacobiator_oracle(f, g, h)
        assert_canonical(got)


@given(polynomials(n=2), polynomials(n=2), polynomials(n=2))
def test_chains_match_circ_oracles(f, g, h):
    assert associator(f, g, h) == associator_oracle(f, g, h)
    assert jacobiator(f, g, h) == jacobiator_oracle(f, g, h)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_add_and_sub_match_term_map_oracle(field):
    for f, g in kernel_pairs(field, 6):
        for got, sign in ((f + g, 1), (f - g, -1)):
            assert got == combine((1, f), (sign, g))
            assert_canonical(got)
        assert (f - f).is_zero


def apply_oracle(v, g):
    return combine(*((1, schoolbook_mul(a, g.derivative(i)))
                     for i, a in enumerate(v.components, start=1)))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_apply_and_lie_bracket_match_oracles(field):
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(3):
            v, w = (VectorField(random_polynomial(rng, n, 3, field, max_terms=3)
                                for _ in range(n)) for _ in range(2))
            g = random_polynomial(rng, n, 4, field)
            got = v.apply(g)
            assert got == apply_oracle(v, g)
            assert_canonical(got)
            bracket = lie_bracket(v, w)
            assert bracket == VectorField(
                combine((1, apply_oracle(v, wk)), (-1, apply_oracle(w, vk)))
                for vk, wk in zip(v.components, w.components))
            for c in bracket.components:
                assert_canonical(c)
    # d/dx1 of x1^5 is 5 x1^4: the derivation x1^2 d/dx1 kills it over GF(5).
    x = var(1, 1, field)
    assert VectorField([x ** 2]).apply(x ** 5) == apply_oracle(VectorField([x ** 2]), x ** 5)


EXPONENT_BOUND = 2 ** 32


def test_kernel_accepts_exponents_just_below_the_bound():
    top = EXPONENT_BOUND - 1
    for field in KERNEL_FIELDS:
        f = Polynomial(2, {(top, 0): 3, (1, top): 1, (0, 0): 2}, field)
        g = Polynomial(2, {(top, top): 5, (2, 0): 1, (0, 1): 4}, field)
        assert f * g == schoolbook_mul(f, g)
        assert circ(f, g) == circ_oracle(f, g)
        assert (f * g).coefficient((2 * top, top)) == field(15)


def test_kernel_refuses_exponents_at_the_bound():
    x = var(2, 1)
    big = Polynomial(2, {(EXPONENT_BOUND, 0): 1, (0, 1): 1})
    for op in (lambda: big * x, lambda: x * big, lambda: circ(x, big),
               lambda: associator(x, x, big), lambda: bracket_with_square(big),
               lambda: gradient(x).apply(big)):
        with pytest.raises(PreconditionError, match=r"2\*\*32"):
            op()


@st.composite
def kernel_polynomials(draw, n, field):
    """Sparse polynomials with exponents up to 2**32 - 1, large denominators
    and residues up to p - 1."""
    exponent = st.one_of(st.integers(1, 3), st.just(EXPONENT_BOUND - 1),
                         st.integers(1, EXPONENT_BOUND - 1))
    slots = st.dictionaries(st.integers(0, n - 1), exponent, max_size=3)
    if isinstance(field, PrimeField):
        coeff = st.one_of(st.just(field.p - 1), st.integers(1, field.p - 1))
    else:
        coeff = st.fractions(max_denominator=10 ** 12).filter(bool)
    terms = draw(st.lists(st.tuples(slots, coeff), max_size=5))
    return Polynomial(n, [(tuple(u.get(i, 0) for i in range(n)), c) for u, c in terms], field)


@given(st.sampled_from(KERNEL_FIELDS + [F7]), st.sampled_from((1, 2, 7, 1024)), st.data())
def test_kernel_pack_unpack_round_trip(field, n, data):
    f, g = data.draw(kernel_polynomials(n, field)), data.draw(kernel_polynomials(n, field))
    k = _kernel(f)
    assert k.unpack(*k.pack(f)) == f
    assert [k.unpack(v) for v in k.pack(f, g)] == [f, g]  # over one shared scale


def test_kernel_round_trip_at_the_edges():
    top = EXPONENT_BOUND - 1
    u = tuple(top if i in (0, 511, 1023) else i % 3 for i in range(1024))
    for field in KERNEL_FIELDS + [F7]:
        last = field.characteristic - 1 if field.characteristic else Fraction(-7, 10 ** 9)
        f = Polynomial(1024, {u: last, (0,) * 1024: 1, (top,) + (0,) * 1023: 2}, field)
        k = _kernel(f)
        assert k.unpack(*k.pack(f)) == f
        assert_canonical(k.unpack(*k.pack(f)))


def test_kernel_cancels_exactly():
    x1, x2 = var(2, 1), var(2, 2)
    half = Fraction(1, 2)
    assert (x1 - half * x2) * (x1 + half * x2) == x1 ** 2 - Fraction(1, 4) * x2 ** 2
    assert circ(x1 ** 2 - x2 ** 2, x1 * x2).is_zero
    # Over GF(p) the integer sums are multiples of p, not zero.
    y1, y2 = var(2, 1, F5), var(2, 2, F5)
    assert (y1 + y2) * (y1 + 4 * y2) == y1 ** 2 + 4 * y2 ** 2
    assert circ(y1 ** 2 + 4 * y2 ** 2, y1 * y2).is_zero
    assert circ(var(1, 1, F3) ** 3, var(1, 1, F3) ** 2).is_zero
    assert bracket_with_square(var(1, 1, F3) ** 3).is_zero  # 108 x^4, 108 = 36 * 3
    for p in (x1 * x2, circ(x1 ** 2 - x2 ** 2, x1 * x2), (y1 + y2) * (y1 + 4 * y2)):
        assert_canonical(p)


# ----------------------------------------------------------------------
# derivatives and gradients
# ----------------------------------------------------------------------


def test_power_rule():
    x1 = var(1, 1)
    assert (x1 ** 3).derivative(1) == 3 * x1 ** 2


def test_absent_variable_derivative():
    assert (var(2, 1) ** 2).derivative(2).is_zero


def test_derivative_linearity():
    x1, x2 = var(2, 1), var(2, 2)
    f = x1 ** 2 * x2 + 5 * x1
    assert f.derivative(1) == 2 * x1 * x2 + Polynomial.constant(2, 5)


def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        var(2, 1).derivative(3)


def test_derivative_drops_in_characteristic_p():
    # d/dx of x^5 is 5x^4 = 0 over GF(5)
    x = var(1, 1, F5)
    assert (x ** 5).derivative(1).is_zero


def test_gradient_components():
    x1, x2 = var(2, 1), var(2, 2)
    assert gradient(x1 ** 2 + x2 ** 2) == VectorField([2 * x1, 2 * x2])
    assert gradient(Polynomial.constant(2, 7)).is_zero
    assert gradient(x1 * x2) == VectorField([x2, x1])


def test_apply_field():
    x1, x2 = var(2, 1), var(2, 2)
    assert gradient(x1).apply(x1 ** 2) == 2 * x1
    # (x2, x1) acting on x1*x2 gives x2^2 + x1^2
    assert VectorField([x2, x1]).apply(x1 * x2) == x2 ** 2 + x1 ** 2
    assert VectorField([x2, x1]).apply(Polynomial.constant(2, 3)).is_zero


# ----------------------------------------------------------------------
# the gradient product
# ----------------------------------------------------------------------


def test_circ_of_variable_with_itself_is_one():
    x1 = var(2, 1)
    assert circ(x1, x1) == Polynomial.constant(2, 1)


def test_one_annihilates():
    one = Polynomial.constant(2, 1)
    f = var(2, 1) ** 3 + var(2, 2)
    assert circ(one, f).is_zero


def test_circ_square_against_monomial():
    # x1^2 o X^u = 2 u_1 X^u
    x1, x2 = var(2, 1), var(2, 2)
    u = x1 ** 3 * x2
    assert circ(x1 ** 2, u) == 6 * u


def test_circ_derived_example():
    x1, x2 = var(2, 1), var(2, 2)
    assert circ(x1 ** 2 + x2 ** 2, x1 * x2) == 4 * x1 * x2


def _circ_monomial_oracle(f, g):
    """Independent route: X^u o X^v = sum_i u_i v_i X^{u+v-2e_i}, bilinearly."""
    acc = Polynomial.zero(f.n, f.field)
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            for i in range(f.n):
                if u[i] == 0 or v[i] == 0:
                    continue
                w = list(x + y for x, y in zip(u, v))
                w[i] -= 2
                acc = acc + Polynomial.monomial(f.n, w, a * b * u[i] * v[i], f.field)
    return acc


@given(polynomials(n=2), polynomials(n=2))
def test_circ_matches_exponent_oracle(f, g):
    assert circ(f, g) == _circ_monomial_oracle(f, g)


@given(polynomials(n=3, max_exp=2), polynomials(n=3, max_exp=2))
def test_circ_symmetric(f, g):
    assert circ(f, g) == circ(g, f)


@given(polynomials(n=2), polynomials(n=2), polynomials(n=2))
def test_circ_is_a_biderivation(f, g, h):
    assert circ(f * g, h) == f * circ(g, h) + g * circ(f, h)


@given(polynomials(n=2, field=F5), polynomials(n=2, field=F5), polynomials(n=2, field=F5))
def test_circ_is_a_biderivation_mod_5(f, g, h):
    assert circ(f * g, h) == f * circ(g, h) + g * circ(f, h)


@given(polynomials(n=3, max_exp=2), polynomials(n=3, max_exp=2))
def test_gradient_identity(f, g):
    assert circ(f, g) == gradient(f).apply(g)
    assert circ(f, g) == gradient(g).apply(f)


def test_monomials_of_degree_grlex_descending():
    assert monomials_of_degree(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert monomials_of_degree(1, 4) == [(4,)]
    assert monomials_of_degree(4, 0) == [(0, 0, 0, 0)]


def test_monomials_of_degree_wider_than_the_recursion_limit():
    wide = monomials_of_degree(1500, 1)
    assert len(wide) == 1500
    assert wide[0] == (1,) + (0,) * 1499 and wide[-1] == (0,) * 1499 + (1,)


def test_degree_law_on_monomials():
    for n in (1, 2, 3):
        mons = [u for k in range(5) for u in monomials_of_degree(n, k)]
        for u in mons:
            for v in mons:
                p = circ(Polynomial.monomial(n, u), Polynomial.monomial(n, v))
                if p.is_zero:
                    continue
                assert p.is_homogeneous(sum(u) + sum(v) - 2)


# ----------------------------------------------------------------------
# iterated application
# ----------------------------------------------------------------------


def test_iterated_circ_extracts_factorial():
    x1 = var(1, 1)
    assert iterated_circ(1, 3, x1 ** 3) == Polynomial.constant(1, 6)


def test_iterated_circ_empty_iteration():
    f = var(2, 1) ** 2 + var(2, 2)
    assert iterated_circ(1, 0, f) == f


def test_iterated_circ_absent_variable():
    assert iterated_circ(2, 2, var(2, 1) ** 2).is_zero


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_iterated_circ_matches_products_with_the_variable(field):
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, 5, field)
        k = rng.randint(1, n)
        expected = f
        for m in range(4):
            assert iterated_circ(k, m, f) == expected
            expected = circ(var(n, k, field), expected)


def test_iterated_circ_refuses_bad_index_and_multiplicity():
    f = var(2, 1) ** 2
    with pytest.raises(IndexError, match=r"^variable index 3 out of range 1\.\.2$"):
        iterated_circ(3, 1, f)
    with pytest.raises(PreconditionError,
                       match=r"^multiplicity must be a nonnegative integer, got -1$"):
        iterated_circ(1, -1, f)


def test_iterated_circ_is_repeated_derivative(rng):
    for _ in range(25):
        f = random_polynomial(rng, 2, 4)
        k = rng.randint(1, 2)
        m = rng.randint(0, 4)
        expected = f
        for _ in range(m):
            expected = expected.derivative(k)
        assert iterated_circ(k, m, f) == expected


# ----------------------------------------------------------------------
# brackets
# ----------------------------------------------------------------------


def test_constant_fields_commute():
    assert lie_bracket(gradient(var(2, 1)), gradient(var(2, 2))).is_zero


def test_lie_bracket_derived_example():
    x1, x2 = var(2, 1), var(2, 2)
    got = lie_bracket(gradient(x1 ** 2), gradient(x1 * x2))
    assert got == VectorField([-2 * x2, 2 * x1])


def test_lie_bracket_antisymmetry(rng):
    for _ in range(10):
        v = gradient(random_polynomial(rng, 2, 3))
        assert lie_bracket(v, v).is_zero


def test_bracket_with_square_quadratic_vanishes():
    x1, x2 = var(2, 1), var(2, 2)
    assert bracket_with_square(x1 ** 2 + 3 * x1 * x2).is_zero
    assert bracket_with_square(Polynomial.constant(2, 9)).is_zero


def test_bracket_with_square_cubic_witness():
    # closed form: 2 * (3x^2)(3x^2) * 6 = 108 x^4
    x = var(1, 1)
    assert bracket_with_square(x ** 3) == VectorField([108 * x ** 4])


def test_bracket_with_square_matches_commutator(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, 4)
        assert bracket_with_square(f) == lie_bracket(gradient(f), gradient(circ(f, f)))


# ----------------------------------------------------------------------
# homogeneous components, associator, Jacobi sum
# ----------------------------------------------------------------------


def test_homogeneous_components_spec_example():
    x1 = var(1, 1)
    f = x1 ** 2 + x1 + Polynomial.constant(1, 3)
    comps = f.homogeneous_components()
    assert set(comps) == {0, 1, 2}
    assert comps[2] == x1 ** 2 and comps[1] == x1


def test_homogeneous_components_of_homogeneous_and_zero():
    p = var(2, 1) * var(2, 2)
    assert list(p.homogeneous_components()) == [2]
    assert Polynomial.zero(2).homogeneous_components() == {}


@given(polynomials(n=2))
def test_homogeneous_components_round_trip(f):
    comps = f.homogeneous_components()
    total = Polynomial.zero(2)
    for d, part in comps.items():
        assert part.is_homogeneous(d) and not part.is_zero
        total = total + part
    assert total == f


def test_associator_closed_form_samples():
    x = var(1, 1)
    assert associator(x ** 3, x ** 2, x) == 12 * x ** 2
    assert associator(x ** 2, x ** 2, x ** 2).is_zero
    one = Polynomial.constant(1, 1)
    f, g = x ** 4, x ** 2 + x
    assert associator(one, f, g).is_zero


def test_jacobiator_closed_form_samples():
    x = var(1, 1)
    assert jacobiator(x, x, x).is_zero
    assert jacobiator(x ** 2, x ** 2, x ** 2) == 48 * x ** 2
    one = Polynomial.constant(1, 1)
    assert jacobiator(one, one, var(1, 1) ** 3).is_zero


def test_closed_form_tables_up_to_five():
    x = var(1, 1)
    powers = {e: x ** e for e in range(1, 6)}
    for i in range(1, 6):
        for j in range(1, 6):
            for k in range(1, 6):
                c_assoc = i * j * k * (i - k)
                c_jac = 2 * i * j * k * (i + j + k - 3)
                expected_assoc = (
                    Polynomial.zero(1) if c_assoc == 0
                    else Polynomial.monomial(1, (i + j + k - 4,), c_assoc)
                )
                expected_jac = (
                    Polynomial.zero(1) if c_jac == 0
                    else Polynomial.monomial(1, (i + j + k - 4,), c_jac)
                )
                assert associator(powers[i], powers[j], powers[k]) == expected_assoc
                assert jacobiator(powers[i], powers[j], powers[k]) == expected_jac
