import random
from fractions import Fraction

import pytest

from bideriv import (
    QQ,
    CoercionError,
    DimensionMismatchError,
    DomainError,
    Polynomial,
    PreconditionError,
    SquareMatrix,
    Substitution,
    aut_dim1,
    check_automorphism,
    circ,
    compose_check,
    dim1_compose_check,
    induced_map,
    is_orthogonal,
    random_polynomial,
    rational_cosine_sine,
    rational_orthogonal_sample,
    substitute,
)
from conftest import F3, F7, F10007, KERNEL_FIELDS, assert_canonical, schoolbook_mul, var

ROTATION = SquareMatrix([["3/5", "-4/5"], ["4/5", "3/5"]])


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------


def test_substitute_binomial():
    s = Substitution((var(2, 1) + var(2, 2), var(2, 2)))
    got = substitute(var(2, 1) ** 2, s)
    assert got == var(2, 1) ** 2 + 2 * var(2, 1) * var(2, 2) + var(2, 2) ** 2


def test_identity_substitution(rng):
    s = Substitution.identity(3)
    for _ in range(5):
        f = random_polynomial(rng, 3, 4)
        assert substitute(f, s) == f


def test_swap_substitution():
    s = Substitution((var(2, 2), var(2, 1)))
    assert substitute(var(2, 1) * var(2, 2), s) == var(2, 1) * var(2, 2)


def test_substitution_is_multiplicative(rng):
    s = Substitution((var(2, 1) + var(2, 2), var(2, 1) - var(2, 2)))
    for _ in range(10):
        f = random_polynomial(rng, 2, 3)
        g = random_polynomial(rng, 2, 3)
        assert substitute(f * g, s) == substitute(f, s) * substitute(g, s)


def apply_by_products(s, f):
    """f(h1, ..., hn) with field-scalar products of the images."""
    one = Polynomial.constant(s.n, 1, s.field)
    acc = Polynomial.zero(s.n, s.field)
    for u, c in f.terms.items():
        term = one
        for h, e in zip(s.images, u):
            for _ in range(e):
                term = schoolbook_mul(term, h)
        acc = acc + c * term
    return acc


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_substitution_matches_product_oracle(field):
    rng = random.Random(5)
    cases = []
    for _ in range(25):
        n = rng.randint(1, 3)
        images = [random_polynomial(rng, n, 2, field, max_terms=3) for _ in range(n)]
        cases.append((Substitution(images), random_polynomial(rng, n, 4, field)))
    for n in (1, 3):
        s = Substitution.identity(n, field)
        cases += [(s, Polynomial.zero(n, field)), (s, Polynomial.constant(n, 7, field)),
                  (Substitution([Polynomial.zero(n, field)] * n), var(n, 1, field) ** 2)]
    if field == QQ:
        for seed in range(6):
            n = 2 + seed % 3
            m = rational_orthogonal_sample(seed, n) * rational_orthogonal_sample(seed + 9, n)
            cases.append((induced_map(m), random_polynomial(rng, n, 4, field, max_terms=6)))
        mixed = Polynomial(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-5, 4),
                               (0, 0): Fraction(7, 6)})
        cases.append((Substitution((mixed, var(2, 1) * Fraction(2, 9))),
                      Polynomial(2, {(2, 1): Fraction(3, 8), (0, 2): Fraction(-1, 6),
                                     (1, 0): 5})))
    for s, f in cases:
        got = s.apply(f)
        assert got == apply_by_products(s, f)
        assert_canonical(got)


def test_substitution_cancels_exactly():
    x1, x2 = var(2, 1), var(2, 2)
    s = Substitution((x1 + x2, x1 - x2))
    assert s.apply(x1 ** 2 - x2 ** 2) == 4 * x1 * x2
    assert s.apply(x1 * x2) == x1 ** 2 - x2 ** 2
    # Frobenius over GF(3): (y1 + y2)^3 = y1^3 + y2^3, the binomials 3 vanish.
    y1, y2 = var(2, 1, F3), var(2, 2, F3)
    got = Substitution((y1 + y2, y2)).apply(y1 ** 3)
    assert got == y1 ** 3 + y2 ** 3
    assert_canonical(got)


def test_substitution_at_the_exponent_bound():
    top = 2 ** 32 - 1
    for field in KERNEL_FIELDS:
        x1, x2 = var(2, 1, field), var(2, 2, field)
        h = Polynomial(2, {(top, 0): 2, (1, top): 1, (0, 0): 3}, field)
        s = Substitution((h, x1 - x2))
        f = x1 ** 2 - 3 * x1 * x2 + 4 * x2
        assert s.apply(f) == apply_by_products(s, f)
        assert s.apply(f).coefficient((2 * top, 0)) == field(4)
    big = Polynomial(2, {(2 ** 32, 0): 1})
    x1, x2 = var(2, 1), var(2, 2)
    for s, f in ((Substitution((big, x2)), x1), (Substitution((x1, x2)), big)):
        with pytest.raises(PreconditionError, match=r"2\*\*32"):
            s.apply(f)


def test_substitution_powers_by_squaring():
    x1, x2 = var(2, 1), var(2, 2)
    top = 2 ** 32 - 1
    # Linear powering would take 2**32 products here.
    assert Substitution((x1, x2)).apply(x1 ** top * x2) == x1 ** top * x2
    assert Substitution((x2, x1)).apply(x1 ** top * x2 ** 3) == x2 ** top * x1 ** 3
    # Powers reached by squaring and by one more factor, in a mixed order.
    for field in KERNEL_FIELDS:
        y1, y2 = var(2, 1, field), var(2, 2, field)
        one = Polynomial.constant(2, 1, field)
        s = Substitution((y1 + 2 * y2 - one, y1 * y2 + 3 * one))
        f = y1 ** 8 + y1 ** 3 * y2 ** 6 - 4 * y1 ** 7 + y2 ** 5 + y1 ** 2
        got = s.apply(f)
        assert got == apply_by_products(s, f)
        assert_canonical(got)


def test_substitution_refuses_a_possible_slot_carry():
    top = 2 ** 32 - 1
    x1, x2 = var(2, 1), var(2, 2)
    # deg(f) * top = 2**64 - 1: the largest slot, top**2, still fits.
    s = Substitution((x1 ** top, x2))
    assert s.apply(x1 ** top * x2 ** 2) == Polynomial.monomial(2, (top * top, 2))
    y1, y2, y3 = var(3, 1), var(3, 2), var(3, 3)
    for s, f in ((s, x1 ** top * x2 ** 3),
                 (Substitution((x1 ** top, x1 ** top)), x1 ** top * x2 ** top),
                 # deg(f) * 2**31 = 2**64 exactly
                 (Substitution((y1 ** 2 ** 31, y2, y3)), (y1 * y2) ** top * y3 ** 2)):
        with pytest.raises(PreconditionError, match=r"2\*\*64"):
            s.apply(f)


def test_substitute_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        substitute(var(3, 1), Substitution.identity(2))


# ----------------------------------------------------------------------
# induced linear maps
# ----------------------------------------------------------------------


def test_induced_map_identity_and_permutation():
    assert induced_map(SquareMatrix.identity(2)).images == Substitution.identity(2).images
    perm = SquareMatrix([[0, 1], [1, 0]])
    assert induced_map(perm).images == (var(2, 2), var(2, 1))


def test_induced_map_uses_columns():
    s = induced_map(ROTATION)
    assert s.images[0] == Fraction(3, 5) * var(2, 1) + Fraction(4, 5) * var(2, 2)
    assert s.images[1] == Fraction(-4, 5) * var(2, 1) + Fraction(3, 5) * var(2, 2)


# ----------------------------------------------------------------------
# orthogonality and the automorphism check
# ----------------------------------------------------------------------


def test_is_orthogonal_examples():
    assert is_orthogonal(SquareMatrix.identity(3))
    assert is_orthogonal(SquareMatrix([[1, 0], [0, -1]]))
    assert is_orthogonal(ROTATION)
    assert not is_orthogonal(SquareMatrix([[2, 0], [0, 1]]))


def test_check_automorphism_rotation():
    verdict = check_automorphism(ROTATION)
    assert verdict.ok
    s = induced_map(ROTATION)
    assert circ(s.images[0], s.images[0]) == Polynomial.constant(2, 1)


def test_check_automorphism_negative_witness():
    verdict = check_automorphism(SquareMatrix([[2, 0], [0, 1]]))
    assert not verdict.ok
    assert verdict.witness == (1, 1)


def test_check_matches_orthogonality_on_samples(rng):
    for n in range(1, 5):
        for trial in range(25):
            m = rational_orthogonal_sample(rng.randint(0, 10 ** 6), n)
            assert is_orthogonal(m)
            assert check_automorphism(m, rng_seed=trial).ok
            broken = _perturb(rng, m)
            assert not is_orthogonal(broken)
            assert not check_automorphism(broken, rng_seed=trial).ok


def test_check_automorphism_refuses_bad_arguments():
    for kwargs in ({"spot_checks": -1}, {"spot_degree": -2}, {"spot_checks": 1.5}):
        with pytest.raises(DomainError):
            check_automorphism(ROTATION, **kwargs)


def circ_table_check(a, spot_checks=2, rng_seed=0, spot_degree=3):
    """The verdict from n(n+1)/2 `circ` calls and Polynomial-level spot checks."""
    sub = induced_map(a)
    n = a.n
    one = Polynomial.constant(n, 1, a.field)
    zero = Polynomial.zero(n, a.field)
    for i in range(n):
        for j in range(i, n):
            got = circ(sub.images[i], sub.images[j])
            expected = one if i == j else zero
            if got != expected:
                return (False, f"image pairing h{i + 1} o h{j + 1} = {got}, expected {expected}",
                        (i + 1, j + 1))
    rng = random.Random(rng_seed)
    for _ in range(spot_checks):
        f = random_polynomial(rng, n, spot_degree, a.field, max_terms=3)
        g = random_polynomial(rng, n, spot_degree, a.field, max_terms=3)
        if sub.apply(circ(f, g)) != circ(sub.apply(f), sub.apply(g)):
            return False, "product preservation failed on a random pair", (str(f), str(g))
    return True, f"pairings orthonormal; {spot_checks} spot checks passed", None


def _oracle_matrices(rng, field):
    """Orthogonal samples mapped into `field`, perturbed copies, zero-column copies
    and shears (whose first mismatch is off the diagonal)."""
    out = []
    for n in range(1, 5):
        for _ in range(3):
            m = rational_orthogonal_sample(rng.randint(0, 10 ** 6), n)
            try:
                m = SquareMatrix(m.entries, field)
            except CoercionError:  # a denominator divisible by p
                continue
            rows = [list(row) for row in m.entries]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += field(rng.randint(1, 5))
            zeroed = [list(row) for row in m.entries]
            for row in zeroed:
                row[j] = field.zero
            out += [m, SquareMatrix(rows, field), SquareMatrix(zeroed, field)]
        shear = [[field.one if p == q or q == p + 1 else field.zero for q in range(n)]
                 for p in range(n)]
        out.append(SquareMatrix(shear, field))
    out.append(SquareMatrix([["1", "1/2"], ["0", "1"]], field))
    return out


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=repr)
def test_check_automorphism_matches_circ_table(field):
    rng = random.Random(11)
    oks = off_diagonal = 0
    for seed, m in enumerate(_oracle_matrices(rng, field)):
        verdict = check_automorphism(m, rng_seed=seed)
        assert (verdict.ok, verdict.detail, verdict.witness) == circ_table_check(m, rng_seed=seed)
        identity = SquareMatrix.identity(m.n, field)
        assert is_orthogonal(m) == (m.transpose() * m == identity) == verdict.ok
        oks += verdict.ok
        off_diagonal += not verdict.ok and verdict.witness[0] != verdict.witness[1]
    assert oks >= 8 and off_diagonal


def _perturb(rng, m):
    """Bump one entry until orthogonality is lost."""
    n = m.n
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        rows = [list(row) for row in m.entries]
        rows[i][j] += delta
        candidate = SquareMatrix(rows, m.field)
        if not is_orthogonal(candidate):
            return candidate


def test_grading_preserved_by_orthogonal_substitution(rng):
    s = induced_map(ROTATION)
    for k in range(1, 5):
        f = random_polynomial(rng, 2, k)
        parts = f.homogeneous_components()
        for d, part in parts.items():
            image = substitute(part, s)
            assert image.is_homogeneous(d)


def test_product_preservation_exact(rng):
    for seed in range(5):
        m = rational_orthogonal_sample(seed, 3)
        s = induced_map(m)
        f = random_polynomial(rng, 3, 4)
        g = random_polynomial(rng, 3, 4)
        assert substitute(circ(f, g), s) == circ(substitute(f, s), substitute(g, s))


# ----------------------------------------------------------------------
# group law
# ----------------------------------------------------------------------


def test_compose_check_examples():
    identity = SquareMatrix.identity(2)
    assert compose_check(identity, identity).ok
    flip = SquareMatrix([[1, 0], [0, -1]])
    assert compose_check(ROTATION, flip).ok
    p1 = SquareMatrix([[0, 1], [1, 0]])
    assert compose_check(p1, p1).ok


def test_compose_check_matches_matrix_product(rng):
    for seed in range(15):
        a = rational_orthogonal_sample(2 * seed, 3)
        b = rational_orthogonal_sample(2 * seed + 1, 3)
        assert compose_check(a, b).ok
        lhs = induced_map(b).after(induced_map(a))
        rhs = induced_map(b * a)
        assert lhs.images == rhs.images


def test_compose_check_notes_non_orthogonal_context():
    skew = SquareMatrix([[1, 1], [0, 1]])
    verdict = compose_check(skew, skew)
    assert verdict.ok  # the law holds for arbitrary linear substitutions
    assert "not orthogonal" in verdict.detail


def test_transpose_inverts_orthogonal(rng):
    for seed in range(10):
        m = rational_orthogonal_sample(seed, 4)
        composed = induced_map(m.transpose()).after(induced_map(m))
        assert composed.images == Substitution.identity(4).images


# ----------------------------------------------------------------------
# rational circle points and the sampler
# ----------------------------------------------------------------------


def test_rational_cosine_sine_values():
    assert rational_cosine_sine(Fraction(1, 2)) == (Fraction(3, 5), Fraction(4, 5))
    assert rational_cosine_sine(0) == (1, 0)
    for num in range(-8, 9):
        c, s = rational_cosine_sine(Fraction(num, 3))
        assert c * c + s * s == 1


def test_sampler_always_orthogonal():
    for n in (1, 2, 3, 4):
        for seed in range(20):
            assert is_orthogonal(rational_orthogonal_sample(seed, n))


def test_sampler_deterministic():
    assert rational_orthogonal_sample(42, 3) == rational_orthogonal_sample(42, 3)


# ----------------------------------------------------------------------
# one variable
# ----------------------------------------------------------------------


def test_aut_dim1_accepts_exactly_sign_flips():
    assert aut_dim1(-1, 5).ok
    assert aut_dim1(1, 0).ok
    assert aut_dim1(1, Fraction(7, 3)).ok
    assert not aut_dim1(2, 0).ok
    assert not aut_dim1(0, 1).ok
    assert not aut_dim1(Fraction(1, 2), 3).ok


def test_aut_dim1_witness_detail():
    verdict = aut_dim1(2, 0)
    assert "4" in verdict.detail


def test_dim1_composition_law(rng):
    for _ in range(25):
        l1, l2 = rng.choice((1, -1)), rng.choice((1, -1))
        m1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        m2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert dim1_compose_check(l1, m1, l2, m2).ok
