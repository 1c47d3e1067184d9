import random
from collections import deque
from fractions import Fraction
from math import comb, factorial

import pytest

from bideriv import (
    CartanElement,
    CharacteristicError,
    DomainError,
    Polynomial,
    PreconditionError,
    SeparationError,
    Subspace,
    bimodule_closure,
    cartan_action,
    eigen_split,
    ideal_reduce,
    is_simple_bimodule,
    monomials_of_degree,
    random_homogeneous_polynomial,
    random_polynomial,
    separating_cartan,
    transfer_operator,
)
from conftest import F5, var


# ----------------------------------------------------------------------
# ideal reduction
# ----------------------------------------------------------------------


def test_ideal_reduce_spec_examples():
    f = Polynomial(2, {(2, 1): 5, (1, 0): 1})
    assert ideal_reduce(f) == 10  # 2! * 1! * 5
    assert ideal_reduce(Polynomial.constant(3, 7)) == 7
    assert ideal_reduce(var(2, 1)) == 1


def test_ideal_reduce_single_monomial_factorials(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        u = tuple(rng.randint(0, 4) for _ in range(n))
        a = Fraction(rng.choice([c for c in range(-9, 10) if c]), rng.randint(1, 4))
        expected = a
        for e in u:
            expected *= factorial(e)
        assert ideal_reduce(Polynomial.monomial(n, u, a)) == expected


def test_ideal_reduce_nonzero_on_random_input(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, 5)
        if f.is_zero:
            continue
        assert ideal_reduce(f) != 0


def test_ideal_reduce_refuses_zero_and_char_p():
    with pytest.raises(PreconditionError):
        ideal_reduce(Polynomial.zero(2))
    with pytest.raises(CharacteristicError):
        ideal_reduce(var(1, 1, F5))


# ----------------------------------------------------------------------
# separating Cartan elements
# ----------------------------------------------------------------------


def test_separating_cartan_spec_examples():
    h = separating_cartan([(2, 0), (1, 1), (0, 2)], 2)
    assert h.coefficients == (Fraction(2), Fraction(6))
    from bideriv import Weight

    values = [Weight(u).evaluate(h) for u in [(2, 0), (1, 1), (0, 2)]]
    assert values == [2, 4, 6]

    assert separating_cartan([(1,)], 1).coefficients == (Fraction(2),)
    h3 = separating_cartan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
    assert h3.coefficients == (Fraction(2), Fraction(4), Fraction(8))
    values = [Weight(u).evaluate(h3) for u in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    assert values == [1, 2, 4]


def test_separating_cartan_always_separates():
    from bideriv import Weight

    for n in range(1, 5):
        for k in range(0, 7):
            support = monomials_of_degree(n, k)
            h = separating_cartan(support, k)
            values = [Weight(u).evaluate(h) for u in support]
            assert len(set(values)) == len(values)


def test_separating_cartan_validations():
    with pytest.raises(PreconditionError):
        separating_cartan([], 2)
    with pytest.raises(PreconditionError):
        separating_cartan([(1, 0)], 2)  # degree 1 monomial in a degree-2 support
    with pytest.raises(CharacteristicError):
        separating_cartan([(2, 0)], 2, F5)


# ----------------------------------------------------------------------
# eigen splitting
# ----------------------------------------------------------------------


def test_eigen_split_spec_example():
    f = var(2, 1) ** 2 + var(2, 1) * var(2, 2)
    h = CartanElement((2, 6))
    parts = eigen_split(f, h)
    assert parts == [var(2, 1) ** 2, var(2, 1) * var(2, 2)]


def test_eigen_split_monomial_and_zero():
    m = 3 * var(2, 1) * var(2, 2)
    h = CartanElement((2, 6))
    assert eigen_split(m, h) == [m]
    assert eigen_split(Polynomial.zero(2), h) == []


def test_eigen_split_components_are_exact_eigenvectors(rng):
    for _ in range(15):
        n = rng.randint(1, 3)
        k = rng.randint(0, 4)
        f = random_homogeneous_polynomial(rng, n, k, max_terms=5)
        h = separating_cartan(f.terms.keys(), k)
        parts = eigen_split(f, h)
        total = Polynomial.zero(n)
        for p in parts:
            assert len(p.terms) == 1
            (u,) = p.terms
            from bideriv import Weight

            lam = Weight(u).evaluate(h)
            assert cartan_action(h, p) == lam * p
            total = total + p
        assert total == f


def test_eigen_split_reports_collisions():
    # the all-ones Cartan element sees only total degree: everything collides
    f = var(2, 1) ** 2 + var(2, 1) * var(2, 2)
    with pytest.raises(SeparationError) as err:
        eigen_split(f, CartanElement.unit(2))
    assert "(2, 0)" in str(err.value) and "(1, 1)" in str(err.value)


def test_eigen_split_requires_homogeneous():
    with pytest.raises(PreconditionError):
        eigen_split(var(1, 1) + var(1, 1) ** 2, CartanElement((2,)))


# ----------------------------------------------------------------------
# transfer operators
# ----------------------------------------------------------------------


def test_transfer_examples():
    t = transfer_operator(1, 2)
    assert t.apply(var(2, 1) ** 2) == 2 * var(2, 1) * var(2, 2)
    assert t.apply(var(2, 1) * var(2, 2)) == var(2, 1) ** 2 + var(2, 2) ** 2
    assert t.apply(var(3, 3) ** 4).is_zero


def test_transfer_rejects_diagonal():
    with pytest.raises(PreconditionError):
        transfer_operator(2, 2)


def test_transfer_distance_reduction_exhaustive():
    # moving one unit from slot i to slot j cuts the l1 distance by exactly 2
    n = 3
    for k in range(1, 5):
        mons = monomials_of_degree(n, k)
        for u in mons:
            for v in mons:
                if u == v:
                    continue
                i = next(a for a in range(n) if u[a] < v[a])
                j = next(a for a in range(n) if u[a] > v[a])
                d = sum(abs(a - b) for a, b in zip(u, v))
                v_prime = list(v)
                v_prime[i] -= 1
                v_prime[j] += 1
                d_prime = sum(abs(a - b) for a, b in zip(u, v_prime))
                assert d_prime == d - 2
                # and the operator really produces that monomial
                image = transfer_operator(i + 1, j + 1).apply(Polynomial.monomial(n, v))
                assert image.coefficient(tuple(v_prime)) == v[i]


# ----------------------------------------------------------------------
# echelon subspaces
# ----------------------------------------------------------------------


def test_subspace_echelon_basis_is_canonical():
    x1, x2 = var(2, 1), var(2, 2)
    s = Subspace(2, 2, [x1 ** 2 + x1 * x2, 2 * x1 ** 2 + 2 * x1 * x2, x1 * x2])
    assert s.dimension == 2
    assert s.basis == [x1 ** 2, x1 * x2]
    assert s.contains(5 * x1 ** 2 - 3 * x1 * x2)
    assert not s.contains(x2 ** 2)
    assert s.contains(Polynomial.zero(2))


def test_subspace_rejects_wrong_degree():
    with pytest.raises(PreconditionError):
        Subspace(2, 2, [var(2, 1)])


# ----------------------------------------------------------------------
# closures
# ----------------------------------------------------------------------


def echelon_closure(seed, n, k):
    """Reference closure: echelon insertion of every Cartan and transfer image.

    Each vector that enlarges the span is queued once and hit with every
    generator; by linearity that closes the span.
    """
    cartans = [CartanElement.basis(n, i) for i in range(1, n + 1)]
    transfers = [transfer_operator(i, j)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    space = Subspace(n, k)
    space._insert(seed)
    queue = deque([seed])
    while queue:
        p = queue.popleft()
        images = [cartan_action(h, p) for h in cartans] + [t.apply(p) for t in transfers]
        queue.extend(image for image in images if space._insert(image))
    return space


def assert_matches_oracle(seed, n, k):
    got, want = bimodule_closure(seed, n, k), echelon_closure(seed, n, k)
    assert got.dimension == want.dimension, (n, k, seed)
    assert got.basis == want.basis, (n, k, seed)


def test_closure_matches_echelon_oracle_on_monomial_seeds():
    for n in (1, 2, 3):
        for k in range(0, 6):
            for u in monomials_of_degree(n, k):
                assert_matches_oracle(Polynomial.monomial(n, u), n, k)


def test_closure_matches_echelon_oracle_on_random_seeds(rng):
    for n in (1, 2, 3, 4):
        for k in range(0, 7):
            for _ in range(2):
                assert_matches_oracle(random_homogeneous_polynomial(rng, n, k), n, k)


def test_closure_spec_examples():
    s = bimodule_closure(var(2, 1) * var(2, 2), 2, 2)
    assert s.dimension == 3 == s.full_dimension

    s1 = bimodule_closure(var(1, 1) ** 4, 1, 4)
    assert s1.dimension == 1 == s1.full_dimension

    s3 = bimodule_closure(var(3, 1) * var(3, 2) * var(3, 3), 3, 3)
    assert s3.dimension == 10 == s3.full_dimension


def test_closure_validations():
    with pytest.raises(PreconditionError):
        bimodule_closure(Polynomial.zero(2), 2, 2)
    with pytest.raises(PreconditionError):
        bimodule_closure(var(2, 1), 2, 2)
    with pytest.raises(CharacteristicError):
        bimodule_closure(var(2, 1, F5) ** 2, 2, 2)


def test_closure_is_monotone_and_idempotent(rng):
    seed = random_homogeneous_polynomial(rng, 2, 3)
    s = bimodule_closure(seed, 2, 3)
    assert s.contains(seed)
    again = Subspace(2, 3, s.basis)
    assert again.dimension == s.dimension
    for b in s.basis:
        assert bimodule_closure(b, 2, 3).dimension <= s.dimension


def test_closure_reaches_full_dimension_everywhere():
    for n in (1, 2, 3):
        for k in range(0, 6):
            expected = comb(n + k - 1, n - 1)
            for u in monomials_of_degree(n, k):
                s = bimodule_closure(Polynomial.monomial(n, u), n, k)
                assert s.dimension == expected, (n, k, u)


def test_simplicity_reports():
    report = is_simple_bimodule(2, 3, random_seeds=3)
    assert report.ok and report.expected_dimension == 4
    assert report.seeds_checked == 4 + 3

    report = is_simple_bimodule(3, 5, random_seeds=2)
    assert report.ok and report.expected_dimension == 21

    report = is_simple_bimodule(1, 4, random_seeds=1)
    assert report.ok and report.expected_dimension == 1


def test_simplicity_reports_agree_with_echelon_oracle():
    for n, k, random_seeds, rng_seed in [(1, 4, 1, 0), (2, 3, 3, 0), (3, 3, 2, 5), (3, 4, 2, 11)]:
        report = is_simple_bimodule(n, k, random_seeds=random_seeds, rng_seed=rng_seed)
        sample = random.Random(rng_seed)
        seeds = [Polynomial.monomial(n, u) for u in monomials_of_degree(n, k)]
        seeds += [random_homogeneous_polynomial(sample, n, k) for _ in range(random_seeds)]
        dims = [echelon_closure(seed, n, k).dimension for seed in seeds]
        expected = comb(n + k - 1, n - 1)
        assert report.expected_dimension == expected
        assert report.seeds_checked == len(seeds)
        assert report.failures == tuple(
            (str(seed), dim) for seed, dim in zip(seeds, dims) if dim != expected)


def test_closure_refuses_huge_cells_like_the_sweep():
    with pytest.raises(PreconditionError) as closure_err:
        bimodule_closure(var(8, 1) ** 16, 8, 16)
    with pytest.raises(PreconditionError) as sweep_err:
        is_simple_bimodule(8, 16)
    assert str(closure_err.value) == str(sweep_err.value)
    assert "above the configured bound 1024" in str(closure_err.value)


def test_simplicity_refuses_empty_cells():
    with pytest.raises(DomainError):
        is_simple_bimodule(0, 2)
    with pytest.raises(DomainError):
        is_simple_bimodule(1, -1)


def test_simplicity_refuses_char_p_and_huge_cells():
    with pytest.raises(CharacteristicError):
        is_simple_bimodule(2, 2, field=F5)
    with pytest.raises(PreconditionError):
        is_simple_bimodule(8, 30)
