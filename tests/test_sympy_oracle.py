"""Independent cross-checks against sympy of the gradient product, gradients,
Lie brackets, linear substitution and the quadratic-to-matrix map.

Each case is drawn from a fixed seed; the module is skipped when sympy
cannot be imported.
"""

import random

import pytest

from bideriv import (
    QQ,
    VectorField,
    circ,
    gradient,
    induced_map,
    lie_bracket,
    quadratic_form,
    quadratic_to_matrix,
    random_polynomial,
    rational_orthogonal_sample,
    substitute,
)
from conftest import rand_sym_matrix

sympy = pytest.importorskip("sympy")

CASES = [(seed, 1 + seed % 4) for seed in range(8)]  # (seed, n)


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def sym(f, xs):
    return sum((rational(c) * sympy.Mul(*[x**e for x, e in zip(xs, u)])
                for u, c in f.terms.items()), sympy.Integer(0))


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def draw(seed, n, count, max_degree=4):
    rng = random.Random(seed)
    return [random_polynomial(rng, n, max_degree, QQ) for _ in range(count)]


def sym_bracket(v, w, xs):
    """[V, W]_k = sum_i V_i dW_k/dx_i - W_i dV_k/dx_i on lists of sympy expressions."""
    return [sum(v[i] * sympy.diff(w[k], xs[i]) - w[i] * sympy.diff(v[k], xs[i])
                for i in range(len(xs))) for k in range(len(xs))]


@pytest.mark.parametrize("seed,n", CASES)
def test_circ_and_gradient_match_sympy(seed, n):
    f, g = draw(seed, n, 2)
    xs = sympy.symbols(f"x1:{n + 1}")
    sf, sg = sym(f, xs), sym(g, xs)
    assert same(sym(circ(f, g), xs), sum(sympy.diff(sf, x) * sympy.diff(sg, x) for x in xs))
    for component, x in zip(gradient(f).components, xs):
        assert same(sym(component, xs), sympy.diff(sf, x))


@pytest.mark.parametrize("seed,n", CASES)
def test_lie_bracket_matches_sympy(seed, n):
    xs = sympy.symbols(f"x1:{n + 1}")
    f, *fields = draw(seed, n, 1 + 2 * n, max_degree=3)
    v, w = VectorField(fields[:n]), VectorField(fields[n:])
    want = sym_bracket([sym(c, xs) for c in v.components],
                       [sym(c, xs) for c in w.components], xs)
    assert all(same(sym(got, xs), expected)
               for got, expected in zip(lie_bracket(v, w).components, want))

    sf = sym(f, xs)
    grad = [sympy.diff(sf, x) for x in xs]
    grad_square = [sympy.diff(sum(d * d for d in grad), x) for x in xs]
    got = lie_bracket(gradient(f), gradient(circ(f, f)))
    assert all(same(sym(c, xs), expected)
               for c, expected in zip(got.components, sym_bracket(grad, grad_square, xs)))


@pytest.mark.parametrize("seed,n", CASES)
def test_orthogonal_substitution_matches_sympy(seed, n):
    (f,) = draw(seed, n, 1)
    a = rational_orthogonal_sample(seed, n)
    xs = sympy.symbols(f"x1:{n + 1}")
    images = {xs[j]: sum(rational(a.entries[k][j]) * xs[k] for k in range(n)) for j in range(n)}
    want = sym(f, xs).subs(images, simultaneous=True)
    assert same(sym(substitute(f, induced_map(a)), xs), want)


@pytest.mark.parametrize("seed,n", CASES)
def test_quadratic_to_matrix_is_twice_the_hessian(seed, n):
    q = quadratic_form(rand_sym_matrix(random.Random(seed), n))
    xs = sympy.symbols(f"x1:{n + 1}")
    got = sympy.Matrix([[rational(c) for c in row] for row in quadratic_to_matrix(q).entries])
    assert got == 2 * sympy.hessian(sym(q, xs), xs)
