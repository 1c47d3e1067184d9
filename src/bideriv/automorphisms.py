"""Substitution endomorphisms and the orthogonal-group correspondence.

A grading-preserving automorphism of the algebra (with both the ring
product and the gradient product) is a linear substitution
``x_j -> sum_k a_kj x_k`` whose matrix is orthogonal, and conversely; the
whole check reduces to the finite pairing table ``h_i o h_j = delta_ij``
(which is exactly ``A^T A = I`` entry by entry).  Composition of the
induced maps corresponds to the matrix product in the same order.

For one variable the full automorphism group is affine: ``x -> l*x + m``
with ``l^2 = 1``, composing like the semidirect product of translations by
the sign flip.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DimensionMismatchError, DomainError, FieldMismatchError
from .fields import QQ, Field
from .matrices import SquareMatrix
from .poly import Packed, Polynomial, _kernel, circ, random_polynomial
from .verdicts import Verdict, _Record, _set_field

__all__ = [
    "Substitution",
    "aut_dim1",
    "check_automorphism",
    "compose_check",
    "dim1_compose_check",
    "induced_map",
    "is_orthogonal",
    "rational_cosine_sine",
    "rational_orthogonal_sample",
    "substitute",
]


class Substitution(_Record):
    """The ring endomorphism f -> f(h1, ..., hn) given by images of x1..xn."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[Polynomial, ...]):
        images = tuple(images)
        if not images:
            raise DomainError("a substitution needs at least one image")
        n = len(images)
        for h in images:
            if h.n != n:
                raise DimensionMismatchError(
                    f"image over {h.n} variables in a substitution on {n} variables"
                )
            if h.field != images[0].field:
                raise FieldMismatchError("substitution images over different fields")
        _set_field(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def field(self) -> Field:
        return self.images[0].field

    @classmethod
    def identity(cls, n: int, field: Field = QQ) -> "Substitution":
        return cls(tuple(Polynomial.variable(n, i, field) for i in range(1, n + 1)))

    def apply(self, f: Polynomial) -> Polynomial:
        """Evaluate f at the images; multiplicative and unital by construction."""
        if f.n != self.n:
            raise DimensionMismatchError(
                f"cannot substitute into a {f.n}-variable polynomial with {self.n} images"
            )
        if f.field != self.field:
            raise FieldMismatchError("substitution and polynomial over different fields")
        # c X^u goes to c prod_i h_i^u_i, with the powers of each image cached.
        k = _kernel(f)
        *images, (ints, d) = k.pack(*self.images, f)
        powers = [[({0: 1}, 1)] for _ in images]

        def power(i: int, e: int) -> Packed:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(k.mul(cache[-1], images[i]))
            return cache[e]

        terms = []
        for w, c in ints.items():
            term = ({0: c}, d)
            for i, e in enumerate(k.exponents(w)):
                if e:
                    term = k.mul(term, power(i, e))
            terms.append((1, term))
        return k.unpack(k.comb(*terms))

    def after(self, inner: "Substitution") -> "Substitution":
        """Composite endomorphism: first `inner`, then self."""
        if inner.n != self.n:
            raise DimensionMismatchError("cannot compose substitutions of different sizes")
        return Substitution(tuple(self.apply(h) for h in inner.images))

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.apply(f)


def substitute(f: Polynomial, s: Substitution) -> Polynomial:
    return s.apply(f)


def induced_map(a: SquareMatrix) -> Substitution:
    """Linear substitution with x_j -> sum_k a_kj x_k (column j gives the image)."""
    n = a.n
    images = []
    for j in range(n):
        terms = {}
        for k in range(n):
            c = a.entries[k][j]
            if not c:
                continue
            u = [0] * n
            u[k] = 1
            terms[tuple(u)] = c
        images.append(Polynomial(n, terms, a.field))
    return Substitution(tuple(images))


def is_orthogonal(a: SquareMatrix) -> bool:
    """Exact test of A^T A = I."""
    return a.transpose() * a == SquareMatrix.identity(a.n, a.field)


def check_automorphism(a: SquareMatrix, spot_checks: int = 2,
                       rng_seed: int = 0, spot_degree: int = 3) -> Verdict:
    """Decide whether the induced linear substitution preserves both products.

    The verdict rests on the finite pairing table: the images must satisfy
    ``h_i o h_j = delta_ij`` for all i <= j (equivalent to orthogonality of
    the matrix, and sufficient for preservation of the gradient product by
    the chain rule).  A few random product preservation checks are run on
    top as an integration sanity pass, not as the deciding evidence.
    """
    sub = induced_map(a)
    n = a.n
    one = Polynomial.constant(n, 1, a.field)
    zero = Polynomial.zero(n, a.field)
    for i in range(n):
        for j in range(i, n):
            got = circ(sub.images[i], sub.images[j])
            expected = one if i == j else zero
            if got != expected:
                return Verdict(
                    False,
                    detail=(f"image pairing h{i + 1} o h{j + 1} = {got}, "
                            f"expected {expected}"),
                    witness=(i + 1, j + 1),
                )
    rng = random.Random(rng_seed)
    for _ in range(spot_checks):
        f = random_polynomial(rng, n, spot_degree, a.field, max_terms=3)
        g = random_polynomial(rng, n, spot_degree, a.field, max_terms=3)
        if sub.apply(circ(f, g)) != circ(sub.apply(f), sub.apply(g)):
            return Verdict(False,
                           detail="product preservation failed on a random pair",
                           witness=(str(f), str(g)))
    return Verdict(True, detail=f"pairings orthonormal; {spot_checks} spot checks passed")


def compose_check(a: SquareMatrix, b: SquareMatrix) -> Verdict:
    """Verify that composing induced maps matches the matrix product.

    The map induced by B, applied after the map induced by A, must equal
    the map induced by BA.  The law holds for arbitrary linear
    substitutions; the verdict notes when an input is not orthogonal so the
    context is visible in reports.
    """
    a._check_compatible(b)
    lhs = induced_map(b).after(induced_map(a))
    rhs = induced_map(b * a)
    ok = lhs.images == rhs.images
    notes = []
    if not is_orthogonal(a):
        notes.append("A is not orthogonal")
    if not is_orthogonal(b):
        notes.append("B is not orthogonal")
    context = "; ".join(notes) if notes else "both inputs orthogonal"
    detail = f"composite {'matches' if ok else 'differs from'} the product map ({context})"
    witness = None
    if not ok:
        witness = [str(h) for h in lhs.images]
    return Verdict(ok, detail=detail, witness=witness)


def rational_cosine_sine(t) -> tuple[Fraction, Fraction]:
    """Exact point on the unit circle from the tangent half-angle t.

    c = (1 - t^2)/(1 + t^2), s = 2t/(1 + t^2); c^2 + s^2 = 1 identically.
    """
    t = Fraction(t)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def rational_orthogonal_sample(seed: int, n: int) -> SquareMatrix:
    """Deterministic pseudo-random element of the rational orthogonal group.

    A signed permutation followed by a few planar rotations with rational
    cosine/sine pairs; every factor is exactly orthogonal, so the product
    is too.
    """
    if n < 1:
        raise DomainError("need at least one variable")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = Fraction(rng.choice((1, -1)))
    m = SquareMatrix(rows, QQ)
    if n >= 2:
        for _ in range(n + 1):
            i, j = sorted(rng.sample(range(n), 2))
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            c, s = rational_cosine_sine(t)
            rot = [[Fraction(1) if p == q else Fraction(0) for q in range(n)]
                   for p in range(n)]
            rot[i][i] = rot[j][j] = c
            rot[i][j] = -s
            rot[j][i] = s
            m = m * SquareMatrix(rot, QQ)
    return m


def aut_dim1(lam, mu, field: Field = QQ) -> Verdict:
    """Check whether x -> lam*x + mu is an automorphism of the one-variable algebra.

    The affine map always preserves the ring structure; the gradient
    product forces ``h o h = lam^2 = 1``, so exactly lam = 1 and lam = -1
    are accepted, with mu arbitrary.
    """
    lam = field(lam)
    mu = field(mu)
    h = Polynomial(1, {(1,): lam, (0,): mu}, field)
    square = circ(h, h)
    ok = square == Polynomial.constant(1, 1, field)
    return Verdict(ok, detail=f"h o h = {square}", witness=None if ok else str(h))


def dim1_compose_check(lam1, mu1, lam2, mu2, field: Field = QQ) -> Verdict:
    """Verify the affine composition law (l1, m1) * (l2, m2) = (l1*l2, l1*m2 + m1).

    The pair product is composition of the affine maps themselves
    (h1 after h2 on the variable); composing the induced ring endomorphisms
    reverses the order, giving the anti-isomorphic reading of the same
    semidirect product of translations by sign flips.
    """
    lam1, mu1, lam2, mu2 = field(lam1), field(mu1), field(lam2), field(mu2)
    h1 = Polynomial(1, {(1,): lam1, (0,): mu1}, field)
    h2 = Polynomial(1, {(1,): lam2, (0,): mu2}, field)
    composed = Substitution((h2,)).apply(h1)  # h1 evaluated at h2
    expected = Polynomial(1, {(1,): lam1 * lam2, (0,): lam1 * mu2 + mu1}, field)
    ok = composed == expected
    return Verdict(ok, detail=f"h1(h2(x)) = {composed}",
                   witness=None if ok else str(expected))
