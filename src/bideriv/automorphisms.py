"""Substitution endomorphisms and the orthogonal-group correspondence.

A grading-preserving automorphism of the algebra (with both the ring
product and the gradient product) is a linear substitution
``x_j -> sum_k a_kj x_k`` whose matrix is orthogonal, and conversely; the
whole check reduces to the finite pairing table ``h_i o h_j = delta_ij``
(which is exactly ``A^T A = I`` entry by entry, so it is decided in integers
on the matrix).  Composition of the induced maps corresponds to the matrix
product in the same order.  Substitution builds image powers by squaring and
refuses ``deg(f)`` times the largest image exponent at or above ``2**64``.

For one variable the full automorphism group is affine: ``x -> l*x + m``
with ``l^2 = 1``, composing like the semidirect product of translations by
the sign flip.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DimensionMismatchError, DomainError, FieldMismatchError, PreconditionError
from .fields import QQ, Field
from .matrices import SquareMatrix
from .poly import Packed, Polynomial, _Kernel, _kernel, circ, random_polynomial
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


def _apply_packed(k: _Kernel, images: list[Packed], value: Packed) -> Packed:
    """value(h1, ..., hn): c X^u goes to c prod_i h_i^u_i.

    Each image power is built once, by squaring unless the power below it is
    known.  The caller keeps deg(value) times the largest image exponent
    below 2**64, so no slot of any power carries.
    """
    powers = [{1: h} for h in images]

    def power(i: int, e: int) -> Packed:
        cache = powers[i]
        if e not in cache:
            if e & 1 or e - 1 in cache:
                cache[e] = k.mul(power(i, e - 1), images[i])
            else:
                half = power(i, e >> 1)
                cache[e] = k.mul(half, half)
        return cache[e]

    ints, d = value
    terms = []
    for w, c in ints.items():
        term = ({0: c}, d)
        for i, e in enumerate(k.exponents(w)):
            if e:
                term = k.mul(term, power(i, e))
        terms.append((1, term))
    return k.comb(*terms)


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
        k = _kernel(f)
        *images, value = k.pack(*self.images, f)
        top = max((e for h in self.images for u in h.terms for e in u), default=0)
        if (f.degree() or 0) * top >= 1 << 64:
            raise PreconditionError(f"degree times image exponent {top} reaches the bound 2**64")
        return k.unpack(_apply_packed(k, images, value))

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
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return Substitution(tuple(
        Polynomial(n, {unit[k]: row[j] for k, row in enumerate(a.entries) if row[j]}, a.field)
        for j in range(n)))


def _pairing_mismatch(a: SquareMatrix) -> tuple[int, int, Fraction] | None:
    """The first (i, j, (A^T A)_ij) over i <= j, in row order, with (A^T A)_ij != delta_ij.

    (A^T A)_ij is the constant h_i o h_j; it is summed on integer numerators.
    """
    from operator import mul
    rows, scale = a._integer_rows()
    cols = list(zip(*rows))
    p, one = a.field.characteristic, scale * scale
    for i, ci in enumerate(cols):
        for j in range(i, a.n):
            s = sum(map(mul, ci, cols[j]))
            miss = s - one if i == j else s
            if miss % p if p else miss:
                return i, j, Fraction(s, one)
    return None


def is_orthogonal(a: SquareMatrix) -> bool:
    """Exact test of A^T A = I."""
    return _pairing_mismatch(a) is None


def check_automorphism(a: SquareMatrix, spot_checks: int = 2,
                       rng_seed: int = 0, spot_degree: int = 3) -> Verdict:
    """Decide whether the induced linear substitution preserves both products.

    The verdict rests on the finite pairing table: the images must satisfy
    ``h_i o h_j = delta_ij`` for all i <= j (equivalent to orthogonality of
    the matrix, and sufficient for preservation of the gradient product by
    the chain rule).  Each pairing is the constant ``(A^T A)_ij``, read off
    the matrix entries up to the first mismatch.  A few random product
    preservation checks are run on top as an integration sanity pass, not as
    the deciding evidence, exactly on the kernel values of both sides.
    """
    for name, value in (("spot_checks", spot_checks), ("spot_degree", spot_degree)):
        if not isinstance(value, int) or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    n, field = a.n, a.field
    if bad := _pairing_mismatch(a):
        i, j, got = bad
        got, expected = (Polynomial.constant(n, c, field) for c in (got, int(i == j)))
        return Verdict(False, detail=f"image pairing h{i + 1} o h{j + 1} = {got}, "
                                     f"expected {expected}", witness=(i + 1, j + 1))
    rng = random.Random(rng_seed)
    k = _Kernel(n, field)
    images = k.pack(*induced_map(a).images)
    for _ in range(spot_checks):
        f = random_polynomial(rng, n, spot_degree, field, max_terms=3)
        g = random_polynomial(rng, n, spot_degree, field, max_terms=3)
        pf, pg = k.pack(f, g)
        lhs, sl = _apply_packed(k, images, k.circ(pf, pg))
        rhs, sr = k.circ(_apply_packed(k, images, pf), _apply_packed(k, images, pg))
        # Both sides are canonical up to their scales: cross-multiply them.
        if {w: c * sr for w, c in lhs.items()} != {w: c * sl for w, c in rhs.items()}:
            return Verdict(False, detail="product preservation failed on a random pair",
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
