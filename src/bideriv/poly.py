"""Sparse multivariate polynomials with exact coefficients, and the gradient
product ``f o g = sum_i (df/dx_i)(dg/dx_i)``.

A polynomial in ``K[x1..xn]`` is stored as a map from exponent tuples
``u = (u1,...,un)`` to nonzero coefficients; the zero polynomial has an
empty map.  Example over two variables::

    x1^2*x2 + 3  ->  {(2, 1): 1, (0, 0): 3}

Variables are numbered 1..n throughout the public API, matching their
display names ``x1..xn``.  The canonical term order is graded
lexicographic: higher total degree first, ties broken lexicographically on
the exponent tuple.

Products, ``circ``, substitution and ``bracket_with_square`` run on integer
coefficients: numerators over one shared denominator for QQ, unreduced
residues for GF(p).  Field scalars are built once per output term, so the
public term maps still hold ``Fraction``/``FpElement`` values.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here may be shared freely between
threads.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    DimensionMismatchError,
    DomainError,
    FieldMismatchError,
    PreconditionError,
)
from .fields import QQ, Field, FpElement, RationalField, Scalar

__all__ = [
    "Monomial",
    "Polynomial",
    "VectorField",
    "associator",
    "bracket_with_square",
    "circ",
    "gradient",
    "grlex_key",
    "iterated_circ",
    "jacobiator",
    "lie_bracket",
    "monomials_of_degree",
    "random_homogeneous_polynomial",
    "random_polynomial",
]

Monomial = tuple[int, ...]


def grlex_key(u: Monomial) -> tuple:
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(u), u)


def monomials_of_degree(n: int, k: int) -> list[Monomial]:
    """All exponent tuples of total degree k in n variables, grlex-descending."""
    if n < 1:
        raise DomainError("need at least one variable")
    if k < 0:
        raise DomainError("degree must be nonnegative")
    # Lexicographic predecessor: one unit from the last nonzero slot before the
    # final one moves, with the final slot's units, into the slot after it.
    u = [k] + [0] * (n - 1)
    out: list[Monomial] = [tuple(u)]
    while u[-1] != k:
        i = n - 2
        while not u[i]:
            i -= 1
        u[i], u[-1], u[i + 1] = u[i] - 1, 0, u[-1] + 1  # u[i + 1] may be u[-1]
        out.append(tuple(u))
    return out


# ----------------------------------------------------------------------
# integer coefficient kernel: clear denominators once, work in ints, and
# build field scalars once per output term
# ----------------------------------------------------------------------


def _scaled(p: "Polynomial") -> tuple[dict[Monomial, int], int]:
    """(ints, scale) with each coefficient of p equal to ints[u] / scale.

    Over QQ the scale is the lcm of the denominators; over GF(p) the ints are
    the residues and the scale is 1.
    """
    if isinstance(p.field, RationalField):
        scale = lcm(*(c.denominator for c in p._terms.values()))
        return {u: c.numerator * (scale // c.denominator) for u, c in p._terms.items()}, scale
    return {u: c.value for u, c in p._terms.items()}, 1


def _mul_ints(out: dict[Monomial, int], f: dict[Monomial, int],
              g: dict[Monomial, int]) -> dict[Monomial, int]:
    """Add the schoolbook product of two integer term maps into `out`, and
    return it; zero coefficients are left in."""
    get = out.get
    for u, a in f.items():
        for v, b in g.items():
            w = tuple(map(add, u, v))
            out[w] = get(w, 0) + a * b
    return out


def _partials(ints: dict[Monomial, int], n: int) -> list[dict[Monomial, int]]:
    """The integer term maps of d/dx_1 .. d/dx_n."""
    parts: list[dict[Monomial, int]] = [{} for _ in range(n)]
    for u, c in ints.items():
        for i, e in enumerate(u):
            if e:
                parts[i][u[:i] + (e - 1,) + u[i + 1:]] = c * e
    return parts


def _unscaled(n: int, field: Field, ints: dict[Monomial, int], scale: int) -> "Polynomial":
    """The polynomial sum ints[u] / scale X^u, without the terms zero in the field."""
    if isinstance(field, RationalField):
        terms = {u: Fraction(c, scale) for u, c in ints.items() if c}
    else:
        p = field.p
        terms = {u: FpElement(c, p) for u, c in ints.items() if c % p}
    return Polynomial._make(n, field, terms)


class Polynomial:
    """Element of K[x1..xn] in canonical sparse form (no zero coefficients)."""

    __slots__ = ("n", "field", "_terms")

    def __init__(self, n: int, terms=None, field: Field = QQ):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"ambient variable count must be a positive integer, got {n!r}")
        clean: dict[Monomial, Scalar] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for u, c in items:
                u = tuple(u)
                if len(u) != n:
                    raise DimensionMismatchError(
                        f"exponent tuple {u} has length {len(u)}, expected {n}"
                    )
                if any(not isinstance(e, int) or e < 0 for e in u):
                    raise DomainError(f"exponents must be nonnegative integers, got {u}")
                cv = field(c)
                if u in clean:
                    cv = clean[u] + cv
                clean[u] = cv
        self.n = n
        self.field = field
        self._terms = {u: c for u, c in clean.items() if c}

    @classmethod
    def _make(cls, n: int, field: Field, terms: dict[Monomial, Scalar]) -> "Polynomial":
        # Internal fast path: `terms` must already be canonical.
        obj = object.__new__(cls)
        obj.n = n
        obj.field = field
        obj._terms = terms
        return obj

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int, field: Field = QQ) -> "Polynomial":
        return cls(n, None, field)

    @classmethod
    def constant(cls, n: int, value, field: Field = QQ) -> "Polynomial":
        return cls(n, {(0,) * n: value}, field)

    @classmethod
    def variable(cls, n: int, i: int, field: Field = QQ) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {exps: 1}, field)

    @classmethod
    def monomial(cls, n: int, exponents: Iterable[int], coefficient=1,
                 field: Field = QQ) -> "Polynomial":
        return cls(n, {tuple(exponents): coefficient}, field)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exponents: Iterable[int]) -> Scalar:
        u = tuple(exponents)
        if len(u) != self.n:
            raise DimensionMismatchError(
                f"exponent tuple {u} has length {len(u)}, expected {self.n}"
            )
        return self._terms.get(u, self.field.zero)

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (degree undefined)."""
        if not self._terms:
            return None
        return max(sum(u) for u in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if all terms share one total degree (zero counts for any)."""
        if not self._terms:
            return True
        degrees = {sum(u) for u in self._terms}
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into homogeneous parts, keyed by degree (ascending)."""
        buckets: dict[int, dict[Monomial, Scalar]] = {}
        for u, c in self._terms.items():
            buckets.setdefault(sum(u), {})[u] = c
        return {
            d: Polynomial._make(self.n, self.field, terms)
            for d, terms in sorted(buckets.items())
        }

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_monomial(self) -> Monomial | None:
        """Graded-lex greatest monomial, or None for zero."""
        if not self._terms:
            return None
        return max(self._terms, key=grlex_key)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials over {self.n} and {other.n} variables cannot be combined"
            )
        if self.field != other.field:
            raise FieldMismatchError(
                f"polynomials over {self.field!r} and {other.field!r} cannot be combined"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for u, c in other._terms.items():
            s = out.get(u)
            s = c if s is None else s + c
            if s:
                out[u] = s
            elif u in out:
                del out[u]
        return Polynomial._make(self.n, self.field, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._make(self.n, self.field, {u: -c for u, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            (f, fs), (g, gs) = _scaled(self), _scaled(other)
            return _unscaled(self.n, self.field, _mul_ints({}, f, g), fs * gs)
        if isinstance(other, (int, Fraction, FpElement)):
            c = self.field(other)
            if not c:
                return Polynomial._make(self.n, self.field, {})
            return Polynomial._make(self.n, self.field,
                                    {u: a * c for u, a in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"polynomial powers need a nonnegative integer, got {k!r}")
        result = Polynomial.constant(self.n, 1, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and self._terms == other._terms)

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        """Exact formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        idx = i - 1
        out: dict[Monomial, Scalar] = {}
        for u, c in self._terms.items():
            e = u[idx]
            if e == 0:
                continue
            nc = c * e  # the exponent enters through the ring map Z -> K
            if not nc:
                continue
            out[u[:idx] + (e - 1,) + u[idx + 1:]] = nc
        return Polynomial._make(self.n, self.field, out)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __str__(self):
        from .textio import format_polynomial

        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.n}, '{self}')"


class VectorField:
    """Polynomial vector field sum_i a_i d/dx_i, stored as its n coefficients."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise DomainError("a vector field needs at least one component")
        n = comps[0].n
        field = comps[0].field
        if len(comps) != n:
            raise DimensionMismatchError(
                f"expected {n} components over {n} variables, got {len(comps)}"
            )
        for c in comps[1:]:
            comps[0]._check_compatible(c)
        self.components = comps

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def field(self) -> Field:
        return self.components[0].field

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def apply(self, g: Polynomial) -> Polynomial:
        """Act as a derivation: sum_i a_i * dg/dx_i."""
        if g.n != self.n:
            raise DimensionMismatchError(
                f"vector field over {self.n} variables cannot act on {g.n} variables"
            )
        self.components[0]._check_compatible(g)
        acc = Polynomial.zero(self.n, self.field)
        for i, a in enumerate(self.components, start=1):
            if a.is_zero:
                continue
            acc = acc + a * g.derivative(i)
        return acc

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(a - b for a, b in zip(self.components, other.components))

    def __neg__(self):
        return VectorField(-a for a in self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.components)
        return f"VectorField([{inner}])"


# ----------------------------------------------------------------------
# the biderivation and its derived operations
# ----------------------------------------------------------------------


def gradient(f: Polynomial) -> VectorField:
    """Gradient vector field of f: component i is df/dx_i."""
    return VectorField(f.derivative(i) for i in range(1, f.n + 1))


def circ(f: Polynomial, g: Polynomial) -> Polynomial:
    """The symmetric biderivation f o g = sum_i (df/dx_i)(dg/dx_i).

    Symmetric in its arguments, a derivation in each slot, and degree-law
    compatible: homogeneous inputs of degrees i and j land in degree
    i + j - 2 (or vanish).
    """
    f._check_compatible(g)
    (fi, fs), (gi, gs) = _scaled(f), _scaled(g)
    out: dict[Monomial, int] = {}
    for df, dg in zip(_partials(fi, f.n), _partials(gi, f.n)):
        _mul_ints(out, df, dg)
    return _unscaled(f.n, f.field, out, fs * gs)


def iterated_circ(k: int, m: int, f: Polynomial) -> Polynomial:
    """m-fold left application of x_k under the gradient product.

    ``x_k o (x_k o (... o f))`` -- since ``x_k o h = dh/dx_k`` this equals
    the m-th partial derivative of f in x_k.  Only single variables admit
    an unambiguous iterated product here (the operation is nonassociative).
    """
    if not 1 <= k <= f.n:
        raise IndexError(f"variable index {k} out of range 1..{f.n}")
    if not isinstance(m, int) or m < 0:
        raise PreconditionError(f"multiplicity must be a nonnegative integer, got {m!r}")
    for _ in range(m):
        if f.is_zero:
            break
        f = f.derivative(k)
    return f


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator of vector fields: [V, W]_k = sum_i (V_i dW_k/dx_i - W_i dV_k/dx_i)."""
    if v.n != w.n:
        raise DimensionMismatchError(
            f"vector fields over {v.n} and {w.n} variables cannot be bracketed"
        )
    v.components[0]._check_compatible(w.components[0])
    return VectorField(v.apply(wk) - w.apply(vk) for vk, wk in zip(v.components, w.components))


def bracket_with_square(f: Polynomial) -> VectorField:
    """[grad f, grad(f o f)] via the closed form 2 sum_{ijk} f_i f_j f_{ijk} d/dx_k.

    Agrees with ``lie_bracket(gradient(f), gradient(circ(f, f)))`` and
    vanishes identically when deg f <= 2 (all third derivatives die).
    """
    n = f.n
    ints, scale = _scaled(f)
    first = _partials(ints, n)
    outs: list[dict[Monomial, int]] = [{} for _ in range(n)]
    # The sum is symmetric in i, j: take i <= j, off-diagonal pairs twice.
    for i in range(n):
        second = _partials(first[i], n)
        for j in range(i, n):
            third = _partials(second[j], n)
            if not any(third):
                continue
            weight = 2 if i == j else 4
            pair = {u: weight * c for u, c in _mul_ints({}, first[i], first[j]).items()}
            for out, t in zip(outs, third):
                _mul_ints(out, pair, t)
    return VectorField(_unscaled(n, f.field, out, scale ** 3) for out in outs)


def associator(f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """(f o g) o h - f o (g o h); nonzero in general (the product is nonassociative)."""
    return circ(circ(f, g), h) - circ(f, circ(g, h))


def jacobiator(f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """Cyclic sum (f o g) o h + (g o h) o f + (h o f) o g; obstruction to Jacobi."""
    return circ(circ(f, g), h) + circ(circ(g, h), f) + circ(circ(h, f), g)


# ----------------------------------------------------------------------
# deterministic samplers (shared by spot checks and test suites)
# ----------------------------------------------------------------------


def _random_exponents(rng: random.Random, n: int, degree: int) -> Monomial:
    u = [0] * n
    for _ in range(degree):
        u[rng.randrange(n)] += 1
    return tuple(u)


def _random_coefficient(rng: random.Random, field: Field) -> Scalar:
    a = rng.choice([v for v in range(-9, 10) if v])
    if isinstance(field, RationalField) and rng.random() < 0.3:
        return Fraction(a, rng.randint(2, 5))
    return field(a)


def random_polynomial(rng: random.Random, n: int, max_degree: int,
                      field: Field = QQ, max_terms: int = 5) -> Polynomial:
    """Sparse random polynomial; may be zero if sampled terms cancel."""
    terms: dict[Monomial, Scalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        u = _random_exponents(rng, n, rng.randint(0, max_degree))
        c = _random_coefficient(rng, field)
        terms[u] = terms[u] + c if u in terms else c
    return Polynomial._make(n, field, {u: c for u, c in terms.items() if c})


def random_homogeneous_polynomial(rng: random.Random, n: int, degree: int,
                                  field: Field = QQ, max_terms: int = 4,
                                  nonzero: bool = True) -> Polynomial:
    """Random homogeneous polynomial of the given degree."""
    while True:
        terms: dict[Monomial, Scalar] = {}
        for _ in range(rng.randint(1, max_terms)):
            u = _random_exponents(rng, n, degree)
            c = _random_coefficient(rng, field)
            terms[u] = terms[u] + c if u in terms else c
        p = Polynomial._make(n, field, {u: c for u, c in terms.items() if c})
        if not (nonzero and p.is_zero):
            return p
