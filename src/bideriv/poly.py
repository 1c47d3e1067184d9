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

Products, ``circ``, substitution, vector-field actions and the chained
identities run on a private integer kernel.  Each input is packed once: one
int key per exponent tuple, with a 64-bit slot per variable, and integer
coefficients (numerators over one denominator for QQ, residues for GF(p)).
Field scalars are built once per output term, in the pass that decodes it.
Kernel inputs need every exponent below 2**32 (else PreconditionError);
substitution also needs deg(f) times the largest image exponent below 2**64.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here may be shared freely between
threads.
"""

from __future__ import annotations

import random
import struct
from collections import defaultdict
from itertools import compress
from fractions import Fraction
from math import lcm
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

# Closure sweeps are desk-scale tools: refuse cells with more monomials than
# this, and (in the CLI) more variables.
MAX_CELL_DIMENSION = 1024


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
# integer kernel on packed exponents: pack each input once, work in ints,
# and build field scalars once per output term
# ----------------------------------------------------------------------

Packed = tuple[dict[int, int], int]
# Below this bound no slot carries: chains add a few exponents, and substitution
# refuses f unless deg(f) times the largest image exponent is below 2**64.
_EXPONENT_BOUND = 1 << 32


class _Kernel:
    """Integer arithmetic on packed term maps of K[x1..xn].

    A value ``(ints, scale)`` is ``sum ints[w] / scale X^u``, where the key
    ``w`` holds ``u_i`` in bits ``64i .. 64i+63``.  Every op drops zero terms
    and, over GF(p), reduces residues mod p.
    """

    __slots__ = ("n", "field", "p", "_struct")

    def __init__(self, n: int, field: Field):
        self.n, self.field = n, field
        self.p = 0 if isinstance(field, RationalField) else field.p
        self._struct = struct.Struct(f"<{n}Q")

    def exponents(self, w: int) -> Monomial:
        return self._struct.unpack(w.to_bytes(8 * self.n, "little"))

    def pack(self, *polys: "Polynomial") -> list[Packed]:
        """The values of polys, all over one scale: the lcm of their denominators."""
        top = max((e for f in polys for e in map(max, f._terms)), default=0)
        if top >= _EXPONENT_BOUND:
            raise PreconditionError(f"exponent {top} is at or above the packed-exponent bound 2**32")
        pack, p = self._struct.pack, self.p
        scale = 1 if p else lcm(*(c.denominator for f in polys for c in f._terms.values()))
        return [({int.from_bytes(pack(*u), "little"):
                  c.value if p else c.numerator * (scale // c.denominator)
                  for u, c in f._terms.items()}, scale) for f in polys]

    def unpack(self, value: Packed) -> "Polynomial":
        ints, scale = value
        decode, size, p = self._struct.unpack, 8 * self.n, self.p
        return Polynomial._make(self.n, self.field, {
            decode(w.to_bytes(size, "little")): FpElement(c, p) if p else Fraction(c, scale)
            for w, c in ints.items()})

    def _tidy(self, ints: dict[int, int]) -> dict[int, int]:
        if p := self.p:
            return {w: r for w, c in ints.items() if (r := c % p)}
        return {w: c for w, c in ints.items() if c}

    def partials(self, value: Packed) -> dict[int, Packed]:
        """The nonzero d/dx_(i+1) of a value, keyed by i."""
        ints, scale = value
        parts: defaultdict[int, dict[int, int]] = defaultdict(dict)
        decode, size, slots = self._struct.unpack, 8 * self.n, range(self.n)
        for w, c in ints.items():
            u = decode(w.to_bytes(size, "little"))
            for i in compress(slots, u):
                parts[i][w - (1 << 64 * i)] = c * u[i]
        if self.p:  # u[i] may be a multiple of p
            return {i: (d, 1) for i, part in parts.items() if (d := self._tidy(part))}
        return {i: (d, scale) for i, d in parts.items()}

    def dot(self, pairs) -> Packed:
        """sum a*b over the pairs (a, b); all a share one scale, all b another."""
        out: dict[int, int] = {}
        get = out.get
        scale = 1
        for (a, sa), (b, sb) in pairs:
            scale = sa * sb
            bs = b.items()
            for u, x in a.items():
                for v, y in bs:
                    w = u + v
                    out[w] = get(w, 0) + x * y
        return self._tidy(out), scale

    def mul(self, f: Packed, g: Packed) -> Packed:
        return self.dot(((f, g),))

    def circ(self, f: Packed, g: Packed) -> Packed:
        df, dg = self.partials(f), self.partials(g)
        return self.dot((d, dg[i]) for i, d in df.items() if i in dg)

    def comb(self, *terms: tuple[int, Packed]) -> Packed:
        """sum a*f over the (a, f) terms, over the lcm of their scales."""
        scale = lcm(*(s for _, (_, s) in terms))
        out: dict[int, int] = {}
        get = out.get
        for a, (ints, s) in terms:
            m = a * (scale // s)
            for w, c in ints.items():
                out[w] = get(w, 0) + m * c
        return self._tidy(out), scale


def _kernel(f: "Polynomial", *others: "Polynomial") -> _Kernel:
    """The kernel of f's ring, once each of the others is checked to share it."""
    for g in others:
        f._check_compatible(g)
    return _Kernel(f.n, f.field)


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

    def _plus(self, other, negate: bool):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for u, c in other._terms.items():
            s = out.get(u)
            s = (-c if negate else c) if s is None else (s - c if negate else s + c)
            if s:
                out[u] = s
            elif u in out:
                del out[u]
        return Polynomial._make(self.n, self.field, out)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return Polynomial._make(self.n, self.field, {u: -c for u, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            k = _kernel(self, other)
            return k.unpack(k.mul(*k.pack(self, other)))
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
        k = _kernel(self.components[0], g)
        *comps, g = k.pack(*self.components, g)
        return k.unpack(k.dot((comps[i], d) for i, d in k.partials(g).items()))

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
    k = _kernel(f, g)
    return k.unpack(k.circ(*k.pack(f, g)))


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
    k = _kernel(v.components[0], w.components[0])
    packed = k.pack(*v.components, *w.components)
    vs, ws = packed[:v.n], packed[v.n:]
    return VectorField(
        k.unpack(k.comb((1, k.dot((vs[i], d) for i, d in k.partials(wk).items())),
                        (-1, k.dot((ws[i], d) for i, d in k.partials(vk).items()))))
        for vk, wk in zip(vs, ws))


def bracket_with_square(f: Polynomial) -> VectorField:
    """[grad f, grad(f o f)] via the closed form 2 sum_{ijk} f_i f_j f_{ijk} d/dx_k.

    Agrees with ``lie_bracket(gradient(f), gradient(circ(f, f)))`` and
    vanishes identically when deg f <= 2 (all third derivatives die).
    """
    k = _kernel(f)
    first = k.partials(*k.pack(f))
    pairs: list[list[tuple[Packed, Packed]]] = [[] for _ in range(f.n)]
    # The sum is symmetric in i, j: take i <= j, off-diagonal pairs twice.
    # f_ij != 0 implies f_j != 0, so first[j] exists.
    for i, fi in first.items():
        for j, fij in k.partials(fi).items():
            if j < i or not (third := k.partials(fij)):
                continue
            pair = k.comb((2 if i == j else 4, k.mul(fi, first[j])))
            for m, t in third.items():
                pairs[m].append((pair, t))
    return VectorField(k.unpack(k.dot(out)) for out in pairs)


def associator(f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """(f o g) o h - f o (g o h); nonzero in general (the product is nonassociative)."""
    k = _kernel(f, g, h)
    f, g, h = k.pack(f, g, h)
    return k.unpack(k.comb((1, k.circ(k.circ(f, g), h)), (-1, k.circ(f, k.circ(g, h)))))


def jacobiator(f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """Cyclic sum (f o g) o h + (g o h) o f + (h o f) o g; obstruction to Jacobi."""
    k = _kernel(f, g, h)
    f, g, h = k.pack(f, g, h)
    c = k.circ
    return k.unpack(k.comb((1, c(c(f, g), h)), (1, c(c(g, h), f)), (1, c(c(h, f), g))))


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
