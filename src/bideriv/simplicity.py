"""Constructive simplicity witnesses.

Two algorithms, both straight from first principles:

* ``ideal_reduce`` shows any nonzero polynomial generates everything in
  characteristic zero: repeatedly applying variables under the gradient
  product (i.e. differentiating) the graded-lex-greatest top monomial
  ``a X^u`` leaves the nonzero constant ``u1! ... un! a``.

* ``bimodule_closure`` computes the smallest subspace of the degree-k
  homogeneous component containing a seed and invariant under the action
  of the quadratics (the diagonal Cartan elements and the transfers
  ``x_i x_j``).  Weight spaces are single monomials, so such a subspace is
  spanned by monomials; ``x_i x_j`` sends ``X^u`` to
  ``u_i X^{u-e_i+e_j} + u_j X^{u+e_i-e_j}`` and ``u_i != 0`` in
  characteristic zero, so the closure is spanned by the monomials reachable
  from the seed's support by unit transfers.  Reaching the full dimension
  ``C(n+k-1, n-1)`` from every seed witnesses simplicity of the component
  as a module over the quadratics.

Both refuse positive characteristic: the statements are characteristic-zero
facts (the factorial extraction and the ``u_i != 0`` step both need it).
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product
from math import comb
from typing import Iterable

from .errors import (
    CharacteristicError,
    DimensionMismatchError,
    DomainError,
    PreconditionError,
    SeparationError,
)
from .fields import QQ, Field, PrimeField, Scalar
from .poly import (
    MAX_CELL_DIMENSION,
    Monomial,
    Polynomial,
    circ,
    grlex_key,
    iterated_circ,
    monomials_of_degree,
    random_homogeneous_polynomial,
)
from .verdicts import SimplicityReport, _Record, _set_field
from .weights import CartanElement, Weight, cartan_action

__all__ = [
    "MAX_CELL_DIMENSION",
    "Subspace",
    "TransferOperator",
    "bimodule_closure",
    "eigen_split",
    "guarded_cell_dimension",
    "ideal_reduce",
    "is_simple_bimodule",
    "separating_cartan",
    "transfer_operator",
]


def _require_char_zero(field: Field, what: str):
    if isinstance(field, PrimeField):
        raise CharacteristicError(
            f"{what} requires characteristic 0; GF({field.p}) input refused"
        )


def ideal_reduce(f: Polynomial) -> Scalar:
    """Reduce a nonzero polynomial to the nonzero constant u1!...un! a.

    Takes the graded-lex-greatest monomial ``a X^u`` of top degree and
    applies each variable ``u_i`` times under the gradient product.  Every
    other monomial dies (nothing else dominates u componentwise), so the
    result is the constant ``u1! ... un! a`` -- a concrete certificate that
    the ideal generated by f contains 1.
    """
    _require_char_zero(f.field, "ideal reduction")
    if f.is_zero:
        raise PreconditionError("cannot reduce the zero polynomial")
    u = f.leading_monomial()
    g = f
    for i, multiplicity in enumerate(u, start=1):
        g = iterated_circ(i, multiplicity, g)
    constant = g.coefficient((0,) * f.n)
    return constant


def separating_cartan(support: Iterable[Monomial], k: int,
                      field: Field = QQ) -> CartanElement:
    """A Cartan element whose eigenvalues are pairwise distinct on the support.

    Uses coefficients ``2 (k+1)^(i-1)``, so the eigenvalue of X^u is
    ``sum_i u_i (k+1)^(i-1)`` -- the base-(k+1) reading of the digit string
    u.  Degree-k exponent vectors have digits at most k, making the
    encoding injective, hence separating on any degree-k support.
    """
    _require_char_zero(field, "the separating Cartan construction")
    mons = [tuple(m) for m in support]
    if not mons:
        raise PreconditionError("support must be nonempty")
    n = len(mons[0])
    for m in mons:
        if len(m) != n:
            raise DimensionMismatchError("support monomials have mixed lengths")
        if sum(m) != k:
            raise PreconditionError(f"support monomial {m} does not have degree {k}")
    base = k + 1
    return CartanElement(tuple(2 * base ** i for i in range(n)), field)


def eigen_split(f: Polynomial, h0: CartanElement) -> list[Polynomial]:
    """Split a homogeneous polynomial into eigencomponents of the action of h0.

    The components are produced constructively, by applying the Lagrange
    interpolation polynomials of the action of h0 (so each component is
    certified to lie in any subspace containing f that the action
    preserves).  When h0 fully separates the support, each component is a
    single monomial term.  Components are returned in descending graded-lex
    order of their monomial and sum to f.
    """
    if h0.n != f.n:
        raise DimensionMismatchError("Cartan element and polynomial sizes differ")
    if not f.is_homogeneous():
        raise PreconditionError("eigen-splitting needs a homogeneous input")
    if f.is_zero:
        return []

    groups: dict[Scalar, list[Monomial]] = {}
    for u in f.terms:
        lam = Weight(u).evaluate(h0)
        groups.setdefault(lam, []).append(u)
    colliding = [mons for mons in groups.values() if len(mons) > 1]
    if colliding:
        listing = "; ".join(
            ", ".join(str(m) for m in sorted(mons, key=grlex_key, reverse=True))
            for mons in colliding
        )
        raise SeparationError(f"eigenvalue collision on monomials: {listing}")

    by_monomial = sorted(
        ((mons[0], lam) for lam, mons in groups.items()),
        key=lambda kv: grlex_key(kv[0]),
        reverse=True,
    )
    eigenvalues = [lam for _, lam in by_monomial]
    components = []
    for lam in eigenvalues:
        p = f
        for mu in eigenvalues:
            if mu == lam:
                continue
            p = (cartan_action(h0, p) - mu * p) * (h0.field.one / (lam - mu))
        components.append(p)
    return components


class TransferOperator(_Record):
    """The action of x_i x_j (i != j): X^v maps to v_i X^{v'} + v_j X^{v''}.

    Here v' moves one exponent unit from slot i to slot j and v'' the
    reverse; this is the derivation x_j d/dx_i + x_i d/dx_j.
    """

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i == j:
            raise PreconditionError(
                "transfer needs two distinct variables; equal indices are the diagonal action"
            )
        if i < 1 or j < 1:
            raise IndexError("variable indices are 1-based")
        _set_field(self, "i", i)
        _set_field(self, "j", j)

    def apply(self, f: Polynomial) -> Polynomial:
        if self.i > f.n or self.j > f.n:
            raise IndexError(f"indices ({self.i}, {self.j}) out of range 1..{f.n}")
        xij = Polynomial.variable(f.n, self.i, f.field) * Polynomial.variable(
            f.n, self.j, f.field
        )
        return circ(xij, f)

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.apply(f)


def transfer_operator(i: int, j: int) -> TransferOperator:
    return TransferOperator(i, j)


class Subspace:
    """Span of homogeneous degree-k polynomials, kept in reduced echelon form.

    Coordinates are taken over the degree-k monomials in descending
    graded-lex order; every basis row has leading coefficient 1 and its
    pivot column is eliminated from all other rows, so the basis is the
    canonical one for the span.
    """

    def __init__(self, n: int, k: int, polynomials: Iterable[Polynomial] = (),
                 field: Field = QQ):
        if k < 0:
            raise DomainError("degree must be nonnegative")
        self.n = n
        self.k = k
        self.field = field
        self._columns = monomials_of_degree(n, k)
        self._col_index = {u: i for i, u in enumerate(self._columns)}
        self._rows: list[list[Scalar]] = []
        self._pivots: list[int] = []
        for p in polynomials:
            self._insert(p)

    @property
    def full_dimension(self) -> int:
        return comb(self.n + self.k - 1, self.n - 1)

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> list[Polynomial]:
        out = []
        for row in self._rows:
            terms = {self._columns[i]: c for i, c in enumerate(row) if c}
            out.append(Polynomial(self.n, terms, self.field))
        return out

    def _vector(self, f: Polynomial) -> list[Scalar]:
        if f.n != self.n:
            raise DimensionMismatchError(
                f"polynomial over {f.n} variables in a {self.n}-variable space"
            )
        if f.field != self.field:
            raise DomainError("polynomial field differs from the subspace field")
        if not f.is_homogeneous(self.k):
            raise PreconditionError(f"polynomial is not homogeneous of degree {self.k}")
        vec = [self.field.zero] * len(self._columns)
        for u, c in f.terms.items():
            vec[self._col_index[u]] = c
        return vec

    def _reduce(self, vec: list[Scalar]) -> int | None:
        """Eliminate existing pivots from vec; return its leading index or None."""
        for row, pivot in zip(self._rows, self._pivots):
            c = vec[pivot]
            if c:
                for idx in range(pivot, len(vec)):
                    if row[idx]:
                        vec[idx] = vec[idx] - c * row[idx]
        for idx, c in enumerate(vec):
            if c:
                return idx
        return None

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero:
            return True
        return self._reduce(self._vector(f)) is None

    def _insert(self, f: Polynomial) -> bool:
        """Add f to the span; True if the dimension grew."""
        if f.is_zero:
            return False
        vec = self._vector(f)
        lead = self._reduce(vec)
        if lead is None:
            return False
        inv = self.field.one / vec[lead]
        row = [c * inv for c in vec]
        for other in self._rows:
            c = other[lead]
            if c:
                for idx in range(lead, len(row)):
                    if row[idx]:
                        other[idx] = other[idx] - c * row[idx]
        at = 0
        while at < len(self._pivots) and self._pivots[at] < lead:
            at += 1
        self._rows.insert(at, row)
        self._pivots.insert(at, lead)
        return True

    def __repr__(self):
        return f"Subspace(n={self.n}, k={self.k}, dim={self.dimension}/{self.full_dimension})"


def guarded_cell_dimension(n: int, k: int) -> int:
    """C(n+k-1, n-1), the dimension of the degree-k cell, refused above the bound."""
    if n < 1:
        raise DomainError("need at least one variable")
    if k < 0:
        raise DomainError("degree must be nonnegative")
    dimension = comb(n + k - 1, n - 1)
    if dimension > MAX_CELL_DIMENSION:
        raise PreconditionError(
            f"cell (n={n}, k={k}) has dimension {dimension}, above the "
            f"configured bound {MAX_CELL_DIMENSION}"
        )
    return dimension


def _reach(support: Iterable[Monomial]) -> set[Monomial]:
    """The monomials reachable from the support by unit transfers u -> u - e_i + e_j;
    adjacent slots suffice, as a unit travels from i to j through those between."""
    reached = set(support)
    queue = deque(reached)
    while queue:
        u = queue.popleft()
        for i, step in product(range(len(u)), (-1, 1)):
            if u[i] and 0 <= i + step < len(u):
                v = list(u)
                v[i], v[i + step] = v[i] - 1, v[i + step] + 1
                v = tuple(v)
                if v not in reached:
                    reached.add(v)
                    queue.append(v)
    return reached


def bimodule_closure(seed: Polynomial, n: int, k: int) -> Subspace:
    """Smallest subspace of the degree-k component containing the seed and
    closed under the diagonal Cartan actions and all transfer operators.

    It is spanned by the monomials reachable from the seed's support by unit
    transfers (see the module docstring): they are its reduced echelon basis.
    """
    _require_char_zero(seed.field, "bimodule closure")
    if seed.is_zero:
        raise PreconditionError("closure needs a nonzero seed")
    if seed.n != n:
        raise DimensionMismatchError(f"seed lives over {seed.n} variables, expected {n}")
    if not seed.is_homogeneous(k):
        raise PreconditionError(f"seed must be homogeneous of degree {k}")
    guarded_cell_dimension(n, k)

    space = Subspace(n, k, field=seed.field)
    space._pivots = sorted(space._col_index[u] for u in _reach(seed.terms))
    for col in space._pivots:  # unit rows are already in reduced echelon form
        row = [seed.field.zero] * len(space._columns)
        row[col] = seed.field.one
        space._rows.append(row)
    return space


def is_simple_bimodule(n: int, k: int, random_seeds: int = 3,
                       rng_seed: int = 0, field: Field = QQ) -> SimplicityReport:
    """Sweep closures from every monomial seed (plus random seeds) of degree k.

    The component is simple exactly when every closure reaches the full
    dimension C(n+k-1, n-1); any failure is reported with its seed and the
    dimension it got stuck at.
    """
    _require_char_zero(field, "the simplicity sweep")
    expected = guarded_cell_dimension(n, k)
    # Seeds are sampled with O(k) work per term, so k and their count need bounds too.
    for what, value in (("degree", k), ("random seed count", random_seeds)):
        if value > MAX_CELL_DIMENSION:
            raise PreconditionError(
                f"cell (n={n}, k={k}): {what} {value} is above the configured bound "
                f"{MAX_CELL_DIMENSION}"
            )
    seeds = [Polynomial.monomial(n, u, 1, field) for u in monomials_of_degree(n, k)]
    rng = random.Random(rng_seed)
    seeds += [random_homogeneous_polynomial(rng, n, k, field) for _ in range(random_seeds)]
    dims = [len(_reach(seed.terms)) for seed in seeds]
    failures = [(str(seed), dim) for seed, dim in zip(seeds, dims) if dim != expected]

    return SimplicityReport(
        n=n,
        k=k,
        expected_dimension=expected,
        seeds_checked=len(seeds),
        failures=tuple(failures),
    )
