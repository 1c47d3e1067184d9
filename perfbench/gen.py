"""Seeded benchmark inputs, built with the standard library only.

Nothing here imports ``bideriv``: a change to the library's own samplers
(``bideriv.poly.random_*``, ``rational_orthogonal_sample``) cannot change
what the benchmark feeds it.  Polynomials are plain term maps
``{exponent tuple: Fraction}``; matrices are lists of Fraction rows.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

NONZERO = [c for c in range(-9, 10) if c]


def monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree k in n variables, lex-descending."""
    if n == 1:
        return [(k,)]
    return [(e,) + rest for e in range(k, -1, -1) for rest in monomials(n - 1, k - e)]


def coefficient(rng: random.Random) -> Fraction:
    a = rng.choice(NONZERO)
    return Fraction(a, rng.randint(2, 5)) if rng.random() < 0.3 else Fraction(a)


def exponents(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    u = [0] * n
    for _ in range(degree):
        u[rng.randrange(n)] += 1
    return tuple(u)


def terms(rng: random.Random, n: int, max_degree: int, count: int) -> dict:
    """`count` distinct random monomials with nonzero coefficients.

    The term degrees follow a fixed profile from `max_degree` down (6, 5, 3, 2
    for four terms of degree <= 6), so the cost of a call varies with the
    seed far less than with uniformly drawn degrees.
    """
    out = {}
    for i in range(count):
        degree = max_degree - i * max_degree // count
        u = exponents(rng, n, degree)
        while u in out:
            u = exponents(rng, n, degree)
        out[u] = coefficient(rng)
    return out


def homogeneous(rng: random.Random, n: int, k: int, count: int) -> dict:
    pool = monomials(n, k)
    return {u: coefficient(rng) for u in rng.sample(pool, min(count, len(pool)))}


def dense_homogeneous(rng: random.Random, n: int, k: int) -> dict:
    """Every degree-k monomial, each with a nonzero coefficient."""
    return {u: coefficient(rng) for u in monomials(n, k)}


def sym_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    return rows


def quadratic_of(a: list[list[Fraction]]) -> dict:
    """X A X^T as a term map."""
    n = len(a)
    out = {}
    for i in range(n):
        for j in range(i, n):
            c = a[i][j] if i == j else 2 * a[i][j]
            if c:
                u = [0] * n
                u[i] += 1
                u[j] += 1
                out[tuple(u)] = c
    return out


def orthogonal_spec(rng: random.Random, n: int) -> tuple:
    """Draws for `orthogonal_matrix`: a signed permutation and n+1 planar rotations.

    The rotation planes cycle through (1,2), (2,3), ..., (n,1) and the
    half-angle tangents t avoid 0 and +-1 (which give the identity or a
    quarter turn), so every spec of size n has the same nonzero pattern and
    the substitutions it induces cost about the same.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rotations = []
    for k in range(n + 1 if n >= 2 else 0):
        a, b = rng.sample(range(1, 7), 2)
        rotations.append((*sorted((k % n, (k + 1) % n)), Fraction(rng.choice((1, -1)) * a, b)))
    return perm, signs, rotations


def orthogonal_matrix(spec: tuple) -> list[list[Fraction]]:
    """The exactly orthogonal matrix of a spec; rotations use rational cosine and sine."""
    perm, signs, rotations = spec
    n = len(perm)
    m = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        m[i][j] = Fraction(signs[j])
    for i, j, t in rotations:
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        for row in m:  # right-multiply by the rotation in the (i, j) plane
            row[i], row[j] = c * row[i] + s * row[j], c * row[j] - s * row[i]
    return m


def to_residues(term_map: dict, p: int) -> dict:
    """Map Fraction coefficients into GF(p) residues, dropping those that vanish."""
    out = {}
    for u, c in term_map.items():
        r = c.numerator * pow(c.denominator, -1, p) % p
        if r:
            out[u] = r
    return out


def expression(term_map: dict) -> str:
    """Expression text the bideriv parser accepts; never starts with '-'."""
    items = sorted(term_map.items(), key=lambda kv: (kv[1] < 0, -sum(kv[0]), [-e for e in kv[0]]))
    out = ""
    for u, c in items:
        mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                        for i, e in enumerate(u, start=1) if e)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else f"{mag}")
        if not out:
            out = body if c > 0 else f"0 - {body}"
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _canonical(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bytes):
        return obj.decode()
    if isinstance(obj, dict):
        return sorted([_canonical(k), _canonical(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    return obj


def digest(obj) -> str:
    """Short SHA-256 of a canonical rendering of generated inputs."""
    text = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
