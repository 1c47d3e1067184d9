"""Reference polynomial arithmetic used as an independent witness.

Polynomials are dicts ``{exponent tuple: coefficient}`` with Fraction
coefficients over QQ, or int residues when a prime ``p`` is given.  The
code shares nothing with ``bideriv``; it reads library results only through
the public ``terms`` view.
"""

from __future__ import annotations

from fractions import Fraction


class Ref:
    def __init__(self, p: int | None = None):
        self.p = p

    def coerce(self, c):
        if self.p is None:
            return Fraction(c)
        if isinstance(c, Fraction):
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return c % self.p

    def norm(self, d: dict) -> dict:
        if self.p is None:
            return {u: c for u, c in d.items() if c}
        return {u: c % self.p for u, c in d.items() if c % self.p}

    def of(self, poly) -> dict:
        """Term map of a library polynomial."""
        return self.norm({tuple(u): self.coerce(getattr(c, "value", c))
                          for u, c in poly.terms.items()})

    def add(self, a: dict, b: dict, sign: int = 1) -> dict:
        out = dict(a)
        for u, c in b.items():
            out[u] = out.get(u, 0) + sign * c
        return self.norm(out)

    def scale(self, a: dict, c) -> dict:
        return self.norm({u: v * c for u, v in a.items()})

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for u, x in a.items():
            for v, y in b.items():
                w = tuple(i + j for i, j in zip(u, v))
                out[w] = out.get(w, 0) + x * y
        return self.norm(out)

    def deriv(self, a: dict, i: int) -> dict:
        out = {}
        for u, c in a.items():
            if u[i]:
                out[u[:i] + (u[i] - 1,) + u[i + 1:]] = c * u[i]
        return self.norm(out)

    def circ(self, a: dict, b: dict, n: int) -> dict:
        acc: dict = {}
        for i in range(n):
            acc = self.add(acc, self.mul(self.deriv(a, i), self.deriv(b, i)))
        return acc

    def substitute(self, f: dict, images: list, n: int) -> dict:
        """f(h1, ..., hn) by expanding each monomial as a product of image powers."""
        one = {(0,) * n: self.coerce(1)}
        acc: dict = {}
        for u, c in f.items():
            term = one
            for h, e in zip(images, u):
                for _ in range(e):
                    term = self.mul(term, h)
            acc = self.add(acc, self.scale(term, c))
        return acc
