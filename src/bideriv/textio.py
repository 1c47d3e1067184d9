"""Polynomial expression parsing and canonical formatting.

Grammar (whitespace-insensitive)::

    expr        := term (("+" | "-") term)*
    term        := factor ("*" factor)*
    factor      := ("+" | "-")? (coefficient
                                 | variable ("^" nat)?
                                 | "(" expr ")" ("^" nat)?)
    coefficient := nat ("/" nat)?
    variable    := "x" nat

Implicit multiplication is rejected ("2x1" is an error), which keeps
diagnostics crisp.  One optional sign per factor covers leading negatives
so that formatting round-trips.  Every failure raises
:class:`~bideriv.errors.ParseError` with the byte offset and the set of
tokens that would have been accepted; a configured degree guard raises
:class:`~bideriv.errors.DegreeGuardError` instead of attempting a huge
expansion.

Formatting emits terms in descending graded-lex order with exact
coefficients, so ``parse(format(f)) == f`` for every polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CoercionError, DegreeGuardError, ParseError
from .fields import QQ, Field, FpElement, scalar_to_str
from .poly import Monomial, Polynomial
from .verdicts import _Record, _set_field

__all__ = ["ParseContext", "format_polynomial", "parse_polynomial"]

_MAX_PAREN_DEPTH = 64


class ParseContext(_Record):
    """Ambient data for parsing: variable count, field, optional degree guard."""

    __slots__ = ("n", "field", "max_degree")

    def __init__(self, n: int, field: Field = QQ, max_degree: int | None = None):
        _set_field(self, "n", n)
        _set_field(self, "field", field)
        _set_field(self, "max_degree", max_degree)


class _Token(_Record):
    # kind is 'int', 'var', '+', '-', '*', '^', '/', '(', ')' or 'end'; pos a character offset
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: int | None, pos: int):
        _set_field(self, "kind", kind)
        _set_field(self, "value", value)
        _set_field(self, "pos", pos)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.text = text
        self.ctx = ctx
        self.tokens = self._tokenize(text)
        self.at = 0
        self.depth = 0

    # -- lexing --------------------------------------------------------

    def _fail(self, pos: int, message: str, expected: tuple[str, ...] = ()):
        raise ParseError(message, _byte_offset(self.text, pos), expected)

    def _read_int(self, text: str, start: int) -> tuple[int, int]:
        end = start
        while end < len(text) and text[end].isdigit():
            end += 1
        try:
            value = int(text[start:end])
        except ValueError:  # exceeds the interpreter's int-from-str digit limit
            self._fail(start, f"integer literal with {end - start} digits is too large")
        return value, end

    def _tokenize(self, text: str) -> list[_Token]:
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^/()":
                tokens.append(_Token(ch, None, i))
                i += 1
                continue
            if ch.isdigit():
                value, end = self._read_int(text, i)
                tokens.append(_Token("int", value, i))
                i = end
                continue
            if ch == "x":
                if i + 1 >= len(text) or not text[i + 1].isdigit():
                    self._fail(i + 1, "variable name needs an index", ("digit",))
                value, end = self._read_int(text, i + 1)
                tokens.append(_Token("var", value, i))
                i = end
                continue
            self._fail(i, f"unexpected character {ch!r}")
        tokens.append(_Token("end", None, len(text)))
        return tokens

    # -- token plumbing -------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self._fail(tok.pos, f"unexpected {self._describe(tok)}", expected)
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "end":
            return "end of input"
        if tok.kind == "int":
            return f"integer {tok.value}"
        if tok.kind == "var":
            return f"variable x{tok.value}"
        return f"'{tok.kind}'"

    # -- degree guard ----------------------------------------------------

    def _guard(self, p: Polynomial, pos: int) -> Polynomial:
        limit = self.ctx.max_degree
        if limit is not None:
            d = p.degree()
            if d is not None and d > limit:
                raise DegreeGuardError(
                    f"degree {d} exceeds the configured guard {limit}",
                    _byte_offset(self.text, pos),
                )
        return p

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self._fail(tok.pos, f"unexpected {self._describe(tok)}",
                       ("'*'", "'+'", "'-'", "end of input"))
        return p

    def expr(self) -> Polynomial:
        acc = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek().kind == "*":
            star = self.advance()
            acc = self._guard(acc * self.factor(), star.pos)
        return acc

    def factor(self) -> Polynomial:
        negate = False
        if self.peek().kind in "+-":
            negate = self.advance().kind == "-"
        tok = self.peek()
        if tok.kind == "int":
            p = self._coefficient()
        elif tok.kind == "var":
            p = self._variable()
        elif tok.kind == "(":
            p = self._parenthesized()
        else:
            self._fail(tok.pos, f"unexpected {self._describe(tok)}",
                       ("'('", "coefficient", "variable"))
        return -p if negate else p

    def _coefficient(self) -> Polynomial:
        tok = self.advance()
        value = Fraction(tok.value)
        if self.peek().kind == "/":
            self.advance()
            den = self.expect("int", ("denominator",))
            if den.value == 0:
                self._fail(den.pos, "zero denominator")
            value = Fraction(tok.value, den.value)
        try:
            c = self.ctx.field(value)
        except CoercionError as exc:
            self._fail(tok.pos, str(exc))
        return Polynomial.constant(self.ctx.n, c, self.ctx.field)

    def _variable(self) -> Polynomial:
        tok = self.advance()
        index = tok.value
        if index < 1 or index > self.ctx.n:
            self._fail(tok.pos,
                       f"variable x{index} out of range (1..{self.ctx.n} available)")
        exponent = 1
        if self.peek().kind == "^":
            self.advance()
            exponent = self.expect("int", ("exponent",)).value
        exps = tuple(exponent if j == index - 1 else 0 for j in range(self.ctx.n))
        return self._guard(Polynomial.monomial(self.ctx.n, exps, 1, self.ctx.field),
                           tok.pos)

    def _parenthesized(self) -> Polynomial:
        open_tok = self.advance()
        self.depth += 1
        if self.depth > _MAX_PAREN_DEPTH:
            self._fail(open_tok.pos, f"nesting deeper than {_MAX_PAREN_DEPTH}")
        p = self.expr()
        self.expect(")", ("')'",))
        self.depth -= 1
        if self.peek().kind == "^":
            caret = self.advance()
            exponent = self.expect("int", ("exponent",)).value
            limit = self.ctx.max_degree
            base_degree = p.degree()
            if (limit is not None and base_degree is not None
                    and base_degree * exponent > limit):
                raise DegreeGuardError(
                    f"power would reach degree {base_degree * exponent}, "
                    f"above the configured guard {limit}",
                    _byte_offset(self.text, caret.pos),
                )
            p = self._guard(p ** exponent, caret.pos)
        return p


def parse_polynomial(text: str, ctx: ParseContext) -> Polynomial:
    """Parse an expression into a canonical sparse polynomial."""
    return _Parser(text, ctx).parse()


def _format_monomial(u: Monomial) -> str:
    parts = []
    for i, e in enumerate(u, start=1):
        if e == 0:
            continue
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: graded-lex descending terms, exact coefficients.

    Inverse to :func:`parse_polynomial` over the same context.
    """
    if f.is_zero:
        return "0"
    pieces = []
    for u, c in f.sorted_terms():
        if isinstance(c, FpElement):
            negative, magnitude = False, c
        else:
            negative, magnitude = c < 0, abs(c)
        mono = _format_monomial(u)
        if not mono:
            body = scalar_to_str(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{scalar_to_str(magnitude)}*{mono}"
        pieces.append((negative, body))
    first_negative, first_body = pieces[0]
    out = ("-" if first_negative else "") + first_body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
