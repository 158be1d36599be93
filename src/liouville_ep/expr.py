"""Parsing and printing of exact polynomial expressions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' uint)?
    base   := number | 'i' | identifier | '(' expr ')'

Numbers are unsigned integer or decimal literals of ASCII digits with an
optional exponent ('e' or 'E', an optional sign, at most four digits: 1e-400,
2.5E3); they are parsed as exact rationals (0.25 -> 1/4, 1e-3 -> 1/1000).  A
longer exponent is an error at the literal, as is a literal of more than 4300
characters, so no literal's value has more than about 14,300 digits; a digit
outside ASCII, such as '\u0663' or '\u00b2', is an unexpected character.  A
power's exponent is an unsigned integer literal with no point or exponent
('x^1e3' is an error), and a power past a bound on its degree, terms or bits
is an error at its exponent, found before it is expanded.  An identifier is a letter or '_' followed by letters, digits and
'_'.  A leading minus negates the whole power after it, so -x^2 is -(x^2)
and -2^2 is -4.  'i' is the imaginary unit and is reserved.  Division is
only allowed by subexpressions that reduce to nonzero constants.

Parsing is one pass with no syntax tree: each grammar rule returns the
polynomial of the text it consumed.  The tokenizer runs first, one walk of a
single pattern of the grammar's tokens, so a bad character is reported before
anything else; after that, syntax errors, unknown variables and invalid
divisions are reported left to right.  Every error carries the character
offset (not the byte offset) of the offending token.

The printer emits a canonical form (graded-lexicographic term order, highest
first) that parses back to the identical polynomial.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .poly import GR_ONE, GaussRational, MultiPoly


class ParseError(ValueError):
    """Syntax or semantic error in an expression string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# -- tokenizer ---------------------------------------------------------------

# the grammar's tokens, one alternative each; a word's first character must
# be a letter or '_', which the tokenizer checks
_TOKENS = re.compile(
    r"(?P<num>[0-9]+(?P<point>\.[0-9]*)?(?:[eE][-+]?(?P<exp>[0-9]+))?)"
    r"|(?P<ident>\w+)|(?P<punct>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)"
)
# digits an exponent literal may have: 10^9999 is still quick to build
_EXPONENT_DIGITS = 4
# characters a number literal may have, Python's default limit on the digits
# of an int read from text, held here so it does not depend on the interpreter
_LITERAL_CHARS = 4300
# bounds on a power, checked before it is expanded: its total degree, its
# terms, and its terms times the bits of a coefficient
_POWER_DEGREE = 1 << 8
_POWER_TERMS = 1 << 11
_POWER_BITS = 1 << 18


class _Token(NamedTuple):
    kind: str  # 'num' | 'ident' | one of + - * / ^ ( ) | 'end'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKENS.finditer(src):
        kind = m.lastgroup
        if kind == "space":
            continue
        text, offset = m.group(), m.start()
        if kind == "num":
            if m["point"] == ".":
                raise ParseError("digit expected after decimal point", m.end("point"))
            if m["exp"] and len(m["exp"]) > _EXPONENT_DIGITS:
                raise ParseError(f"exponent of more than {_EXPONENT_DIGITS} digits", offset)
            if len(text) > _LITERAL_CHARS:
                raise ParseError(f"number of more than {_LITERAL_CHARS} characters", offset)
        elif kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", offset)
        tokens.append(_Token(text if kind == "punct" else kind, text, offset))
    tokens.append(_Token("end", "", len(src)))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    """Recursive descent over the token list; each grammar method returns the
    MultiPoly of the text it consumed, so errors surface left to right."""

    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.offset)
        return poly

    def expr(self) -> MultiPoly:
        poly = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            poly = poly + rhs if op.kind == "+" else poly - rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "*":
                poly = poly * rhs
            elif not rhs.is_constant():
                raise ParseError("division only by constant subexpressions", op.offset)
            elif rhs.is_zero():
                raise ParseError("division by zero", op.offset)
            else:
                poly = poly.scale(GR_ONE / rhs.constant_value())
        return poly

    def factor(self) -> MultiPoly:
        if self.peek().kind == "-":
            self.advance()
            return -self.factor()
        poly = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ParseError("exponent must be an unsigned integer", tok.offset)
            self.advance()
            k = _number(tok).numerator
            _check_power(poly, k, tok.offset)
            poly = poly**k
        return poly

    def base(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return MultiPoly.constant(self.variables, _number(tok))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return MultiPoly.constant(self.variables, GaussRational.of(0, 1))
            if tok.text not in self.variables:
                raise ParseError(f"unknown variable {tok.text!r}", tok.offset)
            return MultiPoly.variable(self.variables, tok.text)
        if tok.kind == "(":
            self.advance()
            poly = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.offset)
            self.advance()
            return poly
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def _number(tok: _Token) -> Fraction:
    """The exact value of a number token; past the interpreter's own limit on
    the digits of an int read from text (PYTHONINTMAXSTRDIGITS), which may
    be lower than _LITERAL_CHARS, an error at the literal."""
    try:
        return Fraction(tok.text)
    except ValueError:
        raise ParseError("number of more digits than this interpreter reads", tok.offset) from None


def _check_power(poly: MultiPoly, k: int, offset: int) -> None:
    """Refuse poly^k, with a ParseError at the exponent's `offset`, before it
    is expanded: when its total degree would pass _POWER_DEGREE, its terms
    _POWER_TERMS, or its terms times the bits of a coefficient _POWER_BITS.

    The terms are at most the monomials of the power's degree in the
    variables poly uses, and at most the multisets of k of poly's terms.
    Over its common denominator D, poly is P/D with Gaussian-integer
    coefficients whose real and imaginary parts sum to S in absolute value,
    so a coefficient of P^k is at most S^k and D^k is the power's
    denominator: a coefficient takes about k*log2(max(S, D)) bits, counted
    as k times the floor of that logarithm, so 1, -1 and i have every power.
    """
    coefficients = poly.terms.values()
    denom = math.lcm(*(c.d for c in coefficients))
    size = sum((abs(c.a) + abs(c.b)) * (denom // c.d) for c in coefficients)
    bits = k * (max(size, denom).bit_length() - 1)
    degree = poly.degree()
    terms = 1
    if degree > 0:
        if k * degree > _POWER_DEGREE:
            raise ParseError(f"power of total degree above {_POWER_DEGREE}", offset)
        used = sum(any(e[i] for e in poly.terms) for i in range(len(poly.vars)))
        count = len(poly.terms)
        terms = min(math.comb(k * degree + used, used), math.comb(k + count - 1, count - 1))
        if terms > _POWER_TERMS:
            raise ParseError(f"power of more than {_POWER_TERMS} terms", offset)
    if terms * bits > _POWER_BITS:
        raise ParseError(f"power of more than {_POWER_BITS} bits", offset)


def parse_expression(source: str, variables: Sequence[str]) -> MultiPoly:
    """Parse an expression string into an exact polynomial.

    `variables` is the full ambient variable list; identifiers outside it are
    rejected ('i' is always the imaginary unit and cannot be a variable name).
    """
    vs = tuple(variables)
    if "i" in vs:
        raise ValueError("'i' is reserved for the imaginary unit")
    return _Parser(_tokenize(source), vs).parse()


# -- printer -----------------------------------------------------------------


def _coeff_prefix(c: GaussRational) -> str:
    """Render a coefficient as a standalone grammar factor (or factor chain)."""
    if c.re != 0 and c.im != 0:
        return f"({c})"
    return str(c)


def _monomial_factors(expo: tuple[int, ...], variables: tuple[str, ...]) -> list[str]:
    out = []
    for name, k in zip(variables, expo):
        if k == 1:
            out.append(name)
        elif k > 1:
            out.append(f"{name}^{k}")
    return out


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; graded-lex order, highest term first.

    Round-trip guarantee: parse_expression(format_poly(p), p.vars) == p.
    """
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    pieces: list[str] = []
    for position, (expo, coeff) in enumerate(items):
        factors = _monomial_factors(expo, p.vars)
        # sign handling: pull a leading real sign out so terms join with +/-
        negated = False
        if coeff.im == 0 and coeff.re < 0:
            coeff = -coeff
            negated = True
        elif coeff.re == 0 and coeff.im < 0:
            coeff = -coeff
            negated = True
        if not factors:
            body = _coeff_prefix(coeff)
        elif coeff == GR_ONE:
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_prefix(coeff)] + factors)
        if position == 0:
            if negated:
                # '-x^2' parses as -(x^2) too; the explicit coefficient on a
                # leading negative power keeps the canonical text unchanged
                if coeff == GR_ONE and factors and "^" in factors[0]:
                    body = "*".join(["1"] + factors)
                pieces.append("-" + body)
            else:
                pieces.append(body)
        else:
            pieces.append((" - " if negated else " + ") + body)
    return "".join(pieces)
