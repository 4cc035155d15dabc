"""Text grammar for polynomials, Weyl elements, and center polynomials.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | name | '(' expr ')'
    number := int ['/' int]          (rationals reduce mod p in char p; a
                                      denominator 0 or divisible by p is an error)

Recognized names depend on what is being parsed: `x` and `y` for Weyl
elements, a single variable (`x` or `u`) for polynomials, `t1`/`t2` for
center coordinates (resolved against a context). Errors carry the offending
position. Printing lives on the value classes (increasing-degree order);
everything printed re-parses to an equal value.
"""

from __future__ import annotations

from fractions import Fraction

from .centerpoly import CenterPoly
from .context import AhContext, NotCentral
from .fields import FieldSpec
from .poly import Poly
from .weyl import WeylElement


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = None
            if j < n and text[j] == "/":
                k = j + 1
                m = k
                while m < n and text[m].isdigit():
                    m += 1
                if m == k:
                    raise ParseError("expected digits after '/'", k)
                den = int(text[k:m])
                if den == 0:
                    raise ParseError("zero denominator", k)
                j = m
            tokens.append(("num", Fraction(num, den) if den else num, i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, field: FieldSpec, atoms: dict):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.atoms = atoms

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return value

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            if not isinstance(tok[1], int) or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            return base ** tok[1]
        return base

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            F = self.field
            den = value.denominator if isinstance(value, Fraction) else 1
            if not F.is_char_zero and den % F.p == 0:
                raise ParseError(
                    f"denominator {den} of {value} is divisible by the characteristic {F.p}",
                    pos,
                )
            return WeylElement.from_poly(
                Poly.constant(self.field, self.field.coerce(value))
            )
        if kind == "name":
            if value not in self.atoms:
                raise ParseError(f"unknown name {value!r}", pos)
            return self.atoms[value]
        if kind == "(":
            inner = self.expr()
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return inner
        if kind == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_weyl(text: str, field: FieldSpec) -> WeylElement:
    atoms = {
        "x": WeylElement.x_power(field, 1),
        "y": WeylElement.y_power(field, 1),
    }
    return _Parser(text, field, atoms).parse()


def parse_poly(text: str, field: FieldSpec, var: str = "x") -> Poly:
    atoms = {var: WeylElement.x_power(field, 1)}
    value = _Parser(text, field, atoms).parse()
    if any(i > 0 for i in value.terms):
        raise ParseError(f"'y' is not allowed in a polynomial in {var}", 0)
    return value.coefficient(0)


def parse_center(text: str, ctx: AhContext) -> CenterPoly:
    """Parse an element of F[t1, t2], resolved through the context."""
    atoms = {
        "t1": WeylElement.from_poly(Poly.monomial(ctx.field, 1, ctx.p)),
        "t2": ctx.zeta_element(),
    }
    value = _Parser(text, ctx.field, atoms).parse()
    coords = ctx.center_coords(value)
    if isinstance(coords, NotCentral):
        raise ParseError(f"expression is not central: {coords.reason}", 0)
    return coords


def parse_factors(text: str, field: FieldSpec):
    """Factor list syntax: comma-separated `poly` or `poly^mult` entries,
    e.g. "x^2,x-1"; the power after the last '^' is the multiplicity."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        base, mult = chunk, 1
        head, sep, tail = chunk.rpartition("^")
        if sep and tail.strip().isdigit() and head.strip():
            try:
                parse_poly(head.strip(), field)
            except ParseError:
                pass  # the '^' belongs to the polynomial itself
            else:
                base, mult = head.strip(), int(tail)
        out.append((parse_poly(base, field), mult))
    return out
