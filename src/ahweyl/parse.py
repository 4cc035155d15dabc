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

Evaluation is sparse: every value is a dict {(i, j): c} standing for the
sum of the c x^i y^j, each c a nonzero canonical scalar of the field.
Numbers are coerced once, where they are read. A sum adds the raw
coefficients of all its terms and reduces them once (`FieldSpec.reduce`),
dropping zeros; unary minus goes through the same reduction. A product
whose left factor has no y, or whose right factor has no x, is already in
normal order, x^i y^j * x^k y^l = x^(i+k) y^(j+l), and only adds exponents.
Any other product (`y*x`, `t2*t1`) is the Weyl product of `weyl`, the one
route that reorders. The power of a monomial c x^i or c y^j is c^n x^(in)
or c^n y^(jn); any other power is square-and-multiply through the same
product. The value becomes a `WeylElement` or `Poly` once, at the end, so
text in the printed normal form parses without a polynomial or Weyl product.

Each row of that value is dense in x, so a power or product whose x-degree
or y-degree would exceed `MAX_DEGREE` is refused before it is formed. Both
degrees add under the Weyl product (A_1 is a domain and reordering only
lowers them), so they are known from the operands. `MAX_DEGREE` bounds one
row, not how many there are, so the dense size of a value, the sum over its
rows of (row x-degree + 1), is bounded by `MAX_CELLS`. It is checked on the
final value, at the top-level term that takes it over the limit, and at the
'*' or '^' of a reordering product, before anything is made dense: on both
operands, and on a bound for the product taken row by row from their
exponents (`_reordered_cells`).
"""

from __future__ import annotations

from fractions import Fraction

from .centerpoly import CenterPoly
from .context import AhContext, NotCentral
from .fields import FieldSpec
from .poly import Poly
from .weyl import WeylElement


#: Largest x-degree or y-degree of a parsed value: about five times the x-degree
#: 200006 of zeta that analyze prints for h = x^2+1 at p = 100003. A dense
#: row of this degree takes 8 MB.
MAX_DEGREE = 10**6

#: Largest dense size of a parsed value or of an operand of a reordering
#: product: the sum over its rows of (row x-degree + 1). Two rows of degree
#: `MAX_DEGREE`, 16 MB.
MAX_CELLS = 2 * (MAX_DEGREE + 1)


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
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = int(text[i:j])
            den = None
            if j < n and text[j] == "/":
                k = j + 1
                m = k
                while m < n and text[m].isdecimal():
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


def _reduced(field: FieldSpec, raw: dict) -> dict:
    """The sparse value of raw sums and products of scalars: one reduction,
    zero coefficients dropped."""
    return {k: c for k, c in zip(raw, field.reduce(raw.values())) if c}


def _to_weyl(field: FieldSpec, value: dict) -> WeylElement:
    rows = {}  # y-degree -> {x-degree: coefficient}
    for (i, j), c in value.items():
        rows.setdefault(j, {})[i] = c
    return WeylElement._canonical(
        field, {j: Poly.from_coeff_dict(field, row) for j, row in rows.items()}
    )


def _degrees(value: dict):
    """(x-degree, y-degree) of a sparse value, (0, 0) for zero."""
    dx = dy = 0
    for i, j in value:
        if i > dx:
            dx = i
        if j > dy:
            dy = j
    return dx, dy


def _check_degree(degree: int, position: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_DEGREE}", position)


def _cells(value: dict) -> int:
    """Dense size of a sparse value: the sum over its rows of (row x-degree + 1)."""
    top = {}  # y-degree -> x-degree of the row
    for i, j in value:
        if i > top.get(j, -1):
            top[j] = i
    return sum(top.values()) + len(top)


def _check_cells(value: dict, what: str, position: int) -> None:
    if (cells := _cells(value)) > MAX_CELLS:
        raise ParseError(
            f"{what} takes {cells} coefficient slots, over the limit {MAX_CELLS}", position
        )


def _reordered_cells(a: dict, b: dict, p: int, limit: int) -> int:
    """An upper bound on the dense size of the product a * b, p the
    characteristic, or, once the bound passes `limit`, a number over it.

    x^i y^j * x^k y^l = sum over t <= T of C(j, t) k(k-1)...(k-t+1)
    x^(i+k-t) y^(j+l-t), where T = min(j, k) over Q. In characteristic p the
    falling factorial is 0 mod p once t > k mod p, and for t < p Lucas'
    theorem gives C(j, t) = C(j mod p, t) mod p, so T = min(j mod p, k mod p).
    So a row j of a, of x-degree d, and a row l of b, of x-degree e, reach
    the product's rows j + l - t with x-degree at most d + e - t, for t up
    to T taken over that pair of rows. Each row of the product is bounded by
    the largest of these, not by their sum, so rows that many pairs reach
    count once. The bound takes one step per pair of rows and t, no more
    than the product's own row convolutions.
    """
    def low(e):
        return e % p if p else e

    rows_a = {}  # y-degree -> x-degree
    for i, j in a:
        if i >= rows_a.get(j, 0):
            rows_a[j] = i
    rows_b = {}  # y-degree -> (x-degree, largest x-exponent mod p)
    for k, l in b:
        e, s = rows_b.get(l, (0, 0))
        rows_b[l] = (max(e, k), max(s, low(k)))
    width = {}  # y-degree of the product -> most slots that row may take
    total = 0
    for j, d in rows_a.items():
        for l, (e, s) in rows_b.items():
            for t in range(min(low(j), s) + 1):
                if (w := d + e - t + 1) > (old := width.get(m := j + l - t, 0)):
                    width[m] = w
                    total += w - old
                    if total > limit:
                        return total
    return total


def _from_weyl(w: WeylElement) -> dict:
    return {(i, j): c for j, r in w.terms.items() for i, c in enumerate(r.coeffs) if c}


class _Parser:
    """Recursive descent over the grammar above, evaluating sparse values."""

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
        value, crossing = self.expr(track=True)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        _check_cells(value, "the value", crossing)
        return value

    def expr(self, track=False):
        """A sum, reduced once. With `track`, also the position of the first
        term with which the dense size of the partial sums, cancellation
        ignored, exceeds `MAX_CELLS` (None if it never does): that size
        never falls and ends at or above the value's own."""
        raw = {}  # (i, j) -> raw sum of the coefficients of every term
        top, cells, crossing = {}, 0, None  # row x-degrees of the partial sums
        op = self.advance()[0] if self.peek()[0] == "-" else "+"
        while True:
            position = self.peek()[2]
            for k, c in self.term().items():
                if op == "-":
                    c = -c
                raw[k] = raw[k] + c if k in raw else c
                if track and k[0] > (old := top.get(k[1], -1)):
                    top[k[1]] = k[0]
                    cells += k[0] - old
            if crossing is None and cells > MAX_CELLS:
                crossing = position
            if self.peek()[0] not in ("+", "-"):
                value = _reduced(self.field, raw)
                return (value, crossing) if track else value
            op = self.advance()[0]

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            position = self.advance()[2]
            right = self.factor()
            (i, j), (k, l) = _degrees(value), _degrees(right)
            _check_degree(max(i + k, j + l), position)
            value = self.mul(value, right, position)
        return value

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            if not isinstance(tok[1], int) or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            _check_degree(tok[1] * max(_degrees(base)), tok[2])
            return self.power(base, tok[1], tok[2])
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
            c = F.coerce(value)
            return {(0, 0): c} if c else {}
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
            return _reduced(self.field, {k: -c for k, c in self.factor().items()})
        raise ParseError(f"unexpected token {value!r}", pos)

    def mul(self, a: dict, b: dict, position: int) -> dict:
        F = self.field
        if any(j for _, j in a) and any(i for i, _ in b):
            for operand in (a, b):
                _check_cells(operand, "an operand of a reordering product", position)
            if _reordered_cells(a, b, F.characteristic, MAX_CELLS) > MAX_CELLS:
                raise ParseError(
                    "a reordering product may take more coefficient slots than the"
                    f" limit {MAX_CELLS}",
                    position,
                )
            return _from_weyl(_to_weyl(F, a) * _to_weyl(F, b))
        raw = {}  # normal order: x^i y^j * x^k y^l = x^(i+k) y^(j+l)
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                key = (i + k, j + l)
                raw[key] = raw[key] + c * d if key in raw else c * d
        return _reduced(F, raw)

    def power(self, base: dict, n: int, position: int) -> dict:
        if len(base) == 1:
            (((i, j), c),) = base.items()
            if i == 0 or j == 0:  # c^n x^(in) y^(jn); c^n mod p by pow, however large n is
                p = self.field.characteristic
                return {(i * n, j * n): pow(c, n, p) if p else c**n}
        out = {(0, 0): self.field.one()}
        while n:
            if n & 1:
                out = self.mul(out, base, position)
            n >>= 1
            if n:
                base = self.mul(base, base, position)
        return out


def parse_weyl(text: str, field: FieldSpec) -> WeylElement:
    one = field.one()
    atoms = {"x": {(1, 0): one}, "y": {(0, 1): one}}
    return _to_weyl(field, _Parser(text, field, atoms).parse())


def parse_poly(text: str, field: FieldSpec, var: str = "x") -> Poly:
    value = _Parser(text, field, {var: {(1, 0): field.one()}}).parse()
    return Poly.from_coeff_dict(field, {i: c for (i, _), c in value.items()})


def parse_center(text: str, ctx: AhContext) -> CenterPoly:
    """Parse an element of F[t1, t2], resolved through the context."""
    atoms = {
        "t1": {(ctx.p, 0): ctx.field.one()},
        "t2": _from_weyl(ctx.zeta_element()),
    }
    value = _to_weyl(ctx.field, _Parser(text, ctx.field, atoms).parse())
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
        base, mult = None, 1
        head, sep, tail = chunk.rpartition("^")
        if sep and tail.strip().isdecimal() and head.strip():
            try:
                base, mult = parse_poly(head.strip(), field), int(tail)
            except ParseError:
                pass  # the '^' belongs to the polynomial itself
        if base is None:
            base = parse_poly(chunk, field)
        out.append((base, mult))
    return out
