"""Text grammar for polynomials and Weyl elements.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | name | '(' expr ')'
    number := int ['/' int]          (rationals reduce mod p in char p; a
                                      denominator 0 or divisible by p, as
                                      written, is an error)

Recognized names depend on what is being parsed: `x` and `y` for Weyl
elements, a single variable (`x` or `u`) for polynomials. Errors carry the
offending position. Printing lives on the value classes (increasing-degree order);
everything printed re-parses to an equal value.

Two routes read text, and the input alone picks one. Printed text is
read in one regular pass per piece (`_read_normal_form`): the printers'
language is a signed sum of c*x^i, c*x^i*y^j, y^j and (signed sum of
c*x^i)*y^j, a compiled pattern matches one piece at a time, and each
coefficient goes straight into the raw dict of its row, with no token
list and no per-term value. The reader never raises: for any other text,
and wherever a check below could fire, it returns None, and the recursive
descent over the grammar above reads the text. So every error, with its
message and position, comes from the descent, and the descent alone reads
powers of sums, nesting, reordering products and hand-typed input.

The descent evaluates sparsely, on the reader's form: every value is its
rows {j: {i: c}} for the sum of the c x^i y^j, each c a nonzero scalar in
the field's raw form: a residue in [0, p) over GF(p); over Q a plain int,
or a `Fraction` where an `a/b` literal made one. A sum adds the raw
coefficients of all its terms and reduces each row once
(`FieldSpec.reduce`), dropping zeros and empty rows; unary minus
goes through the same reduction. A product whose left factor has no y, or
whose right factor has no x, is already in normal order, x^i y^j * x^k y^l
= x^(i+k) y^(j+l), and only adds exponents. Any other product (`y*x`) is
the Weyl product of `weyl`, the one route that reorders. The power of a
monomial c x^i or c y^j is c^n x^(in) or c^n y^(jn); any other power is
square-and-multiply through the same product. Scalars become canonical
once, where a value leaves the parser: as a `WeylElement` or `Poly` at the
end, and on the operands of the reordering product. Over Q each row is
then put over one denominator, the lcm of its literals' denominators,
straight from the raw ints and Fractions (`Poly.from_coeff_dict`), and
the product's rows come back as ints, with a `Fraction` only where a row
has a denominator. So text in normal order parses without a polynomial or
Weyl product on either route, and over Q without `Fraction` arithmetic
unless it has a rational literal.

The tokenizer is one compiled regex (`_TOKEN`), whose character classes
are exactly those of `str.isspace`, `str.isdecimal` and `str.isalnum`.

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

A scalar has no degree, so `MAX_DIGITS` bounds it instead: a number literal
longer than that is refused before `int()` reads it, and so is the power
c^n of a monomial over Q whose numerator or denominator would be longer.
Every other coefficient over Q is made by a sum or a product, and each is
checked as it is made, a dense power at each step. Over GF(p) coefficients
stay below p.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .fields import FieldSpec
from .poly import _DIGITS_BOUND, MAX_DIGITS, Poly, _stored
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
        self.message, self.position = message, position


def _check_literal(digits: int, position: int) -> None:
    if digits > MAX_DIGITS:
        raise ParseError(
            f"number literal of {digits} digits exceeds the limit {MAX_DIGITS}", position
        )


def _check_power_digits(c, n: int, position: int) -> None:
    """Refuse c^n over Q whose numerator or denominator would have more than
    `MAX_DIGITS` digits. Since |a|^n >= 2^(n (bits(a) - 1)) and
    2^(4 MAX_DIGITS) > 10^MAX_DIGITS, a large n is refused before any power
    is formed; below that, |a|^n has under 8 `MAX_DIGITS` bits and is
    compared exactly."""
    for a in (abs(c.numerator), c.denominator):
        if a > 1 and (n * (a.bit_length() - 1) >= 4 * MAX_DIGITS or a**n >= _DIGITS_BOUND):
            raise ParseError(
                f"coefficient to the power {n} would take more than {MAX_DIGITS} digits",
                position,
            )


def _checked_digits(field: FieldSpec, rows: dict, position: int) -> dict:
    """The value, refused over Q if a coefficient has a numerator or a
    denominator of more than `MAX_DIGITS` digits."""
    if field.is_char_zero and _over_digits(rows):
        raise ParseError(f"a coefficient would take more than {MAX_DIGITS} digits", position)
    return rows


def _over_digits(rows: dict) -> bool:
    """Whether a scalar over Q in `rows` has a numerator or a denominator
    of more than `MAX_DIGITS` digits."""
    return any(
        abs(c.numerator) >= _DIGITS_BOUND or c.denominator >= _DIGITS_BOUND
        for row in rows.values()
        for c in row.values()
    )


#: One token and the whitespace before it. Over str patterns \d is exactly
#: `str.isdecimal`, \w exactly `str.isalnum` or '_', and \s exactly
#: `str.isspace`. No class is `str.isalpha`, which a name starts with
#: (`[^\W\d_]` also takes '²'), so a \w run is a name only when its first
#: character is a letter; a decimal run is tried first. Every character
#: matches `.`, so the matches tile the text, and whitespace at its end is
#: one match of `.` alone.
_TOKEN = re.compile(r"(\s*)(?:([-+*^()])|(\d+)(/\d*)?|(\w+)|(.))", re.DOTALL)


def _tokenize(text: str):
    """[(kind, value, position)], closed by ("end", None, len(text)); a
    number literal is checked against `MAX_DIGITS` before `int()` reads it.
    The value of an integer literal is its int, that of a/b the text as
    written, unreduced, which `atom` reads as `_scalar` does."""
    tokens = []
    i = 0
    for space, op, num, den, name, other in _TOKEN.findall(text):
        i += len(space)
        if op:
            tokens.append((op, op, i))
            i += 1
        elif num:
            _check_literal(len(num), i)
            value = int(num)
            if den:
                k = i + len(num) + 1
                if len(den) == 1:
                    raise ParseError("expected digits after '/'", k)
                _check_literal(len(den) - 1, k)
                if not int(den[1:]):
                    raise ParseError("zero denominator", k)
                value = num + den
            tokens.append(("num", value, i))
            i += len(num) + len(den)
        elif name:
            if not name[0].isalpha():
                raise ParseError(f"unexpected character {name[0]!r}", i)
            tokens.append(("name", name, i))
            i += len(name)
        elif not other.isspace():
            raise ParseError(f"unexpected character {other!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _reduced(field: FieldSpec, raw: dict) -> dict:
    """The value of rows of raw sums and products of scalars: one reduction
    per row, zero coefficients and rows left empty dropped."""
    rows = {}
    for j, row in raw.items():
        if kept := {i: c for i, c in zip(row, field.reduce(row.values())) if c}:
            rows[j] = kept
    return rows


def _weyl_from_rows(field: FieldSpec, rows: dict) -> WeylElement:
    """The element of rows {y-degree: {x-degree: raw scalar}}; a row whose
    scalars are all zero is dropped."""
    terms = {}
    for j, row in rows.items():
        if r := Poly.from_coeff_dict(field, row):
            terms[j] = r
    return WeylElement._canonical(field, terms)


def _degrees(rows: dict):
    """(x-degree, y-degree) of a value, (0, 0) for zero."""
    return max(map(max, rows.values()), default=0), max(rows, default=0)


def _check_degree(degree: int, position: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_DEGREE}", position)


def _cells(rows: dict) -> int:
    """Dense size of a value: the sum over its rows of (row x-degree + 1)."""
    return sum(map(max, rows.values())) + len(rows)


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

    # y-degree of b -> (x-degree, largest x-exponent mod p)
    rows_b = {l: (max(row), max(map(low, row))) for l, row in b.items()}
    width = {}  # y-degree of the product -> most slots that row may take
    total = 0
    for j, row in a.items():
        d = max(row)
        for l, (e, s) in rows_b.items():
            for t in range(min(low(j), s) + 1):
                if (w := d + e - t + 1) > (old := width.get(m := j + l - t, 0)):
                    width[m] = w
                    total += w - old
                    if total > limit:
                        return total
    return total


def _from_weyl(w: WeylElement) -> dict:
    """The rows of w, each scalar in the raw form: over Q an int, or a
    `Fraction` where the row has a denominator."""
    rows = {}
    for j, r in w.terms.items():
        den, values = _stored(r)
        rows[j] = {i: c if den == 1 else Fraction(c, den) for i, c in enumerate(values) if c}
    return rows


class _Parser:
    """Recursive descent over the grammar above, evaluating sparse rows."""

    def __init__(self, text: str, field: FieldSpec, atoms: dict):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.p = field.characteristic
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
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
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
        raw = {}  # j -> i -> raw sum of the coefficients of every term
        top, cells, crossing = {}, 0, None  # row x-degrees of the partial sums
        op = self.advance()[0] if self.peek()[0] == "-" else "+"
        while True:
            position = self.peek()[2]
            for j, row in self.term().items():
                acc = raw.setdefault(j, {})
                for i, c in row.items():
                    if op == "-":
                        c = -c
                    acc[i] = acc[i] + c if i in acc else c
                if track and (d := max(row)) > (old := top.get(j, -1)):
                    top[j] = d
                    cells += d - old
            if crossing is None and cells > MAX_CELLS:
                crossing = position
            if self.peek()[0] not in ("+", "-"):
                value = _checked_digits(self.field, _reduced(self.field, raw), position)
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
        tok = self.advance()
        if tok[0] == "name":
            if tok[1] not in self.atoms:
                raise ParseError(f"unknown name {tok[1]!r}", tok[2])
            base = self.atoms[tok[1]]
        else:
            base = self.atom(tok)
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            if not isinstance(tok[1], int) or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            _check_degree(tok[1] * max(_degrees(base)), tok[2])
            return self.power(base, tok[1], tok[2])
        return base

    def atom(self, tok):
        """The value of a number, a parenthesized sum or a negated factor;
        `factor` reads names itself."""
        kind, value, pos = tok
        if kind == "num":
            p = self.p
            if type(value) is int:
                c = value % p if p else value
            else:
                num, den = value.split("/")
                if (c := _scalar(False, num, den, p)) is None:
                    raise ParseError(
                        f"denominator {int(den)} of {value} is divisible by the"
                        f" characteristic {p}",
                        pos,
                    )
            return {0: {0: c}} if c else {}
        if kind == "(":
            inner = self.expr()
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return inner
        if kind == "-":
            negated = {j: {i: -c for i, c in row.items()} for j, row in self.factor().items()}
            return _reduced(self.field, negated)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)

    def mul(self, a: dict, b: dict, position: int) -> dict:
        F = self.field
        if any(a) and any(map(max, b.values())):
            for operand in (a, b):
                _check_cells(operand, "an operand of a reordering product", position)
            if _reordered_cells(a, b, F.characteristic, MAX_CELLS) > MAX_CELLS:
                raise ParseError(
                    "a reordering product may take more coefficient slots than the"
                    f" limit {MAX_CELLS}",
                    position,
                )
            product = _weyl_from_rows(F, a) * _weyl_from_rows(F, b)
            return _checked_digits(F, _from_weyl(product), position)
        raw = {}  # normal order: x^i y^j * x^k y^l = x^(i+k) y^(j+l)
        for j, row_a in a.items():
            for l, row_b in b.items():
                acc = raw.setdefault(j + l, {})
                for i, c in row_a.items():
                    for k, d in row_b.items():
                        acc[i + k] = acc[i + k] + c * d if i + k in acc else c * d
        return _checked_digits(F, _reduced(F, raw), position)

    def power(self, base: dict, n: int, position: int) -> dict:
        if len(base) == 1:
            ((j, row),) = base.items()
            if len(row) == 1 and (j == 0 or 0 in row):
                # c^n x^(in) y^(jn); c^n mod p by pow, however large n is
                ((i, c),) = row.items()
                if self.p:
                    return {j * n: {i * n: pow(c, n, self.p)}}
                _check_power_digits(c, n, position)
                return {j * n: {i * n: c**n}}
        out = {0: {0: 1}}
        while n:
            if n & 1:
                out = self.mul(out, base, position)
            n >>= 1
            if n:
                base = self.mul(base, base, position)
        return out


# -- the printed normal form -------------------------------------------------------------


def _name_power(name: str, group: str) -> str:
    """The pattern of name or name^e, the name captured as `group`, then e."""
    return rf"(?P<{group}>{re.escape(name)})(?:\s*\^\s*(\d+))?"


@lru_cache(maxsize=8)  # names are few: (x, y), (x,) and (u,)
def _piece_patterns(names: tuple):
    """(monomial, row): the compiled patterns of one piece of the printed
    normal form over `names`, (x,) or (x, y), with the whitespace around it.

    `monomial` is an optional sign, then c*x^i*y^j, where the coefficient c
    (an int or a/b) and each power may be left out, but not all three, and
    a '*' stands before a power that follows a coefficient or a power. Its
    groups are (sign, c, b, x, i), then (y, j) with y. `row`, None without
    y, is an optional sign, a parenthesized text and then '*' y^j, with the
    groups (sign, text, y, j). Whitespace is \\s and digits are \\d, as in
    `_TOKEN`. Each piece after the first starts with a sign, so a name or a
    number that only starts a longer token of `_tokenize` ('x2', '2x')
    leaves text that no piece matches."""
    x, *y = names
    sign = r"\s*(?:([-+])\s*)?"  # no two \s* meet, so a failed match backtracks in linear time
    monomial = (
        rf"{sign}(?=\d|{'|'.join(map(re.escape, names))})(?:(?P<c>\d+)(?:/(\d+))?)?"
        rf"(?:(?(c)\s*\*\s*){_name_power(x, 'x')})?"
    )
    if not y:
        return re.compile(monomial + r"\s*"), None
    monomial += rf"(?:(?(c)\s*\*\s*|(?(x)\s*\*\s*)){_name_power(y[0], 'y')})?\s*"
    row = rf"{sign}\(([^()]*)\)\s*\*\s*{_name_power(y[0], 'y')}\s*"
    return re.compile(monomial), re.compile(row)


def _scalar(negative: bool, num, den, p: int):
    """The raw scalar of the coefficient num or num/den of a piece, 1 where
    it has none, negated with `negative`; None where the descent would
    refuse it: a literal over `MAX_DIGITS` digits, a zero denominator, or
    a denominator divisible by p, tested as written. `int()` reads only
    literals within the limit. The descent's `atom` reads an a/b literal
    here too."""
    if num is None:
        c = 1
    elif len(num) > MAX_DIGITS:
        return None
    elif den is None:
        c = int(num)
    elif len(den) > MAX_DIGITS or not (d := int(den)) or (p and d % p == 0):
        return None
    else:
        c = int(num) * pow(d, -1, p) if p else Fraction(int(num), d)
    if negative:
        c = -c
    return c % p if p else c


def _exponent(name, e) -> int:
    """The exponent of a power name^e in a piece: 0 where there is no name,
    1 where there is no '^', and -1 where the descent would refuse it: a
    literal over `MAX_DIGITS` digits or a degree over `MAX_DEGREE`."""
    if name is None:
        return 0
    if e is None:
        return 1
    return -1 if len(e) > MAX_DIGITS or (n := int(e)) > MAX_DEGREE else n


def _add(row: dict, i: int, c, p: int) -> bool:
    """row[i] += c, reduced mod p; True where row held i, so a sum was made."""
    if i not in row:
        row[i] = c
        return False
    row[i] = (row[i] + c) % p if p else row[i] + c
    return True


def _read_normal_form(text: str, field: FieldSpec, names: tuple):
    """The rows {y-degree: {x-degree: c}} of text in the language
    of the printers over `names`, (x,) or (x, y), each c a raw scalar,
    zeros kept; None for any other text.

    The language is regular: a signed sum of the pieces c*x^i, c*x^i*y^j,
    y^j and (signed sum of c*x^i)*y^j, of which `_piece_patterns` matches
    one at a time; the text in parentheses is read over (x,). Each
    coefficient is added straight into its row, with no token list and no
    descent. None also wherever a check of the descent could fire: on a
    literal or an exponent (`_scalar`, `_exponent`), on a sum over Q, in
    each parenthesized row and in the whole text, and on the dense size,
    taken with zeros counted, over `MAX_CELLS`. So every error, and every
    text outside the language, is left to the descent. Never raises."""
    p = field.characteristic
    monomial, parenthesized = _piece_patterns(names)
    rows, summed, pos = {}, False, 0
    while True:
        if m := monomial.match(text, pos):
            sign, num, den, xs, i, *y = m.groups()
            c, i, j = _scalar(sign == "-", num, den, p), _exponent(xs, i), _exponent(*y) if y else 0
            if c is None or i < 0 or j < 0:
                return None
            summed |= _add(rows.setdefault(j, {}), i, c, p)
        elif parenthesized and (m := parenthesized.match(text, pos)):
            sign, inner, ys, j = m.groups()
            inner, j = _read_normal_form(inner, field, names[:1]), _exponent(ys, j)
            if inner is None or j < 0:
                return None
            row = inner[0]
            if sign == "-":
                row = {i: -c % p if p else -c for i, c in row.items()}
            if (old := rows.setdefault(j, row)) is not row:
                for i, c in row.items():
                    summed |= _add(old, i, c, p)
        else:
            return None
        if (sign == "+") if not pos else (sign is None):
            return None
        if (pos := m.end()) == len(text):
            break
    if summed and not p and _over_digits(rows):
        return None
    if _cells(rows) > MAX_CELLS:
        return None
    return rows


def parse_weyl(text: str, field: FieldSpec) -> WeylElement:
    rows = _read_normal_form(text, field, ("x", "y"))
    if rows is None:
        rows = _Parser(text, field, {"x": {0: {1: 1}}, "y": {1: {0: 1}}}).parse()
    return _weyl_from_rows(field, rows)


def parse_poly(text: str, field: FieldSpec, var: str = "x") -> Poly:
    rows = _read_normal_form(text, field, (var,))
    if rows is None:
        rows = _Parser(text, field, {var: {0: {1: 1}}}).parse()
    return Poly.from_coeff_dict(field, rows.get(0, {}))


def parse_factors(text: str, field: FieldSpec):
    """Factor list syntax: comma-separated `poly` or `poly^mult` entries,
    e.g. "x^2,x-1"; the power after the last '^' is the multiplicity, a
    number literal under the same `MAX_DIGITS` limit. An error's position
    is counted in the whole text."""
    out = []
    for entry in re.finditer(r"[^,\s][^,]*", text):  # from its first non-space
        try:
            out.append(_parse_factor(entry[0].rstrip(), field))
        except ParseError as exc:
            raise ParseError(exc.message, entry.start() + exc.position) from None
    return out


def _parse_factor(chunk: str, field: FieldSpec):
    """One stripped `poly` or `poly^mult` entry, as (poly, mult)."""
    head, sep, tail = chunk.rpartition("^")
    if sep and (digits := tail.strip()).isdecimal() and head.strip():
        _check_literal(len(digits), len(chunk) - len(digits))
        try:
            return parse_poly(head.strip(), field), int(digits)
        except ParseError:
            pass  # the '^' belongs to the polynomial itself
    return parse_poly(chunk, field), 1
