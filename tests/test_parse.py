"""Text grammar: parsing, printing, and round trips; the sparse parser
against the dense WeylElement-valued parser it replaced, the one-regex
tokenizer against the per-character loop it replaced, and the normal-form
reader against the recursive descent behind it."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext, NotCentralizing
from ahweyl.fields import FieldSpec, QQ
from ahweyl.derivations import D_g, ad
from ahweyl import parse
from ahweyl.parse import (
    MAX_CELLS,
    MAX_DEGREE,
    MAX_DIGITS,
    ParseError,
    _tokenize,
    parse_factors,
    parse_poly,
    parse_weyl,
)
from ahweyl.poly import Poly
from ahweyl.weyl import WeylElement

from test_printer import polys
from test_weyl import random_weyl, repeated_product

GF3 = FieldSpec(3)


class TestParsePoly:
    def test_spec_grammar_example(self):
        got = parse_poly("x^3 - 2*x + 1", QQ)
        assert got == Poly(QQ, [1, -2, 0, 1])

    def test_char_p_reduction_on_parse(self):
        assert parse_poly("5*x + 7", GF3) == Poly(GF3, [1, 2])

    def test_rationals(self):
        assert parse_poly("1/2*x - 3/4", QQ) == Poly(
            QQ, [__import__("fractions").Fraction(-3, 4), __import__("fractions").Fraction(1, 2)]
        )

    def test_parentheses_and_products(self):
        assert parse_poly("(x+1)*(x-1)", QQ) == Poly(QQ, [-1, 0, 1])

    def test_u_variable(self):
        assert parse_poly("u^2 + 1", GF3, var="u") == Poly(GF3, [1, 0, 1])
        with pytest.raises(ParseError):
            parse_poly("x + 1", GF3, var="u")

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_poly("x + @", QQ)
        assert e.value.position == 4

    def test_y_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x*y", QQ)


class TestParseWeyl:
    def test_spec_shape(self):
        got = parse_weyl("(x^2+1)*y^3 + 2*x*y + 5", QQ)
        want = WeylElement(
            QQ,
            {
                3: Poly(QQ, [1, 0, 1]),
                1: Poly(QQ, [0, 2]),
                0: Poly(QQ, [5]),
            },
        )
        assert got == want

    def test_reorders_yx(self):
        got = parse_weyl("y*x", QQ)
        assert got == WeylElement(QQ, {1: Poly.x(QQ), 0: Poly.one(QQ)})

    def test_negative_leading(self):
        got = parse_weyl("-x^2*y + 1", QQ)
        assert got.coefficient(1) == Poly(QQ, [0, 0, -1])


class TestRoundTrip:
    @pytest.mark.parametrize("field", [QQ, GF3, FieldSpec(5)])
    def test_poly_roundtrip(self, field):
        rng = random.Random(70)
        for _ in range(40):
            deg = rng.randrange(0, 8)
            if field.is_char_zero:
                coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
            else:
                coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
            f = Poly(field, coeffs)
            assert parse_poly(str(f), field) == f

    def test_poly_with_fractions_roundtrip(self):
        from fractions import Fraction

        f = Poly(QQ, [Fraction(1, 2), Fraction(-3, 7), 0, 2])
        assert parse_poly(str(f), QQ) == f

    @pytest.mark.parametrize("field", [QQ, GF3])
    def test_weyl_roundtrip(self, field):
        rng = random.Random(71)
        for _ in range(40):
            terms = {}
            for i in range(rng.randrange(1, 5)):
                deg = rng.randrange(-1, 5)
                if deg < 0:
                    continue
                if field.is_char_zero:
                    coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
                else:
                    coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
                terms[i] = Poly(field, coeffs)
            a = WeylElement(field, terms)
            assert parse_weyl(str(a), field) == a

    def test_center_roundtrip(self):
        ctx = AhContext(Poly(GF3, [0, 1, 1]))
        rng = random.Random(72)
        for _ in range(15):
            z = CenterPoly(
                GF3,
                {(rng.randrange(3), rng.randrange(3)): rng.randrange(3) for _ in range(4)},
            )
            assert parse_center(str(z), ctx) == z


class TestParseFactors:
    def test_powers(self):
        got = parse_factors("x^2,x-1", QQ)
        assert got == [(Poly.x(QQ), 2), (Poly(QQ, [-1, 1]), 1)]

    def test_compound_base(self):
        got = parse_factors("(x^2+1)^3", QQ)
        assert got == [(Poly(QQ, [1, 0, 1]), 3)]

    def test_power_inside_poly(self):
        got = parse_factors("x^2+1", QQ)
        assert got == [(Poly(QQ, [1, 0, 1]), 1)]

    def test_multiplicity_over_the_digit_limit(self):
        # refused before int() reads it, as a number literal, at its position in the list
        assert parse_factors(f"x^{'9' * MAX_DIGITS}", QQ) == [(Poly.x(QQ), int("9" * MAX_DIGITS))]
        over = "9" * (MAX_DIGITS + 1)
        for text, position in [(f"x^{over}", 2), (f"x-1, (x+1)^ {over}", 12)]:
            with pytest.raises(ParseError) as e:
                parse_factors(text, QQ)
            assert str(e.value) == (
                f"number literal of {MAX_DIGITS + 1} digits exceeds the limit {MAX_DIGITS}"
                f" (at position {position})"
            )


# -- the dense parser as an oracle -------------------------------------------------------


class OracleParser:
    """The parser before sparse evaluation: every value a WeylElement, every
    product the general Weyl product, every sum rebuilt term by term, and a
    power multiplied out factor by factor."""

    def __init__(self, text, field, atoms):
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
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
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
            return repeated_product(base, tok[1])
        return base

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            F = self.field
            num, den = map(int, value.split("/")) if isinstance(value, str) else (value, 1)
            if not F.is_char_zero and den % F.p == 0:
                raise ParseError(
                    f"denominator {den} of {value} is divisible by the characteristic {F.p}",
                    pos,
                )
            return WeylElement.from_poly(Poly.constant(F, F.coerce(Fraction(num, den))))
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
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def oracle_weyl(text, field):
    atoms = {"x": WeylElement.x_power(field, 1), "y": WeylElement.y_power(field, 1)}
    return OracleParser(text, field, atoms).parse()


def oracle_poly(text, field, var="x"):
    value = OracleParser(text, field, {var: WeylElement.x_power(field, 1)}).parse()
    assert set(value.terms) <= {0}
    return value.coefficient(0)


def parse_center(text, ctx):
    """An element of F[t1, t2] in the sparse parser, resolved through the
    context: t1 = x^p and t2 = zeta, read back by `center_coords`. No
    command reads center text; this is the sparse side of the center
    oracle below."""
    atoms = {"t1": {0: {ctx.p: 1}}, "t2": parse._from_weyl(ctx.zeta_element())}
    value = parse._weyl_from_rows(ctx.field, parse._Parser(text, ctx.field, atoms).parse())
    coords = ctx.center_coords(value)
    if isinstance(coords, NotCentralizing):
        raise ParseError(f"expression is not central: {coords.reason}", 0)
    return coords


def oracle_center(text, ctx):
    atoms = {
        "t1": WeylElement.from_poly(Poly.monomial(ctx.field, 1, ctx.p)),
        "t2": ctx.zeta_element(),
    }
    return ctx.center_coords(OracleParser(text, ctx.field, atoms).parse())


def assert_same_outcome(parse, oracle, text, *args):
    """Equal values, or ParseErrors with equal message and position."""
    try:
        want = oracle(text, *args)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse(text, *args)
        assert str(got.value) == str(e)
        assert got.value.position == e.position
        return None
    got = parse(text, *args)
    assert got == want
    return got


def assert_stored_form(polys, field):
    """Canonical scalars (Fractions over Q, ints in [0, p)), no zero Poly and
    no trailing zero."""
    for r in polys:
        assert r.coeffs and r.coeffs[-1]
        for c in r.coeffs:
            if field.is_char_zero:
                assert type(c) is Fraction
            else:
                assert type(c) is int and 0 <= c < field.p


FIELDS = [QQ, FieldSpec(2), GF3, FieldSpec(5), FieldSpec(7)]


@st.composite
def grammar_text(draw, names, max_exp=3, depth=2):
    """A random string of the grammar over `names`: unary minus in both
    places, nested parentheses, rational numbers and zero, powers, and
    factors in any order (so products such as y*x need reordering)."""

    def number():
        num = draw(st.integers(0, 12))
        if draw(st.booleans()):
            return str(num)
        return f"{num}/{draw(st.integers(1, 6))}"

    def atom(level):
        kinds = ["num", "name", "name"] + (["paren", "paren", "neg"] if level else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "num":
            return number()
        if kind == "name":
            return draw(st.sampled_from(names))
        if kind == "paren":
            return f"({expr(level - 1)})"
        return "-" + factor(level - 1)

    def factor(level):
        out = atom(level)
        if draw(st.booleans()):
            out += f"^{draw(st.integers(0, max_exp))}"
        return out

    def term(level):
        sep = draw(st.sampled_from(["*", " * "]))
        return sep.join(factor(level) for _ in range(draw(st.integers(1, 3))))

    def expr(level):
        out = draw(st.sampled_from(["", "-", "- "]))
        for k in range(draw(st.integers(1, 3))):
            if k:
                out += draw(st.sampled_from([" + ", " - ", "+", "-"]))
            out += term(level)
        return out

    return expr(depth)


@given(field=st.sampled_from(FIELDS), text=grammar_text(("x", "y")))
@example(field=QQ, text="y*x")
@example(field=GF3, text="y*x")
@example(field=QQ, text="(x*y + y)^3")
@example(field=FieldSpec(2), text="(x*y + y)^3")
@example(field=QQ, text="y^2*(x^3+1)")
@example(field=FieldSpec(5), text="y^2*(x^3+1)")
@example(field=QQ, text="x - x")
@example(field=GF3, text="3*x*y + 1/2 - 2/4")
@example(field=QQ, text="-(-(x - 1/2*y)*-y)^2 - 2/3*(y*x)")
@example(field=FieldSpec(7), text="-(-(x - 1/2*y)*-y)^2 - 2/3*(y*x)")
@example(field=GF3, text="1/3*x")
@settings(max_examples=300, deadline=None)
def test_sparse_parser_matches_the_dense_oracle(field, text):
    got = assert_same_outcome(parse_weyl, oracle_weyl, text, field)
    if got is not None:
        assert_stored_form(got.terms.values(), field)


@given(
    field=st.sampled_from(FIELDS),
    case=st.sampled_from(["x", "u"]).flatmap(lambda v: st.tuples(st.just(v), grammar_text((v,)))),
)
@example(field=QQ, case=("x", "x^2 - (x - 1/2)*(x + 1/2) - 1/4"))
@settings(max_examples=150, deadline=None)
def test_sparse_poly_parser_matches_the_dense_oracle(field, case):
    var, text = case
    got = assert_same_outcome(parse_poly, oracle_poly, text, field, var)
    if got:
        assert_stored_form([got], field)


CENTER_CTX = AhContext(Poly(GF3, [0, 1, 1]))


@given(text=grammar_text(("t1", "t2"), max_exp=2, depth=1))
@example(text="t2*t1 - t1*t2 + t2^2*t1")
@settings(max_examples=60, deadline=None)
def test_sparse_center_parser_matches_the_dense_oracle(text):
    # t2 = h^p y^p, so t2*t1 reorders through the Weyl product
    assert_same_outcome(parse_center, oracle_center, text, CENTER_CTX)


MALFORMED = [
    ("1/3*x", GF3),  # a denominator divisible by p
    ("x + 2/15", FieldSpec(5)),
    ("x + 1/0", QQ),
    ("x + 1/", QQ),
    ("x + z", QQ),  # an unknown name
    ("x*y*t1", GF3),
    ("x y", QQ),  # a trailing token
    ("(x + 1))", GF3),
    ("x^1/2", QQ),  # a non-integer exponent
    ("x^4/2", GF3),
    ("x^-1", QQ),
    ("x^y", QQ),
    ("(x + 1", QQ),
    ("x + @", QQ),
    ("", QQ),
    ("*x", GF3),
    ("x + ", QQ),
]


@pytest.mark.parametrize("text,field", MALFORMED)
def test_malformed_input_errors_match_the_dense_oracle(text, field):
    with pytest.raises(ParseError):
        oracle_weyl(text, field)
    assert_same_outcome(parse_weyl, oracle_weyl, text, field)
    assert_same_outcome(parse_poly, oracle_poly, text, field)


@pytest.mark.parametrize(
    "text,p,literal,position",
    [
        ("3/3*x^2 + 1", 3, "3/3", 0),  # the reader's language: left to the descent
        ("6/3 + x", 3, "6/3", 0),
        ("2/6 + x", 3, "2/6", 0),
        ("x + 0/3", 3, "0/3", 4),
        ("(3/3)^2*x", 3, "3/3", 1),  # the descent alone
        ("x*y + 10/5", 5, "10/5", 6),
        ("(x + 5/15)*y", 5, "5/15", 5),
        ("y*x - 25/05", 5, "25/05", 6),
    ],
)
def test_denominator_divisible_by_p_as_written_is_an_error(text, p, literal, position):
    # a/b is tested as written, not reduced: 3/3 over GF(3) is refused, as 1/3 is
    field = FieldSpec(p)
    message = (
        f"denominator {int(literal.split('/')[1])} of {literal} is divisible by the"
        f" characteristic {p} (at position {position})"
    )
    parsers = [(parse_weyl, oracle_weyl)] + ([] if "y" in text else [(parse_poly, oracle_poly)])
    for parse_text, oracle in parsers:
        with pytest.raises(ParseError) as e:
            parse_text(text, field)
        assert (str(e.value), e.value.position) == (message, position)
        assert_same_outcome(parse_text, oracle, text, field)


def test_unreduced_literal_over_q_reads_as_its_value():
    assert parse_poly("3/3*x^2 + 1", QQ) == parse_poly("x^2 + 1", QQ)
    assert parse_poly("6/3 + x", QQ) == parse_poly("(3/3)^2*2 + x", QQ) == parse_poly("2 + x", QQ)
    assert parse_weyl("2/6*y", QQ) == WeylElement.from_term(Poly.constant(QQ, Fraction(1, 3)), 1)


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("x^\u00b2", "unexpected character '\u00b2'", 2),  # a superscript two
        ("2/\u00b3*x", "expected digits after '/'", 2),
        ("x + \u00b9", "unexpected character '\u00b9'", 4),
    ],
)
def test_non_decimal_digits_are_parse_errors(text, message, position):
    # str.isdigit accepts superscripts, which int() rejects
    for parse in (parse_weyl, parse_poly):
        with pytest.raises(ParseError) as e:
            parse(text, QQ)
        assert str(e.value) == f"{message} (at position {position})"
    with pytest.raises(ParseError) as e:
        parse_factors(text, QQ)
    assert e.value.position == position


def tokenize_by_loop(text: str):
    """Oracle: the per-character loop that the one-regex `_tokenize`
    replaced, on `str.isspace`, `str.isdecimal`, `str.isalpha` and
    `str.isalnum` or '_'."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            parse._check_literal(j - i, i)
            num = int(text[i:j])
            den = None
            if j < n and text[j] == "/":
                k = j + 1
                m = k
                while m < n and text[m].isdecimal():
                    m += 1
                if m == k:
                    raise ParseError("expected digits after '/'", k)
                parse._check_literal(m - k, k)
                den = int(text[k:m])
                if den == 0:
                    raise ParseError("zero denominator", k)
                j = m
            tokens.append(("num", text[i:j] if den else num, i))
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


# characters on each side of every class boundary: a superscript, an
# Arabic-Indic digit, a letter with a combining accent, a Roman numeral, a
# vulgar fraction, a no-break space and stray symbols
TOKEN_CHARS = list("0123456789/+-*^() \t\nxyu_e\u00e9\u00b2\u0663\u0301\u00a0\u216b\u00bd\u00df!@.")


def long_digits(around):
    """Text from `around` on both sides of a run of digits at the literal
    limit or one past it, with or without a denominator."""
    return st.builds(
        lambda a, k, slash, b: a + "7" * k + slash + b,
        around,
        st.sampled_from([MAX_DIGITS, MAX_DIGITS + 1]),
        st.sampled_from(["", "/", "/3", "/0", "/" + "9" * (MAX_DIGITS + 1)]),
        around,
    )


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e), e.position


@given(
    text=st.one_of(
        st.text(st.sampled_from(TOKEN_CHARS), max_size=24),
        long_digits(st.text(st.sampled_from(TOKEN_CHARS), max_size=4)),
    )
)
@settings(max_examples=400, deadline=None)
@example(text="x\u00b2 + \u00b2x + _x + \u0663/\u0663 + 1/0")
@example(text="2/\u00b3*x")
def test_tokenizer_matches_the_loop_oracle(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(tokenize_by_loop, text)


def test_negative_exponent_is_a_parse_error():
    for parse in (parse_weyl, parse_poly):
        with pytest.raises(ParseError) as e:
            parse("x^-1", QQ)
        assert str(e.value) == "expected 'num', found '-' (at position 2)"


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unexpected end of input"),
        ("x +", "unexpected end of input"),
        ("x + ", "unexpected end of input"),
        ("x*", "unexpected end of input"),
        ("(", "unexpected end of input"),
        ("-", "unexpected end of input"),
        ("x^", "expected 'num', found end of input"),
    ],
)
def test_errors_at_the_end_of_input_name_it(text, message):
    # the position is the length of the text, trailing whitespace included
    for parse_text in (parse_weyl, parse_poly):
        with pytest.raises(ParseError) as e:
            parse_text(text, GF3)
        assert (str(e.value), e.value.position) == (f"{message} (at position {len(text)})", len(text))
    assert_same_outcome(parse_weyl, oracle_weyl, text, GF3)


@given(
    field=st.sampled_from(FIELDS),
    seed=st.integers(0, 2**32),
    n=st.integers(0, 7),
)
@settings(max_examples=80, deadline=None)
def test_power_closed_forms_match_repeated_products(field, seed, n):
    rng = random.Random(seed)
    r = random_weyl(rng, field, 0, 4, (1, 2, 3)).coefficient(0)
    if field.is_char_zero:
        c = Poly.constant(field, rng.choice([1, 2, -3, Fraction(-1, 2)]))
    else:
        c = Poly.constant(field, rng.randrange(1, field.p))
    bases = (
        WeylElement.from_poly(r),  # pure x, possibly zero
        WeylElement.from_term(c, rng.randrange(1, 5)),  # c y^i
        WeylElement.from_term(c, 0),
        WeylElement.from_term(Poly.x(field), 2),  # one term, not closed form
        random_weyl(rng, field, 2, 2, (1, 2, 3)),
    )
    for base in bases:
        got = parse_weyl(f"({base})^{n}", field)
        assert got == repeated_product(base, n)
        assert_stored_form(got.terms.values(), field)


@pytest.mark.parametrize("p", [0, 3])
def test_printed_normal_form_parses_without_products(p, monkeypatch):
    # D(x), D(yhat) of D_g + ad(a) with a in the normalizer, as classify
    # and bracket read them: sums of c x^i y^j and (r(x))*y^j
    field = FieldSpec(p)
    if p:
        h = Poly(field, [0, 1, 2, 1])  # x (x + 1)^2 over GF(3)
        g = Poly(field, [1, 0, 2, 1])
        r = Poly(field, [1, 2, 2])
    else:
        h = Poly(field, [Fraction(1, 2), 0, -3, 1])
        g = Poly(field, [Fraction(-1, 2), 0, 0, 1])
        r = Poly(field, [1, 2, Fraction(-1, 3)])
    ctx = AhContext(h)
    a = WeylElement.from_term(r * ctx.h_power(4), 4) + ctx.a_n_element(2)
    d = D_g(g, ctx) + ad(a, ctx)
    texts = [str(d.image_x), str(d.image_yhat)]
    assert all("y" in t and "(" in t for t in texts)
    calls = []
    for cls, name in ((WeylElement, "__mul__"), (Poly, "__mul__"), (Poly, "__pow__")):
        method = getattr(cls, name)

        def counted(self, other, method=method, name=f"{cls.__name__}.{name}"):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(cls, name, counted)
    got = [parse_weyl(t, field) for t in texts]
    monkeypatch.undo()
    assert not calls
    assert got == [d.image_x, d.image_yhat]


def test_scalar_power_mod_p_takes_a_large_exponent():
    F = FieldSpec(7)
    got = parse_weyl("3^100000000*y + (2*y)^5", F)
    assert got == WeylElement(F, {1: Poly.constant(F, pow(3, 10**8, 7)), 5: Poly.constant(F, 32)})


def test_dense_size_limit_on_each_side():
    # MAX_DEGREE bounds one row; MAX_CELLS bounds the sum over the rows of
    # (row x-degree + 1), here two rows of MAX_DEGREE + 1
    n = MAX_DEGREE
    assert MAX_CELLS == 2 * (n + 1)
    x_n = Poly.monomial(GF3, 1, n)
    assert parse_weyl(f"x^{n}*(1+y)", GF3) == WeylElement(GF3, {0: x_n, 1: x_n})
    for text, position, cells in [
        (f"x^{n}*(1+y) + y^2", 18, MAX_CELLS + 1),
        (f"y - x^{n}*(1+y+y^2)", 4, 3 * (n + 1)),
        # 47 characters asking for nine rows of 8 MB: refused at its first term
        ("x^1000000*(" + "+".join(f"y^{j}" for j in range(9)) + ")", 0, 9 * (n + 1)),
    ]:
        with pytest.raises(ParseError) as e:
            parse_weyl(text, GF3)
        assert e.value.position == position
        assert str(e.value) == (
            f"the value takes {cells} coefficient slots, over the limit {MAX_CELLS}"
            f" (at position {position})"
        )
    # a partial sum may pass the limit if the value itself does not
    assert parse_weyl(f"x^{n}*(1+y) + y^2 - y^2", GF3) == WeylElement(GF3, {0: x_n, 1: x_n})


def test_dense_size_limit_on_reordering_operands(monkeypatch):
    # each operand of a product that reorders is made dense: checked first,
    # at the '*' or '^'; the limit is lowered so no large row is built
    monkeypatch.setattr(parse, "MAX_CELLS", 10)
    # the left operand takes 4 + 4 + 2 = 10 slots; the product takes 13,
    # which is also the bound: rows 0, 1 and 2 of x-degree 4, 4 and 2
    with pytest.raises(ParseError) as e:
        parse_weyl("(x^3*(1+y) + x*y^2)*x - x^4*(1+y)", GF3)
    assert str(e.value) == (
        "a reordering product may take more coefficient slots than the limit 10 (at position 19)"
    )
    assert parse._reordered_cells({0: {3: 1}, 1: {3: 1}, 2: {1: 1}}, {0: {1: 1}}, 3, 10**9) == 13
    for text, position in [
        ("(x^3*(1+y) + x^2*y^2)*x", 21),  # 4 + 4 + 3 = 11 slots, at the '*'
        ("x*(x^3*(1+y) + x^2*y^2)^2", 24),  # the square of that operand, at the exponent
    ]:
        with pytest.raises(ParseError) as e:
            parse_weyl(text, GF3)
        assert e.value.position == position
        assert str(e.value) == (
            "an operand of a reordering product takes 11 coefficient slots, over the limit 10"
            f" (at position {position})"
        )


def test_dense_size_limit_on_reordering_products():
    # y^2 x^k = x^k y^2 + 2k x^(k-1) y + k(k-1) x^(k-2): 3k slots, which is
    # also the bound; the largest k within the limit parses, k + 1 is refused
    top = MAX_CELLS // 3
    F = FieldSpec(1000003)  # above k, so no term vanishes mod p
    got = parse_weyl(f"y^2*x^{top}", F)
    assert got.terms == {
        2: Poly.monomial(F, 1, top),
        1: Poly.monomial(F, 2 * top % F.p, top - 1),
        0: Poly.monomial(F, top * (top - 1) % F.p, top - 2),
    }
    message = f"a reordering product may take more coefficient slots than the limit {MAX_CELLS}"
    for field in (QQ, F):
        with pytest.raises(ParseError) as e:
            parse_weyl(f"y^2*x^{top + 1}", field)
        assert str(e.value) == f"{message} (at position 3)"
    # y^n x^n reorders to depth n over Q and to depth n mod p over GF(p)
    n, p = 10**6, 10007
    for field in (QQ, FieldSpec(p)):
        with pytest.raises(ParseError) as e:
            parse_weyl(f"y^{n}*x^{n}", field)
        assert str(e.value) == f"{message} (at position 9)"
    # one row at p = 10007; 51 rows of x-degree at most 50 over Q
    assert parse_weyl(f"y^{p}*x^{p}", FieldSpec(p)) == WeylElement.from_term(Poly.monomial(FieldSpec(p), 1, p), p)
    ys = "+".join(f"y^{j}" for j in range(1, 51))
    xs = "+".join(f"x^{k}" for k in range(1, 51))
    got = parse_weyl(f"({ys})*({xs})", QQ)
    assert got == parse_weyl(ys, QQ) * parse_weyl(xs, QQ) and got.y_degree == 50


@pytest.mark.parametrize("field", [QQ, FieldSpec(10007)], ids=["Q", "GF10007"])
def test_reordering_bound_is_taken_row_by_row(field, monkeypatch):
    # one term's large x-degree and another term's low row are not paired:
    # x^2000 y x = x^2001 y + x^2000 and y^2000 x = x y^2000 + 2000 y^1999,
    # 2002 + 2001 + 2 + 1 slots, which is also the bound
    a, b = parse_weyl("x^2000*y + y^2000", field), parse_weyl("x", field)
    assert parse_weyl("(x^2000*y + y^2000)*x", field) == a * b
    assert parse._reordered_cells({1: {2000: 1}, 2000: {0: 1}}, {0: {1: 1}}, field.characteristic, 10**9) == 4006
    # rows that many pairs of rows reach count once: 100 * 101 pairs of
    # rows, but 201 rows of the product, of at most two slots each
    monkeypatch.setattr(parse, "MAX_CELLS", 1000)
    ys = "+".join(f"y^{j}" for j in range(1, 101))
    got = parse_weyl(f"({ys})*(x + {ys})", field)
    assert got == parse_weyl(ys, field) * parse_weyl(f"x + {ys}", field)


def rows_of(flat: dict) -> dict:
    """The rows {j: {i: c}} of a flat value {(i, j): c}."""
    rows = {}
    for (i, j), c in flat.items():
        rows.setdefault(j, {})[i] = c
    return rows


def flat_reordered_cells(a: dict, b: dict, p: int, limit: int) -> int:
    """Oracle: `_reordered_cells` on flat values {(i, j): c}, as the descent
    evaluated them before it adopted the reader's rows."""
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


def flat_values(i_max, j_max, size):
    return st.dictionaries(
        st.tuples(st.integers(0, i_max), st.integers(0, j_max)), st.just(1), min_size=1, max_size=size
    )


@settings(max_examples=200, deadline=None)
@given(flat_values(6, 6, 5), flat_values(6, 6, 5), st.sampled_from([0, 2, 3, 5]))
def test_reordering_bound_covers_the_product(a, b, p):
    # the bound covers every row the product keeps, at every characteristic
    F = FieldSpec(p) if p else QQ
    a, b = rows_of(a), rows_of(b)
    product = parse._from_weyl(parse._weyl_from_rows(F, a) * parse._weyl_from_rows(F, b))
    assert parse._reordered_cells(a, b, p, 10**9) >= parse._cells(product)


@settings(max_examples=300, deadline=None)
@given(flat_values(40, 9, 8), flat_values(40, 9, 8), st.sampled_from([0, 2, 3, 5]), st.integers(0, 300))
def test_reordering_bound_matches_the_flat_oracle(a, b, p, limit):
    # the same bound as on flat values, and the same refusals at any limit
    rows_a, rows_b = rows_of(a), rows_of(b)
    assert parse._reordered_cells(rows_a, rows_b, p, 10**9) == flat_reordered_cells(a, b, p, 10**9)
    got = parse._reordered_cells(rows_a, rows_b, p, limit) > limit
    assert got == (flat_reordered_cells(a, b, p, limit) > limit)


def test_degree_limit_on_each_side():
    top, over = MAX_DEGREE, MAX_DEGREE + 1
    assert parse_poly(f"x^{top}", QQ) == Poly.monomial(QQ, 1, top)
    assert parse_weyl(f"x^{top}*y^{top}", GF3) == WeylElement.from_term(Poly.monomial(GF3, 1, top), top)
    for text, position in [
        (f"x^{over}", 2),
        (f"2*y^{over} + x", 4),
        (f"(x+1)^{over}", 6),  # refused before any product is made
        (f"(x^2)^{top // 2 + 1}", 6),
        (f"x^{top}*x", 2 + len(str(top))),  # a product: at its '*'
        (f"y^{top - 1}*(y+1)^2", 2 + len(str(top - 1))),
    ]:
        with pytest.raises(ParseError) as e:
            parse_weyl(text, QQ)
        assert e.value.position == position
        assert f"exceeds the limit {MAX_DEGREE}" in str(e.value)
    with pytest.raises(ParseError, match=f"degree 1000000000 exceeds the limit {MAX_DEGREE}"):
        parse_poly("x^1000000000", QQ)
    # a scalar power has degree 0, however large its exponent
    assert parse_weyl("3^100000000*y", FieldSpec(7)) == WeylElement.from_term(
        Poly.constant(FieldSpec(7), pow(3, 10**8, 7)), 1
    )


def test_digit_limit_on_each_side():
    # a literal is refused before int() reads it; over Q, the power c^n of a
    # monomial before it is formed, by the digits of its numerator and its
    # denominator; 2^14000 has 4215 digits and 2^15000 has 4516
    assert MAX_DIGITS == 4300
    top = "7" * MAX_DIGITS
    assert parse_poly(f"{top}*x", QQ) == Poly.monomial(QQ, int(top), 1)
    assert parse_poly(f"1/{top}", QQ) == Poly.constant(QQ, Fraction(1, int(top)))
    assert parse_poly("2^14000*x", QQ) == Poly.monomial(QQ, 2**14000, 1)
    assert parse_poly("(1/2)^14000", QQ) == Poly.constant(QQ, Fraction(1, 2**14000))
    assert parse_poly("(-3)^9012*x^2", QQ) == Poly.monomial(QQ, 3**9012, 2)  # 4300 digits
    over = "7" * (MAX_DIGITS + 1)
    literal = f"number literal of {MAX_DIGITS + 1} digits exceeds the limit {MAX_DIGITS}"
    for text, position, message in [
        (f"x + {over}", 4, literal),
        (f"x + 1/{over}", 6, literal),
        ("2^15000*x", 2, f"coefficient to the power 15000 would take more than {MAX_DIGITS} digits"),
        ("(1/2)^15000", 6, f"coefficient to the power 15000 would take more than {MAX_DIGITS} digits"),
        ("3^9013", 2, f"coefficient to the power 9013 would take more than {MAX_DIGITS} digits"),
        # refused before any power is formed, however large the exponent
        ("2^1000000000000*x", 2, "coefficient to the power 1000000000000 would take more"),
        ("(2^14000)^2", 10, "coefficient to the power 2 would take more"),
    ]:
        with pytest.raises(ParseError) as e:
            parse_poly(text, QQ)
        assert e.value.position == position
        assert message in str(e.value)
    # over GF(p), c^n mod p is small for any n
    assert parse_poly("2^1000000000000*x", GF3) == Poly.monomial(GF3, pow(2, 10**12, 3), 1)


def test_digit_limit_where_a_coefficient_is_made():
    # over Q each product, each step of a dense power and each sum checks the
    # coefficients it makes: 2^14284 has 4300 digits and 2^14285 has 4301
    assert parse_poly("2^7142*2^7142*x", QQ) == Poly.monomial(QQ, 2**14284, 1)
    assert parse_poly("(x+2^7142)^2", QQ) == Poly(QQ, [2**14284, 2**7143, 1])
    assert parse_poly("(1/2)^7142*(1/2)^7142", QQ) == Poly.constant(QQ, Fraction(1, 2**14284))
    assert parse_weyl("(2^7142*y)*x", QQ) == WeylElement(
        QQ, {1: Poly.monomial(QQ, 2**7142, 1), 0: Poly.constant(QQ, 2**7142)}
    )
    fours = "4" * MAX_DIGITS
    assert parse_poly(f"{fours}*x + {fours}*x", QQ) == Poly.monomial(QQ, 2 * int(fours), 1)
    sevens = "7" * MAX_DIGITS
    message = f"a coefficient would take more than {MAX_DIGITS} digits"
    for parse, text, position in [
        (parse_poly, "2^7142*2^7143*x", 6),
        (parse_poly, "2^14000*2^14000*x", 7),
        (parse_poly, "(x+2^14000)^2", 12),
        (parse_poly, "(x+2^7143)^2", 11),
        (parse_poly, "(1/2)^7142*(1/2)^7143", 10),
        (parse_weyl, "(2^7143*y)*(2^7142*x)", 10),
        (parse_poly, f"{sevens}*x + {sevens}*x", MAX_DIGITS + 5),
    ]:
        with pytest.raises(ParseError) as e:
            parse(text, QQ)
        assert (str(e.value), e.value.position) == (f"{message} (at position {position})", position)
    # over GF(p) a coefficient is below p, whatever its digits over Q
    assert parse_poly("2^14000*2^14000*x", GF3) == Poly.monomial(GF3, pow(2, 28000, 3), 1)


# -- the normal-form reader in front of the descent ----------------------------------------

WEYL_NAMES = ("x", "y")


def read(text, field, names):
    """The reader alone: the WeylElement (two names) or Poly (one) it reads,
    or None where it declines."""
    rows = parse._read_normal_form(text, field, names)
    if rows is None:
        return None
    if len(names) == 2:
        return parse._weyl_from_rows(field, rows)
    return Poly.from_coeff_dict(field, rows.get(0, {}))


def descend(text, field, names):
    """The recursive descent alone, as both parsers ran before the reader."""
    atoms = {"x": {0: {1: 1}}, "y": {1: {0: 1}}} if len(names) == 2 else {names[0]: {0: {1: 1}}}
    rows = parse._Parser(text, field, atoms).parse()
    if len(names) == 2:
        return parse._weyl_from_rows(field, rows)
    return Poly.from_coeff_dict(field, rows.get(0, {}))


def parse_with(text, field, names):
    return parse_weyl(text, field) if len(names) == 2 else parse_poly(text, field, names[0])


def oracle_with(text, field, names):
    return oracle_weyl(text, field) if len(names) == 2 else oracle_poly(text, field, names[0])


def assert_reader_agrees(text, field, names):
    """The reader never raises, and a value it reads is the descent's."""
    got = read(text, field, names)
    if got is not None:
        assert descend(text, field, names) == got


@st.composite
def printed_values(draw):
    """(field, value, printed text, names): a WeylElement or a Poly (over x
    or u) with fractional, negative leading, zero and one coefficients over
    Q, and exponents past p."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        w = WeylElement(field, draw(st.dictionaries(st.integers(0, 12), polys(field, 12), max_size=5)))
        return field, w, str(w), WEYL_NAMES
    var = draw(st.sampled_from(["x", "u"]))
    f = draw(polys(field, 12))
    return field, f, f.to_text(var), (var,)


@given(case=printed_values())
@example(case=(QQ, WeylElement.zero(QQ), "0", WEYL_NAMES))
@example(case=(FieldSpec(2), Poly.zero(FieldSpec(2)), "0", ("u",)))
@example(case=(QQ, parse_weyl("-1/2 + (-x + 3*x^9)*y^11", QQ), "-1/2 + (-x + 3*x^9)*y^11", WEYL_NAMES))
@settings(max_examples=300, deadline=None)
def test_reader_reads_every_printed_text(case):
    # a reader that declined printed text would fall back to the descent
    # and still parse it; this catches such a silent fallback
    field, value, text, names = case
    assert read(text, field, names) == value
    assert parse_with(text, field, names) == value


def spaced(text, draw):
    """text with whitespace drawn before each of its tokens and at its end,
    wherever `_tokenize` allows it."""
    out, last = [], 0
    for _, _, position in _tokenize(text):
        out.append(text[last:position])
        out.append(draw(st.sampled_from(["", "", " ", "  ", "\t", "\n ", "\u00a0"])))
        last = position
    return "".join(out)


@given(case=printed_values(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_reader_reads_printed_text_with_extra_whitespace(case, data):
    field, value, text, names = case
    text = spaced(text, data.draw)
    assert read(text, field, names) == value
    assert assert_same_outcome(parse_with, oracle_with, text, field, names) == value


@st.composite
def normal_form_text(draw, names):
    """Text in the reader's language over `names`, past what the printers
    write: repeated and zero terms, x^0, 1*x, a/b not in lowest terms,
    pieces in any order, rows in parentheses with y^0 or y^1; now and then
    with a suffix that may leave the language, such as '^2', ' + -1' or
    ' + y*x'."""
    x, *y = names

    def power_of(name):
        return name + draw(st.sampled_from(["", "^0", "^1", "^2", "^3", " ^ 7", "^11"]))

    def number():
        n = str(draw(st.integers(0, 12)))
        return n if draw(st.booleans()) else f"{n}/{draw(st.integers(1, 6))}"

    def monomial(names):
        parts = [number()] if draw(st.booleans()) else []
        parts += [power_of(name) for name in names if draw(st.booleans())]
        return draw(st.sampled_from(["*", " * "])).join(parts or [number()])

    def signed_sum(piece):
        out = draw(st.sampled_from(["", "-", "- "]))
        for k in range(draw(st.integers(1, 4))):
            if k:
                out += draw(st.sampled_from([" + ", " - ", "+", "-"]))
            out += piece()
        return out

    def piece():
        if y and draw(st.integers(0, 3)) == 0:
            return f"({signed_sum(lambda: monomial([x]))})*{power_of(y[0])}"
        return monomial(names)

    suffix = draw(st.sampled_from(["", "", "", "^2", " + -1", f" + {names[-1]}*{x}", " + 2x", "*(x+1)"]))
    return signed_sum(piece) + suffix


@given(
    field=st.sampled_from(FIELDS),
    case=st.sampled_from([WEYL_NAMES, ("x",), ("u",)]).flatmap(
        lambda names: st.tuples(st.just(names), normal_form_text(names))
    ),
)
@example(field=QQ, case=(WEYL_NAMES, "x*y - 2/4*x*y + (0*x + 1)*y - 1/2*y^1 - (1)*y + 0"))
@example(field=FieldSpec(2), case=(WEYL_NAMES, "(x + x)*y^0 - 3*x^0*y^0 + 1"))
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_descent_and_the_oracle(field, case):
    names, text = case
    assert_reader_agrees(text, field, names)
    assert_same_outcome(parse_with, oracle_with, text, field, names)


@given(
    field=st.sampled_from(FIELDS),
    text=st.one_of(
        grammar_text(WEYL_NAMES),
        st.text(st.sampled_from(TOKEN_CHARS), max_size=24),
        long_digits(st.text(st.sampled_from(TOKEN_CHARS), max_size=4)),
    ),
)
@settings(max_examples=300, deadline=None)
def test_reader_never_raises_and_agrees_with_the_descent(field, text):
    for names in (WEYL_NAMES, ("x",)):
        assert_reader_agrees(text, field, names)


FIVES = "5" * MAX_DIGITS  # twice it has MAX_DIGITS + 1 digits
TOP = MAX_DEGREE


@pytest.mark.parametrize(
    "text,field,names,outcome",
    [
        ("+x", QQ, WEYL_NAMES, ("unexpected token '+'", 0)),
        ("x + -1", QQ, WEYL_NAMES, "-1 + x"),
        ("x^2^3", QQ, WEYL_NAMES, ("unexpected trailing '^'", 3)),
        ("y*x", QQ, WEYL_NAMES, "1 + x*y"),
        ("2x", GF3, WEYL_NAMES, ("unexpected trailing 'x'", 1)),
        ("(x + 1)", QQ, WEYL_NAMES, "1 + x"),  # a row without its y^j
        ("(x + +1)*y", QQ, WEYL_NAMES, ("unexpected token '+'", 5)),
        (
            f"{'7' * (MAX_DIGITS + 1)}*x",
            QQ,
            WEYL_NAMES,
            (f"number literal of {MAX_DIGITS + 1} digits exceeds the limit {MAX_DIGITS}", 0),
        ),
        (
            f"y^{'0' * MAX_DIGITS}1",
            QQ,
            WEYL_NAMES,
            (f"number literal of {MAX_DIGITS + 1} digits exceeds the limit {MAX_DIGITS}", 2),
        ),
        (f"x^{TOP + 1}", QQ, ("x",), (f"degree {TOP + 1} exceeds the limit {TOP}", 2)),
        (f"(1 + x^{TOP + 1})*y", QQ, WEYL_NAMES, (f"degree {TOP + 1} exceeds the limit {TOP}", 7)),
        ("1/0", QQ, WEYL_NAMES, ("zero denominator", 2)),
        ("1/3*x", GF3, WEYL_NAMES, ("denominator 3 of 1/3 is divisible by the characteristic 3", 0)),
        ("x - 2/15*y", FieldSpec(5), WEYL_NAMES, ("denominator 15 of 2/15 is divisible by the characteristic 5", 4)),
        # the row's own sum is over the limit, though the whole text cancels to 0
        (
            f"({FIVES}*x + {FIVES}*x)*y - {FIVES}*x*y - {FIVES}*x*y",
            QQ,
            WEYL_NAMES,
            (f"a coefficient would take more than {MAX_DIGITS} digits", MAX_DIGITS + 6),
        ),
        # a row within the limit, and its sum with a term of the same y-degree over it
        (
            f"({FIVES}*x + 1)*y + {FIVES}*x*y",
            QQ,
            WEYL_NAMES,
            (f"a coefficient would take more than {MAX_DIGITS} digits", MAX_DIGITS + 13),
        ),
        (
            f"{FIVES}*x*y + ({FIVES}*x + 1)*y",
            QQ,
            WEYL_NAMES,
            (f"a coefficient would take more than {MAX_DIGITS} digits", MAX_DIGITS + 7),
        ),
        (
            f"{FIVES}*x + {FIVES}*x",
            QQ,
            ("x",),
            (f"a coefficient would take more than {MAX_DIGITS} digits", MAX_DIGITS + 5),
        ),
        ("x + y", QQ, ("x",), ("unknown name 'y'", 4)),
        ("u + x", QQ, ("u",), ("unknown name 'x'", 4)),
        (
            f"x^{TOP}*y + x^{TOP}*y^2 + 1",
            GF3,
            WEYL_NAMES,
            (f"the value takes {MAX_CELLS + 1} coefficient slots, over the limit {MAX_CELLS}", 30),
        ),
    ],
)
def test_reader_declines_and_the_descent_decides(text, field, names, outcome):
    assert parse._read_normal_form(text, field, names) is None
    if isinstance(outcome, str):
        assert parse_with(text, field, names) == parse_weyl(outcome, field)
        return
    message, position = outcome
    with pytest.raises(ParseError) as e:
        parse_with(text, field, names)
    assert (str(e.value), e.value.position) == (f"{message} (at position {position})", position)
