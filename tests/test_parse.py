"""Text grammar: parsing, printing, and round trips; the sparse parser
against the dense WeylElement-valued parser it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext
from ahweyl.fields import FieldSpec, QQ
from ahweyl.derivations import D_g, ad
from ahweyl import parse
from ahweyl.parse import (
    MAX_CELLS,
    MAX_DEGREE,
    ParseError,
    _tokenize,
    parse_center,
    parse_factors,
    parse_poly,
    parse_weyl,
)
from ahweyl.poly import Poly
from ahweyl.weyl import WeylElement

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
            return repeated_product(base, tok[1])
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
            return WeylElement.from_poly(Poly.constant(F, F.coerce(value)))
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


def oracle_weyl(text, field):
    atoms = {"x": WeylElement.x_power(field, 1), "y": WeylElement.y_power(field, 1)}
    return OracleParser(text, field, atoms).parse()


def oracle_poly(text, field, var="x"):
    value = OracleParser(text, field, {var: WeylElement.x_power(field, 1)}).parse()
    assert set(value.terms) <= {0}
    return value.coefficient(0)


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


def test_negative_exponent_is_a_parse_error():
    for parse in (parse_weyl, parse_poly):
        with pytest.raises(ParseError) as e:
            parse("x^-1", QQ)
        assert str(e.value) == "expected 'num', found '-' (at position 2)"


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
    assert parse._reordered_cells({(3, 0): 1, (3, 1): 1, (1, 2): 1}, {(1, 0): 1}, 3, 10**9) == 13
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
    assert parse._reordered_cells({(2000, 1): 1, (0, 2000): 1}, {(1, 0): 1}, field.characteristic, 10**9) == 4006
    # rows that many pairs of rows reach count once: 100 * 101 pairs of
    # rows, but 201 rows of the product, of at most two slots each
    monkeypatch.setattr(parse, "MAX_CELLS", 1000)
    ys = "+".join(f"y^{j}" for j in range(1, 101))
    got = parse_weyl(f"({ys})*(x + {ys})", field)
    assert got == parse_weyl(ys, field) * parse_weyl(f"x + {ys}", field)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.just(1), min_size=1, max_size=5),
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.just(1), min_size=1, max_size=5),
    st.sampled_from([0, 2, 3, 5]),
)
def test_reordering_bound_covers_the_product(a, b, p):
    # the bound covers every row the product keeps, at every characteristic
    F = FieldSpec(p) if p else QQ
    product = parse._from_weyl(parse._to_weyl(F, a) * parse._to_weyl(F, b))
    assert parse._reordered_cells(a, b, p, 10**9) >= parse._cells(product)


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
