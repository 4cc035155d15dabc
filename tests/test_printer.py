"""The per-field printing kernel of `Poly`, `WeylElement` and `CenterPoly`.

The oracle is the formatting the three printers had before they shared one
kernel: `Poly.to_text` through `_term_text` and `_scalar_is_negative`, the
rows of `WeylElement.to_text` through `_weyl_term_text`, and
`CenterPoly.to_text`, each with its own copy of the sign split and the
coefficient text, a power of each variable formatted per term.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahweyl.centerpoly import CenterPoly
from ahweyl.fields import QQ, FieldSpec
from ahweyl.poly import MAX_DIGITS, Poly, _monomials
from ahweyl.weyl import WeylElement

FIELDS = [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7)]
LIMIT = f"a computed coefficient takes more than {MAX_DIGITS} digits, the limit for printing"


# -- the oracle -------------------------------------------------------------------------


def oracle_scalar_is_negative(c) -> bool:
    return isinstance(c, (int, Fraction)) and c < 0


def oracle_term_text(mag, i: int, var: str) -> str:
    num, den = mag.numerator, mag.denominator
    if i == 0:
        return str(num) if den == 1 else f"{num}/{den}"
    xpart = var if i == 1 else f"{var}^{i}"
    if den == 1:
        return xpart if num == 1 else f"{num}*{xpart}"
    return f"{num}/{den}*{xpart}"


def oracle_poly_text(r: Poly, var: str = "x") -> str:
    if r.is_zero():
        return "0"
    pieces = [(i, c) for i, c in enumerate(r.coeffs) if c]
    out = []
    for idx, (i, c) in enumerate(pieces):
        neg = oracle_scalar_is_negative(c)
        body = oracle_term_text(-c if neg else c, i, var)
        if idx == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def oracle_weyl_term_text(r: Poly, i: int):
    if i == 0:
        txt = oracle_poly_text(r)
        if txt.startswith("-"):
            return True, txt[1:]
        return False, txt
    ymark = "y" if i == 1 else f"y^{i}"
    nonzero = [(k, c) for k, c in enumerate(r.coeffs) if c]
    if len(nonzero) == 1:
        k, c = nonzero[0]
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        parts = []
        if mag != 1:
            parts.append(str(mag))
        if k == 1:
            parts.append("x")
        elif k > 1:
            parts.append(f"x^{k}")
        parts.append(ymark)
        return neg, "*".join(parts)
    return False, f"({oracle_poly_text(r)})*{ymark}"


def oracle_join(pieces) -> str:
    out = ("-" + pieces[0][1]) if pieces[0][0] else pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def oracle_weyl_text(w: WeylElement) -> str:
    if w.is_zero():
        return "0"
    return oracle_join([oracle_weyl_term_text(r, i) for i, r in sorted(w.terms.items())])


def oracle_center_text(z: CenterPoly) -> str:
    if z.is_zero():
        return "0"
    pieces = []
    coeffs = {(i, j): c for j, r in z.terms.items() for i, c in enumerate(r.coeffs) if c}
    for (i, j), c in sorted(coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        parts = []
        if mag != 1 or (i == 0 and j == 0):
            parts.append(str(mag))
        if i:
            parts.append("t1" if i == 1 else f"t1^{i}")
        if j:
            parts.append("t2" if j == 1 else f"t2^{j}")
        pieces.append((neg, "*".join(parts)))
    return oracle_join(pieces)


# -- strategies ---------------------------------------------------------------------------


def scalars(field):
    """Scalars of `field`, zero and one often; over Q negative Fractions too."""
    if field.is_char_zero:
        rational = st.builds(
            Fraction, st.integers(-10**12, 10**12), st.sampled_from([1, 1, 2, 3, 7, 10**9])
        )
        return st.one_of(st.sampled_from([0, 1, -1, Fraction(-1, 2)]), rational)
    return st.integers(0, field.p - 1)


def polys(field, max_degree=6):
    """Dense rows with zeros, and one-term rows c x^k (coefficient 1 at degree 0 among them)."""
    dense = st.lists(scalars(field), max_size=max_degree + 1)
    one_term = st.builds(
        lambda k, c: [0] * k + [c], st.integers(0, max_degree), st.one_of(st.just(1), scalars(field))
    )
    return st.one_of(dense, one_term).map(lambda cs: Poly(field, cs))


@st.composite
def field_and_weyl(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.dictionaries(st.integers(0, 5), polys(field), max_size=5))
    return field, WeylElement(field, rows)


@st.composite
def field_and_center(draw):
    field = draw(st.sampled_from(FIELDS))
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
    coeffs = draw(st.dictionaries(exponents, st.one_of(st.just(1), scalars(field)), max_size=6))
    return field, CenterPoly(field, coeffs)


# -- the printer against the oracle --------------------------------------------------------


@given(field=st.sampled_from(FIELDS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_poly_printer_matches_the_oracle(field, data):
    r = data.draw(polys(field))
    var = data.draw(st.sampled_from(["x", "u"]))
    assert r.to_text(var) == oracle_poly_text(r, var)


@given(case=field_and_weyl())
@settings(max_examples=300, deadline=None)
def test_weyl_printer_matches_the_oracle(case):
    _, w = case
    assert w.to_text() == oracle_weyl_text(w)


@given(case=field_and_center())
@settings(max_examples=300, deadline=None)
def test_center_printer_matches_the_oracle(case):
    _, z = case
    assert z.to_text() == oracle_center_text(z)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_printer_examples(field):
    one = Poly.one(field)
    assert str(WeylElement(field, {0: one})) == "1"
    assert str(WeylElement(field, {3: one})) == "y^3"
    assert str(WeylElement(field, {0: one, 2: Poly.monomial(field, 1, 1)})) == "1 + x*y^2"
    assert str(CenterPoly(field, {(0, 0): 1, (1, 2): 1})) == "1 + t1*t2^2"
    if field.is_char_zero:
        w = WeylElement(field, {0: Poly(field, [-1, 2]), 1: Poly.monomial(field, Fraction(-3, 2), 2)})
        assert str(w) == "-1 + 2*x - 3/2*x^2*y"
        assert str(CenterPoly(field, {(0, 1): Fraction(-1, 2), (0, 0): -1})) == "-1 - 1/2*t2"


def dense_row(field, n, seed):
    """A row of length n with zeros, ones and, over Q, signs and denominators."""
    values = [(seed * k * k + k) % 7 for k in range(n)]
    if field.is_char_zero:
        values = [Fraction(v - 3, (k % 3) + 1) for k, v in enumerate(values)]
    return Poly(field, [*values[:-1], 1])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rows_longer_than_the_monomial_table(field):
    # a fresh variable per field, so its table starts short and has to grow
    # past rows printed before; y and t2 rows reach far past y^5 and t2^4
    var = f"w{field.characteristic}"
    for n in (1, 2, 3, 5, 4, 9, 17, 16, 100, 101, 40, 257):
        r = dense_row(field, n, n)
        assert r.to_text(var) == oracle_poly_text(r, var)
    for top in (3, 70, 140):
        w = WeylElement(field, {i: dense_row(field, 1 + i % 5, i) for i in range(0, top, 3)})
        w = w + WeylElement.from_term(Poly.monomial(field, 1, top), top)
        assert w.to_text() == oracle_weyl_text(w)
        z = CenterPoly(field, {(i, j): (i + j) % 4 for i in range(0, top, 7) for j in (0, 1, top)})
        assert z.to_text() == oracle_center_text(z)


def test_monomial_table_grows_by_doubling():
    table = _monomials("v_table", 3)
    assert table == ["", "v_table", "v_table^2", "v_table^3"]
    assert _monomials("v_table", 5) is table and len(table) == 8
    assert _monomials("v_table", 8) is table and len(table) == 8
    assert len(_monomials("v_table", 100)) == 100
    assert table[99] == "v_table^99"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_suffix_rows_at_y1_and_t2_powers(field):
    # one-term rows take the suffix y^i: a constant, a coefficient 1, x^k
    c = field.coerce(Fraction(-3, 2)) if field.is_char_zero else field.coerce(2 % field.p or 1)
    for r in (
        Poly.one(field),
        Poly.constant(field, c),
        Poly.monomial(field, 1, 1),
        Poly.monomial(field, c, 1),
        Poly.monomial(field, c, 4),
    ):
        for i in (1, 2, 11):
            w = WeylElement.from_term(r, i)
            assert w.to_text() == oracle_weyl_text(w)
            w = w + WeylElement.from_term(Poly(field, [1, 1]), 0)
            assert w.to_text() == oracle_weyl_text(w)
    # every term of a CenterPoly row takes the suffix t2^j
    for j in (0, 1, 2, 12):
        z = CenterPoly(field, {(0, j): 1, (1, j): c, (3, j): 1, (0, j + 1): c})
        assert z.to_text() == oracle_center_text(z)


def test_rational_rows_need_a_gcd_per_coefficient():
    # one denominator for the row (6), each coefficient put in lowest terms
    r = Poly(QQ, [Fraction(1, 2), Fraction(-1, 3), 1, Fraction(5, 6), Fraction(-4, 3), -2])
    assert (r.num, r.den) == ((3, -2, 6, 5, -8, -12), 6)
    assert r.to_text() == oracle_poly_text(r) == "1/2 - 1/3*x + x^2 + 5/6*x^3 - 4/3*x^4 - 2*x^5"
    w = WeylElement(QQ, {0: r, 1: Poly(QQ, [0, Fraction(-2, 4)]), 3: r})
    assert w.to_text() == oracle_weyl_text(w)
    assert w.to_text().startswith("1/2 - 1/3*x") and " - 1/2*x*y + (1/2 - 1/3*x" in w.to_text()
    z = CenterPoly(QQ, {(0, 1): Fraction(3, 9), (2, 1): Fraction(-10, 4), (1, 2): Fraction(7, 1)})
    assert z.to_text() == oracle_center_text(z) == "1/3*t2 - 5/2*t1^2*t2 + 7*t1*t2^2"


# -- the digit limit -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        Poly(QQ, [0, 10**5000]),
        Poly(QQ, [Fraction(1, 10**5000)]),
        WeylElement(QQ, {1: Poly(QQ, [0, 10**5000])}),  # a one-term row
        WeylElement(QQ, {2: Poly(QQ, [-(10**5000)])}),
        WeylElement(QQ, {0: Poly(QQ, [1, -(10**5000)])}),
        WeylElement(QQ, {1: Poly(QQ, [1, 10**5000])}),
        CenterPoly(QQ, {(1, 1): Fraction(-1, 10**5000)}),
    ],
    ids=["poly", "poly-den", "weyl-one-term", "weyl-one-term-neg", "weyl-y0", "weyl-row", "center"],
)
def test_every_printer_refuses_a_coefficient_over_the_digit_limit(value):
    with pytest.raises(ValueError) as e:
        str(value)
    assert str(e.value) == LIMIT


def test_printer_takes_a_coefficient_at_the_digit_limit():
    top = 10**MAX_DIGITS - 1
    assert str(WeylElement(QQ, {1: Poly(QQ, [0, top])})) == f"{top}*x*y"
    assert str(CenterPoly(QQ, {(0, 1): Fraction(-1, top)})) == f"-1/{top}*t2"
