"""The per-field term printer of `Poly`, `WeylElement` and `CenterPoly`.

The oracle is the formatting the three printers had before they shared one
term printer: `Poly.to_text` through `_term_text` and `_scalar_is_negative`,
the rows of `WeylElement.to_text` through `_weyl_term_text`, and
`CenterPoly.to_text`, each with its own copy of the sign split and the
coefficient text.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahweyl.centerpoly import CenterPoly
from ahweyl.fields import QQ, FieldSpec
from ahweyl.poly import MAX_DIGITS, Poly
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
    return oracle_join([oracle_weyl_term_text(r, i) for i, r in w.iter_terms()])


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
