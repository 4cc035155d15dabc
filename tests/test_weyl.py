"""Weyl algebra normal form: products, commutators, phi, varpi, center."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahweyl.fields import FieldMismatchError, FieldSpec, QQ
from ahweyl.poly import Poly
from ahweyl.weyl import WeylElement, commutator, varpi

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def x_elt(field, n=1):
    return WeylElement.x_power(field, n)


def y_elt(field, n=1):
    return WeylElement.y_power(field, n)


def random_weyl(rng, field, max_ydeg=3, max_xdeg=3, dens=(1,)):
    """Random element; over Q each coefficient is n/d with d drawn from dens."""
    terms = {}
    for i in range(rng.randrange(0, max_ydeg + 2)):
        deg = rng.randrange(-1, max_xdeg + 1)
        if deg < 0:
            continue
        if field.is_char_zero:
            coeffs = [Fraction(rng.randrange(-5, 6), rng.choice(dens)) for _ in range(deg + 1)]
        else:
            coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
        terms[i] = Poly(field, coeffs)
    return WeylElement(field, terms)


class TestMul:
    def test_defining_relation(self):
        # y*x = x*y + 1
        got = y_elt(QQ) * x_elt(QQ)
        want = WeylElement(QQ, {1: Poly.x(QQ), 0: Poly.one(QQ)})
        assert got == want

    def test_one_is_identity(self):
        rng = random.Random(1)
        for _ in range(5):
            a = random_weyl(rng, QQ)
            assert a * WeylElement.one(QQ) == a
            assert WeylElement.one(QQ) * a == a

    def test_y2_x2(self):
        # repeated single reorders: y^2 x^2 = x^2 y^2 + 4xy + 2
        got = y_elt(QQ, 2) * x_elt(QQ, 2)
        want = WeylElement(
            QQ,
            {2: Poly.monomial(QQ, 1, 2), 1: Poly.monomial(QQ, 4, 1), 0: Poly(QQ, [2])},
        )
        assert got == want

    def test_reordering_formula_vs_iterated_single_step(self):
        # y^n f == sum_j C(n,j) f^(j) y^(n-j), checked against y*(y*(...*f))
        rng = random.Random(2)
        for field in (QQ, GF3):
            for n in range(7):
                f = random_weyl(rng, field, max_ydeg=0, max_xdeg=4)
                lhs = y_elt(field, n) * f
                acc = f
                for _ in range(n):
                    acc = y_elt(field) * acc
                assert lhs == acc

    @pytest.mark.parametrize("field", [QQ, GF2, GF5])
    def test_associativity_random(self, field):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (random_weyl(rng, field) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            x_elt(QQ) * x_elt(GF3)


class TestCommutator:
    def test_y_x(self):
        assert commutator(y_elt(QQ), x_elt(QQ)) == WeylElement.one(QQ)

    def test_self_commutes(self):
        rng = random.Random(4)
        a = random_weyl(rng, QQ)
        assert commutator(a, a).is_zero()

    def test_y2_x2(self):
        got = commutator(y_elt(QQ, 2), x_elt(QQ, 2))
        want = WeylElement(QQ, {1: Poly.monomial(QQ, 4, 1), 0: Poly(QQ, [2])})
        assert got == want

    @pytest.mark.parametrize("field", [QQ, GF3])
    def test_jacobi(self, field):
        rng = random.Random(5)
        for _ in range(12):
            a, b, c = (random_weyl(rng, field, 2, 2) for _ in range(3))
            s = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert s.is_zero()


class TestPhi:
    def test_on_generators(self):
        assert x_elt(QQ).apply_phi() == y_elt(QQ)
        assert y_elt(QQ).apply_phi() == x_elt(QQ)

    def test_xy(self):
        # phi(x*y) = phi(y)phi(x) = x*y
        xy = x_elt(QQ) * y_elt(QQ)
        assert xy.apply_phi() == xy

    @pytest.mark.parametrize("field", [QQ, GF3])
    def test_antiautomorphism_and_involution(self, field):
        rng = random.Random(6)
        for _ in range(15):
            a = random_weyl(rng, field)
            b = random_weyl(rng, field)
            assert (a * b).apply_phi() == b.apply_phi() * a.apply_phi()
            assert a.apply_phi().apply_phi() == a


class TestVarpi:
    def test_p2(self):
        assert varpi(GF2) == WeylElement(GF2, {1: Poly.x(GF2)})

    def test_p3(self):
        want = WeylElement(GF3, {1: Poly.x(GF3), 2: Poly.monomial(GF3, 2, 2)})
        assert varpi(GF3) == want

    def test_p5_lowest_term(self):
        # coefficient of x^1 y^1 is 3! = 6 = 1 in GF(5)
        assert varpi(GF5).coefficient(1) == Poly.x(GF5)

    def test_char_zero_rejected(self):
        with pytest.raises(ValueError):
            varpi(QQ)


class TestCenter:
    def test_one_central(self):
        assert WeylElement.one(QQ).is_central_A1()
        assert WeylElement.one(GF3).is_central_A1()

    def test_x3y3_central_p3(self):
        z = WeylElement(GF3, {3: Poly.monomial(GF3, 1, 3)})
        assert z.is_central_A1()

    def test_xy3_not_central_p3(self):
        assert not WeylElement(GF3, {3: Poly.x(GF3)}).is_central_A1()

    def test_char_zero_only_constants(self):
        assert not x_elt(QQ).is_central_A1()
        assert WeylElement.from_poly(Poly(QQ, [7])).is_central_A1()

    def test_central_elements_commute(self):
        rng = random.Random(7)
        for field in (GF2, GF3):
            p = field.p
            centrals = [
                WeylElement(field, {p: Poly.monomial(field, 1, p)}),
                WeylElement.from_poly(Poly.monomial(field, 1, 2 * p) + Poly.one(field)),
                y_elt(field, p),
            ]
            for z in centrals:
                assert z.is_central_A1()
                for _ in range(6):
                    a = random_weyl(rng, field)
                    assert commutator(a, z).is_zero()


class TestText:
    def test_text_roundtrip_shapes(self):
        a = WeylElement(
            QQ, {3: Poly(QQ, [1, 0, 1]), 1: Poly.monomial(QQ, 2, 1), 0: Poly(QQ, [5])}
        )
        assert a.to_text() == "5 + 2*x*y + (1 + x^2)*y^3"


# -- the product against the per-term loop it replaced ---------------------------


def schoolbook(r, s):
    """r * s summed on the stored coefficients, without `Poly.__mul__`."""
    out = [0] * (len(r.coeffs) + len(s.coeffs) - 1)
    for m, u in enumerate(r.coeffs):
        for n, v in enumerate(s.coeffs):
            out[m + n] += u * v
    return Poly(r.field, out)


def per_term_product(a, b):
    """The Weyl product term by term: one derivative chain per (i, j), each
    piece schoolbook(r, s^(k)).scale(C(i, k)) added into its own Poly."""
    out = {}
    for i, r in a.terms.items():
        for j, s in b.terms.items():
            d = s
            for k in range(i + 1):
                if d.is_zero():
                    break
                piece = schoolbook(r, d).scale(comb(i, k))
                deg = i - k + j
                out[deg] = out[deg] + piece if deg in out else piece
                d = d.derivative()
    return WeylElement(a.field, out)


def repeated_product(base, n):
    """base^n as n general Weyl products: the oracle for closed-form powers."""
    out = WeylElement.one(base.field)
    for _ in range(n):
        out = out * base
    return out


def assert_no_zero_term(a):
    assert all(not r.is_zero() for r in a.terms.values())


def assert_stored_form(a):
    """Fractions over Q, also where every operand coefficient was an integer."""
    if a.field.is_char_zero:
        assert all(type(c) is Fraction for r in a.terms.values() for c in r.coeffs)


@st.composite
def weyl_pair(draw):
    """Over Q the coefficients are integers, or n/d with coprime d."""
    field = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    dens = draw(st.sampled_from([(1,), (1, 2, 3, 5, 7), (2, 3, 5, 7)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_weyl(rng, field, 4, 5, dens), random_weyl(rng, field, 4, 5, dens)


@given(weyl_pair())
@settings(max_examples=150, deadline=None)
def test_product_matches_per_term_loop(pair):
    a, b = pair
    for got, want in ((a * b, per_term_product(a, b)), (b * a, per_term_product(b, a))):
        assert got == want
        assert_no_zero_term(got)
        assert_stored_form(got)
    for c in (a + b, a - b, a + (-a), a - a, commutator(a, b), a.scale(a.field.characteristic)):
        assert_no_zero_term(c)
    assert (a + (-a)).terms == {} and (a - a).terms == {}


@pytest.mark.parametrize("field, n", [(GF2, 2), (GF3, 3)])
def test_vanishing_middle_terms_not_stored(field, n):
    # y^n x^n = sum_k C(n, k)^2 k! x^(n-k) y^(n-k); mod p = n only k = 0 survives
    got = y_elt(field, n) * x_elt(field, n)
    assert got.terms == {n: Poly.monomial(field, 1, n)}
    assert_no_zero_term(got)


def test_tables_stop_at_the_reach_of_the_falling_factorials(monkeypatch):
    # (p)_k = 0 mod p for k >= 1, so y^p x^p and y^p x^(2p-1) read H_0 alone
    # and build no Hasse row; over Q y^5 x^2 reads H_0, H_1, H_2 = x^2, 2x, 1
    import ahweyl.weyl as weyl

    built = []

    def counted(F, fc, start, stop):
        table = hasse_rows(F, fc, start, stop)
        built.append(len(table))
        return table

    hasse_rows = weyl._hasse_rows
    monkeypatch.setattr(weyl, "_hasse_rows", counted)
    p = 10007
    F = FieldSpec(p)
    for n in (p, 2 * p - 1):
        assert y_elt(F, p) * x_elt(F, n) == WeylElement.from_term(Poly.monomial(F, 1, n), p)
        assert built == [0]
        built.clear()
    assert y_elt(QQ, 5) * x_elt(QQ, 2) == per_term_product(y_elt(QQ, 5), x_elt(QQ, 2))
    assert built == [2]


def test_cancelling_row_not_stored():
    # y (x - x^2 y / 2) = (x y + 1) - (x^2 y^2 + 2 x y) / 2: the y^1 row cancels
    b = WeylElement(QQ, {0: Poly.x(QQ), 1: Poly.monomial(QQ, Fraction(-1, 2), 2)})
    got = y_elt(QQ) * b
    assert got.terms == {0: Poly.one(QQ), 2: Poly.monomial(QQ, Fraction(-1, 2), 2)}


def test_q_products_of_integer_operands_store_fractions():
    a = WeylElement(QQ, {0: Poly(QQ, [2, -1]), 2: Poly(QQ, [0, 3])})
    b = WeylElement(QQ, {1: Poly(QQ, [1, 1]), 0: Poly.one(QQ)})
    assert a * b == per_term_product(a, b)
    for got in (a * b, b * a, commutator(a, b), a * Poly(QQ, [4, 5])):
        assert got
        assert_stored_form(got)
    f = Poly(QQ, [2, -1]) * Poly(QQ, [0, 3])
    assert f.coeffs == (0, 6, -3) and all(type(c) is Fraction for c in f.coeffs)


def test_poly_times_weyl_is_left_to_poly_mul():
    # Poly.__mul__ rejects a WeylElement, so r * w never reaches WeylElement
    r = Poly(QQ, [1, 1])
    w = WeylElement.y_power(QQ, 1)
    with pytest.raises(TypeError):
        r * w
    assert w.poly_mul(r) == WeylElement.from_term(r, 1)


@pytest.mark.parametrize("field", [QQ, FieldSpec(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("scalar", [2, Fraction(1, 2)])
def test_scalars_multiply_only_through_scale(field, scalar):
    # `*` takes two values of one class; a bare scalar goes through `scale`
    c = Poly.constant(field, scalar)
    pairs = [(Poly(field, [1, 1]), c), (WeylElement.y_power(field, 1), WeylElement.from_poly(c))]
    for value, constant in pairs:
        for product in (lambda: value * scalar, lambda: scalar * value):
            with pytest.raises(TypeError):
                product()
        assert value.scale(scalar) == value * constant


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        WeylElement(QQ, {-1: Poly.one(QQ)})
    with pytest.raises(FieldMismatchError):
        WeylElement(QQ, {0: Poly.one(GF3)})
    assert WeylElement(GF3, {0: Poly.zero(GF3), 1: Poly.one(GF3)}).terms == {1: Poly.one(GF3)}


# -- closed forms: [a, x] and the shift by y^n ------------------------------------------


@given(field=st.sampled_from([QQ, GF2, GF3, GF5, FieldSpec(7)]), seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_bracket_x_and_shift_match_products(field, seed):
    # y-degrees past p reach the i = 0 mod p terms that drop out of [a, x]
    rng = random.Random(seed)
    top = max(field.characteristic, 3) + 3
    a = random_weyl(rng, field, top, 4, (1, 2, 3))
    x = x_elt(field)
    got = commutator(a, x)
    assert got == a * x - x * a
    assert commutator(x, a) == -got
    assert_no_zero_term(got)
    assert_stored_form(got)
    n = rng.randrange(0, top)
    assert a.shift(n) == a * y_elt(field, n)
    if field.characteristic:
        # y^(pk) is central: the shift is the product on either side
        pk = field.characteristic * rng.randrange(0, 3)
        assert a.shift(pk) == y_elt(field, pk) * a
