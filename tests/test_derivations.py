"""Derivations of A_h and A_1: construction, application, decompositions."""

import random
import re
from collections import defaultdict
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext, MembershipError, weyl_context
from ahweyl.derivations import (
    AhAlgebraMap,
    D_g,
    DecompCharZero,
    Derivation,
    InnerWitness,
    InvalidDerivation,
    InvalidDerivationError,
    NotExtendable,
    NotInner,
    ad,
    ad_ra_n,
    bhat_f,
    bhat_x,
    decompose_Ah_char0,
    decompose_Ah_charp,
    ex_apply,
    extend_to_A1,
    ey_apply,
    is_inner,
    make_derivation,
    restrict_to_center,
    _from_w,
    _lift_elements,
    _require_valid,
    _split_ad_x,
)
from ahweyl.fields import ExactDivisionError, FieldSpec, QQ
from ahweyl.poly import NotIntegrable, Poly, _kernel
from ahweyl.verify import random_derivation as verify_random_derivation
from ahweyl.weyl import WeylElement, _accumulate, commutator, varpi

from test_oracles import add_d_on_poly, d_on_poly, lifted_chain
from test_poly import hasse_derivative
from test_weyl import repeated_product

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def P(field, *coeffs):
    return Poly(field, coeffs)


def xn(field, n):
    return Poly.monomial(field, 1, n)


def random_poly(rng, field, max_deg=4):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(field)
    if field.is_char_zero:
        return Poly(field, [rng.randrange(-5, 6) for _ in range(deg + 1)])
    return Poly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def random_ah(rng, ctx, max_ydeg=2, max_xdeg=3):
    out = WeylElement.zero(ctx.field)
    for i in range(max_ydeg + 1):
        r = random_poly(rng, ctx.field, max_xdeg)
        if not r.is_zero() and rng.random() < 0.7:
            out = out + WeylElement.from_term(r * ctx.h**i, i)
    return out


def random_normalizer(rng, ctx, max_ydeg=3):
    """Random element of N(A_h), built from its explicit description."""
    p = 0 if ctx.field.is_char_zero else ctx.field.p
    out = WeylElement.from_poly(random_poly(rng, ctx.field, 3))
    for i in range(1, max_ydeg + 1):
        if rng.random() < 0.4:
            continue
        if p == 0 or i % p:
            r = random_poly(rng, ctx.field, 2)
            if not r.is_zero():
                out = out + WeylElement.from_term(r * ctx.pi_h * ctx.h ** (i - 1), i)
        else:
            d = random_poly(rng, ctx.field, 2)
            z = random_poly(rng, ctx.field, 1).substitute_xp()
            w = d * ctx.h**i + z * ctx.h ** (i - p)
            if not w.is_zero():
                out = out + WeylElement.from_term(w, i)
    return out


def random_derivation(rng, ctx):
    """Random valid derivation, assembled from the spanning families."""
    d = D_g(random_poly(rng, ctx.field, 4), ctx)
    d = d + ad(random_normalizer(rng, ctx), ctx)
    if not ctx.field.is_char_zero:
        u = CenterPoly(
            ctx.field,
            {(rng.randrange(2), rng.randrange(2)): rng.randrange(ctx.field.p) for _ in range(2)},
        )
        d = d + D_g(ctx.qbreve, ctx).central_scale(u)
        v = CenterPoly(ctx.field, {(rng.randrange(2), 0): rng.randrange(ctx.field.p)})
        d = d + bhat_f(ctx).central_scale(v)
    return d


class TestMakeDerivation:
    def test_Dg_valid_for_centralizer(self):
        ctx = AhContext(xn(QQ, 2))
        d = make_derivation(WeylElement.zero(QQ), WeylElement.from_poly(P(QQ, 1, 2)), ctx)
        assert not isinstance(d, InvalidDerivation)
        assert d.image_yhat == WeylElement.from_poly(P(QQ, 1, 2))

    def test_h_zero_pair_is_ad_yhat(self):
        # (h, 0): criterion [0,x] + [yhat,h] = delta(h) = h'h = d(h)
        ctx = AhContext(xn(QQ, 2))
        d = make_derivation(WeylElement.from_poly(ctx.h), WeylElement.zero(QQ), ctx)
        assert not isinstance(d, InvalidDerivation)
        adyh = ad(ctx.yhat, ctx)
        assert d.image_x == adyh.image_x and d.image_yhat == adyh.image_yhat

    def test_invalid_with_defect(self):
        ctx = AhContext(Poly.one(QQ))
        d = make_derivation(WeylElement.zero(QQ), WeylElement.y_power(QQ, 1), ctx)
        assert isinstance(d, InvalidDerivation)
        assert d.defect == WeylElement.one(QQ)

    def test_membership_reported_separately(self):
        ctx = AhContext(xn(QQ, 2))
        d = make_derivation(WeylElement.zero(QQ), WeylElement.y_power(QQ, 1), ctx)
        assert isinstance(d, InvalidDerivation)
        assert not d.yhat_in_ah


class TestApply:
    def test_Dg_on_generators(self):
        ctx = AhContext(xn(QQ, 2))
        g = P(QQ, 1, 1)
        d = D_g(g, ctx)
        assert d.apply(ctx.x_elt).is_zero()
        assert d.apply(ctx.yhat) == WeylElement.from_poly(g)

    def test_derivation_kills_one(self):
        for ctx in (AhContext(xn(QQ, 2)), AhContext(P(GF3, 0, 1))):
            rng = random.Random(31)
            d = random_derivation(rng, ctx)
            assert d.apply(WeylElement.one(ctx.field)).is_zero()

    def test_Dh_equals_minus_ad_x(self):
        for ctx in (AhContext(xn(QQ, 2)), AhContext(P(GF3, 1, 0, 1))):
            dh = D_g(ctx.h, ctx)
            adx = ad(ctx.x_elt, ctx)
            rng = random.Random(32)
            a = random_ah(rng, ctx)
            assert dh.apply(a) == -adx.apply(a)

    @pytest.mark.parametrize(
        "field,h", [(QQ, (0, 0, 1)), (QQ, (0, 1)), (GF3, (0, 1)), (GF2, (0, 0, 1))]
    )
    def test_leibniz(self, field, h):
        ctx = AhContext(Poly(field, h))
        rng = random.Random(33)
        for _ in range(6):
            d = random_derivation(rng, ctx)
            a = random_ah(rng, ctx)
            b = random_ah(rng, ctx)
            lhs = d.apply(a * b)
            rhs = d.apply(a) * b + a * d.apply(b)
            assert lhs == rhs

    def test_bracket_closure(self):
        for field, h in [(QQ, (0, 0, 1)), (GF3, (0, 1))]:
            ctx = AhContext(Poly(field, h))
            rng = random.Random(34)
            for _ in range(4):
                d = random_derivation(rng, ctx)
                e = random_derivation(rng, ctx)
                br = d.bracket(e)
                assert br.validate() is None


class TestAd:
    def test_ad_x(self):
        ctx = AhContext(xn(QQ, 2))
        adx = ad(ctx.x_elt, ctx)
        assert adx.image_x.is_zero()
        assert adx.image_yhat == WeylElement.from_poly(-ctx.h)

    def test_ad_central_zero(self):
        ctx = AhContext(P(GF3, 0, 1))
        z = ctx.zeta_element()
        adz = ad(z, ctx)
        assert adz.image_x.is_zero() and adz.image_yhat.is_zero()

    def test_ad_a1(self):
        ctx = AhContext(xn(QQ, 2))
        ada1 = ad(ctx.a_n_element(1), ctx)
        assert ada1.image_x == WeylElement.from_poly(ctx.pi_h)

    def test_rejects_non_normalizer(self):
        ctx = AhContext(xn(QQ, 2))
        with pytest.raises(InvalidDerivationError):
            ad(WeylElement.y_power(QQ, 1), ctx)


def ex_on_poly(g: Poly) -> WeylElement:
    """Oracle: the closed form E_x(g) = sum_{k=1}^{p-1} ((-1)^(k-1)/k)
    g^(k) y^(p-k) - partial_p(g)."""
    F = g.field
    p = F.p
    out = {}
    d = g
    for k in range(1, p):
        d = d.derivative()
        if d.is_zero():
            break
        r = d.scale(Fraction((-1) ** (k - 1), k))
        if not r.is_zero():
            out[p - k] = r
    pp = g.partial_p()
    if not pp.is_zero():
        out[0] = out.get(0, Poly.zero(F)) - pp
    return WeylElement(F, out)


def ex_on_yhat_by_w(ctx: AhContext) -> WeylElement:
    """E_x(yhat) = K(y^(p-1)), through the constructor from (D(x), W) with W
    = h E_x(y) = 0 (`_from_w`)."""
    F = ctx.field
    return _from_w(ctx, WeylElement.y_power(F, F.p - 1), WeylElement.zero(F)).image_yhat


def ey_on_yhat(ctx: AhContext) -> WeylElement:
    """Oracle: E_y(yhat) = x^(p-1) h."""
    return WeylElement.from_poly(ctx.h.shift(ctx.p - 1))


def ex_as_derivation(ctx: AhContext) -> Derivation:
    """Oracle: E_x restricted to A_h (valid when it preserves A_h, e.g.
    h = 1)."""
    u = WeylElement.y_power(ctx.field, ctx.p - 1)
    return _require_valid(Derivation(ctx, u, ex_on_yhat_by_w(ctx)))


def ey_as_derivation(ctx: AhContext) -> Derivation:
    """Oracle: E_y restricted to A_h; always restricts since
    E_y = D_{x^(p-1) h}."""
    return _require_valid(Derivation(ctx, WeylElement.zero(ctx.field), ey_on_yhat(ctx)))


# -- independent A_1 routes: oracles for the derivations over `weyl_context` ---------


def generic_a1_apply(dx: WeylElement, dy: WeylElement, a: WeylElement) -> WeylElement:
    """Oracle: the A_1-derivation D with D(x) = dx, D(y) = dy applied to a,
    by Leibniz over the normal form, D(r y^i) = D(r) y^i + r D(y^i). D(r) is
    d_on_poly(r, dx); phi (x <-> y) is an anti-automorphism, so phi D phi is
    a derivation sending x to phi(dy), and D(y^i) = phi(d_on_poly(x^i, phi(dy)))."""
    F = a.field
    phi_dy = dy.apply_phi()
    out = WeylElement.zero(F)
    for i, r in a.terms.items():
        out = out + d_on_poly(r, dx).shift(i)
        out = out + d_on_poly(Poly.monomial(F, 1, i), phi_dy).apply_phi().poly_mul(r)
    return out


def ex_on_yhat_closed_form(ctx: AhContext) -> WeylElement:
    """Oracle: E_x(yhat) = h' y^p + sum_{k=1}^{p-2} ((-1)^(k-1)/((k+1)k))
    h^(k+1) y^(p-k) - partial_p(h) y - partial_p(h')."""
    F = ctx.field
    p = ctx.p
    out = {}
    hp = ctx.h.derivative()
    if not hp.is_zero():
        out[p] = hp
    d = hp
    for k in range(1, p - 1):
        d = d.derivative()
        if d.is_zero():
            break
        r = d.scale(Fraction((-1) ** (k - 1), (k + 1) * k))
        if not r.is_zero():
            out[p - k] = out.get(p - k, Poly.zero(F)) + r
    pph = ctx.h.partial_p()
    if not pph.is_zero():
        out[1] = out.get(1, Poly.zero(F)) - pph
    pphp = hp.partial_p()
    if not pphp.is_zero():
        out[0] = out.get(0, Poly.zero(F)) - pphp
    return WeylElement(F, out)


def gh_derivative_times_hk(g: Poly, k: int, ctx: AhContext) -> Poly:
    """Oracle: T_k = (g h^(-1))^(k-1) h^k by the polynomial recurrence
    T_1 = g, T_(k+1) = T_k' h - k T_k h'."""
    t = g
    for m in range(1, k):
        t = t.derivative() * ctx.h - t.scale(m) * ctx.h.derivative()
    return t


def right_div_exact(w: WeylElement, h: Poly) -> WeylElement:
    """Oracle: the unique a with w = a * h, by descending y-degree
    elimination; ExactDivisionError if there is none."""
    out = {}
    while not w.is_zero():
        n = w.y_degree
        q = w.coefficient(n).exact_div(h)
        out[n] = q
        w = w - WeylElement.from_term(q, n) * WeylElement.from_poly(h)
        if not w.is_zero() and w.y_degree >= n:
            raise ExactDivisionError("right division did not reduce degree")
    return WeylElement(h.field, out)


def extend_to_A1_by_right_division(d: Derivation):
    """Oracle: (D(x), D(y)) of the extension to A_1, or NotExtendable. It
    exists iff D(yhat) = a h and D(h) = b h, and then D(y) = a - y b."""
    ctx = d.context
    try:
        a = right_div_exact(d.image_yhat, ctx.h)
        b = right_div_exact(d_on_poly(ctx.h, d.image_x), ctx.h)
    except ExactDivisionError:
        return NotExtendable("not right-divisible by h")
    return d.image_x, a - WeylElement.y_power(ctx.field, 1) * b


def validate_a1_images(dx: WeylElement, dy: WeylElement) -> None:
    """Oracle: [D(y), x] + [y, D(x)] = 0 by Weyl-product commutators."""
    defect = commutator(dy, WeylElement.x_power(dx.field, 1)) + commutator(
        WeylElement.y_power(dx.field, 1), dx
    )
    if not defect.is_zero():
        raise InvalidDerivationError(
            f"images do not define a derivation of A_1; defect {defect}"
        )


def decompose_A1_char0(dx: WeylElement, dy: WeylElement):
    """Oracle: every derivation of A_1 is inner in characteristic 0: D =
    ad_u + ad_w with u integrating D(x) degreewise and w' = -(D - ad_u)(y)."""
    F = dx.field
    validate_a1_images(dx, dy)
    u, _ = _split_ad_x(dx)
    e_y = dy - commutator(u, WeylElement.y_power(F, 1))
    if any(i > 0 for i in e_y.terms):
        raise InvalidDerivationError("residual image of y is not a polynomial in x")
    w = (-e_y.coefficient(0)).antiderivative()
    return u, w


def inner_witness_on_A1(dx: WeylElement, dy: WeylElement) -> WeylElement:
    """The witness of `is_inner` for D(x) = dx, D(y) = dy over `weyl_context`."""
    res = is_inner(Derivation(weyl_context(dx.field), dx, dy))
    assert isinstance(res, InnerWitness)
    return res.witness


class TestExEy:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_defining_images(self, p):
        field = FieldSpec(p)
        x = WeylElement.x_power(field, 1)
        y = WeylElement.y_power(field, 1)
        assert ex_apply(x) == WeylElement.y_power(field, p - 1)
        assert ex_apply(y).is_zero()
        assert ey_apply(x).is_zero()
        assert ey_apply(y) == WeylElement.x_power(field, p - 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ex_xp_is_minus_one(self, p):
        field = FieldSpec(p)
        got = ex_apply(WeylElement.from_poly(xn(field, p)))
        assert got == -WeylElement.one(field)

    @pytest.mark.parametrize("p", [2, 3])
    def test_ex_gp_rule(self, p):
        field = FieldSpec(p)
        rng = random.Random(35)
        for _ in range(10):
            g = random_poly(rng, field, 3)
            got = ex_apply(WeylElement.from_poly(g**p))
            assert got == WeylElement.from_poly(-(g.derivative() ** p))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_closed_forms_match_generic(self, p):
        field = FieldSpec(p)
        rng = random.Random(36)
        for _ in range(8):
            g = random_poly(rng, field, 6)
            assert ex_on_poly(g) == ex_apply(WeylElement.from_poly(g))
            gy = WeylElement(
                field, {j: Poly.constant(field, c) for j, c in enumerate(g.coeffs) if c}
            )
            # E_y = phi E_x phi: both send x to 0 and y to x^(p-1)
            assert ex_on_poly(g).apply_phi() == ey_apply(gy)

    @pytest.mark.parametrize("p,h", [(2, (0, 1)), (3, (0, 0, 1)), (5, (1, 2, 1)), (3, (1, 0, 0, 1))])
    def test_yhat_closed_forms(self, p, h):
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, h))
        assert ex_on_yhat_by_w(ctx) == ex_apply(ctx.yhat) == ex_on_yhat_closed_form(ctx)
        assert ey_on_yhat(ctx) == ey_apply(ctx.yhat)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ex_ey_bracket_is_ad_varpi(self, p):
        field = FieldSpec(p)
        x = WeylElement.x_power(field, 1)
        y = WeylElement.y_power(field, 1)
        w = varpi(field)
        for gen in (x, y):
            lhs = ex_apply(ey_apply(gen)) - ey_apply(ex_apply(gen))
            assert lhs == commutator(w, gen)

    @pytest.mark.parametrize("p", [2, 3])
    def test_product_rule_lemma(self, p):
        # [wD, zE] = wD(z)E - zE(w)D + wz[D, E] for D = E_x, E = E_y
        field = FieldSpec(p)
        rng = random.Random(37)
        x = WeylElement.x_power(field, 1)
        y = WeylElement.y_power(field, 1)
        w_c = varpi(field)
        for _ in range(6):
            w = random_poly(rng, field, 1).substitute_xp()
            z = random_poly(rng, field, 1).substitute_xp()
            wE = WeylElement.from_poly(w)
            zE = WeylElement.from_poly(z)
            for gen in (x, y):
                lhs = wE * ex_apply(zE * ey_apply(gen)) - zE * ey_apply(
                    wE * ex_apply(gen)
                )
                exz = ex_apply(zE)
                eyw = ey_apply(wE)
                rhs = (
                    wE * exz * ey_apply(gen)
                    - zE * eyw * ex_apply(gen)
                    + wE * zE * commutator(w_c, gen)
                )
                assert lhs == rhs


class TestBhat:
    def test_h_one(self):
        # h = 1: bhat_x = E_x and bhat_f = -E_x
        ctx = AhContext(Poly.one(GF3))
        bx = bhat_x(ctx)
        assert bx.image_x == WeylElement.y_power(GF3, 2)
        bf = bhat_f(ctx)
        assert bf.image_x == -bx.image_x
        assert bf.image_yhat == -bx.image_yhat

    def test_h_x(self):
        # h = x: bhat_f = zeta D_1 - x^p E_x
        for p in (2, 3):
            field = FieldSpec(p)
            ctx = AhContext(Poly.x(field))
            bf = bhat_f(ctx)
            want_x = WeylElement.from_term(-xn(field, p), p - 1)
            assert bf.image_x == want_x
            alt = ctx.zeta_element() - ex_on_yhat_by_w(ctx).poly_mul(xn(field, p))
            assert bf.image_yhat == alt

    def test_wEx_restriction_criterion(self):
        # w E_x restricts iff w in Z(A_h) h^p / varrho: h = x, p = 2
        ctx = AhContext(Poly.x(GF2))
        w_good = xn(GF2, 2)  # = h^p / varrho
        img_x = WeylElement.from_term(w_good, 1)
        d = make_derivation(img_x, ex_on_yhat_by_w(ctx).poly_mul(w_good), ctx)
        assert not isinstance(d, InvalidDerivation)
        w_bad = Poly.one(GF2)
        bad = make_derivation(
            WeylElement.from_term(w_bad, 1), ex_on_yhat_by_w(ctx).poly_mul(w_bad), ctx
        )
        assert isinstance(bad, InvalidDerivation)

    @pytest.mark.parametrize("p,h", [(2, (0, 1)), (3, (0, 0, 1)), (3, (1, 1)), (5, (0, 1))])
    def test_both_validate(self, p, h):
        ctx = AhContext(Poly(FieldSpec(p), h))
        assert bhat_x(ctx).validate() is None
        assert bhat_f(ctx).validate() is None


def bhat_f_closed_form(ctx):
    """Oracle: bhat_f(yhat) = w (sum_{k=1}^{p-2} ((-1)^k/((k+1)k)) h^(k+1)
    y^(p-k) + partial_p(h) y + partial_p(h')), w = h^p/varrho_h."""
    F = ctx.field
    p = ctx.p
    out = {}
    d = ctx.h.derivative()
    for k in range(1, p - 1):
        d = d.derivative()
        if d.is_zero():
            break
        r = d.scale(Fraction((-1) ** k, (k + 1) * k))
        if not r.is_zero():
            out[p - k] = out.get(p - k, Poly.zero(F)) + r
    pph = ctx.h.partial_p()
    if not pph.is_zero():
        out[1] = out.get(1, Poly.zero(F)) + pph
    pphp = ctx.h.derivative().partial_p()
    if not pphp.is_zero():
        out[0] = out.get(0, Poly.zero(F)) + pphp
    return WeylElement(F, out).poly_mul(ctx.hp_over_varrho)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("k", range(7))
def test_bhat_f_matches_closed_form(p, k):
    # h = 1, x, x^2 + 1, two with varrho_h != 1, and two random h
    F = FieldSpec(p)
    rng = random.Random(100 * p + k)
    x1 = P(F, 1, 1)
    h = [
        Poly.one(F),
        Poly.x(F),
        P(F, 1, 0, 1),
        xn(F, p) * x1,
        x1 ** (p + 1) * Poly.x(F),
        random_h(rng, F, 2),
        random_h(rng, F, 4),
    ][k]
    ctx = AhContext(h)
    bf = bhat_f(ctx)
    w = ctx.hp_over_varrho
    assert bf.image_x == WeylElement.from_term(-w, p - 1)
    assert bf.image_yhat == bhat_f_closed_form(ctx)
    hpr = ctx.h.derivative().exact_div(ctx.varrho_h)
    assert ctx.hprime_over_varrho == hpr
    assert bf.image_yhat == ctx.zeta_element().poly_mul(hpr) - ex_on_yhat_by_w(ctx).poly_mul(w)


class TestExtension:
    def test_Dg_multiple_of_h(self):
        ctx = AhContext(xn(QQ, 2))
        q = P(QQ, 1, 1)
        d = D_g(q * ctx.h, ctx)
        ext = extend_to_A1(d)
        assert isinstance(ext, Derivation) and ext.context is weyl_context(QQ)
        assert ext.image_yhat == WeylElement.from_poly(q)

    def test_Dg_coprime_not_extendable(self):
        ctx = AhContext(xn(QQ, 2))
        assert isinstance(extend_to_A1(D_g(Poly.one(QQ), ctx)), NotExtendable)

    def test_ad_always_extendable(self):
        rng = random.Random(38)
        for field, h in [(QQ, (0, 0, 1)), (GF3, (0, 0, 1))]:
            ctx = AhContext(Poly(field, h))
            for _ in range(6):
                a = random_normalizer(rng, ctx)
                ext = extend_to_A1(ad(a, ctx))
                assert isinstance(ext, Derivation)
                # the extension acts as ad_a on A_1's generators
                x = WeylElement.x_power(field, 1)
                y = WeylElement.y_power(field, 1)
                assert ext.image_x == commutator(a, x)
                assert ext.image_yhat == commutator(a, y)

    def test_extension_faithfulness(self):
        # two extensions agreeing on A_h agree on A_1: perturbing the image
        # of y forces a different image of yhat
        ctx = AhContext(xn(QQ, 2))
        d = D_g(P(QQ, 0, 0, 1) * ctx.h, ctx)
        ext = extend_to_A1(d)
        assert isinstance(ext, Derivation)
        perturbed = Derivation(ext.context, ext.image_x, ext.image_yhat + WeylElement.one(QQ))
        assert perturbed.apply(ctx.yhat) != ext.apply(ctx.yhat)
        assert ext.apply(ctx.yhat) == d.image_yhat


class TestDecomposeA1Char0:
    def test_ad_y_squared(self):
        dx = WeylElement.from_term(P(QQ, 2), 1)  # [y^2, x] = 2y
        dy = WeylElement.zero(QQ)
        assert inner_witness_on_A1(dx, dy) == WeylElement.y_power(QQ, 2)
        u, w = decompose_A1_char0(dx, dy)
        assert u == WeylElement.y_power(QQ, 2)
        assert w.is_zero()

    def test_zero(self):
        zero = WeylElement.zero(QQ)
        assert inner_witness_on_A1(zero, zero).is_zero()

    def test_random_ad_reassembly(self):
        rng = random.Random(39)
        x = WeylElement.x_power(QQ, 1)
        y = WeylElement.y_power(QQ, 1)
        for _ in range(25):
            a = WeylElement(
                QQ,
                {
                    i: random_poly(rng, QQ, 4)
                    for i in range(rng.randrange(1, 5))
                    if rng.random() < 0.8
                },
            )
            dx, dy = commutator(a, x), commutator(a, y)
            b = inner_witness_on_A1(dx, dy)
            assert commutator(b, x) == dx
            assert commutator(b, y) == dy
            u, w = decompose_A1_char0(dx, dy)
            assert b == u + WeylElement.from_poly(w)


def decompose_A1_charp(dx: WeylElement, dy: WeylElement):
    """Oracle: Der(A_1) = Z(A_1) E_x + Z(A_1) E_y + Inder(A_1) in
    characteristic p, following the constructive steps: (w, z, b, c) with
    D = w E_x + z E_y + ad_b + ad_c, w and z central."""
    F = dx.field
    p = F.p
    validate_a1_images(dx, dy)
    y = WeylElement.y_power(F, 1)
    b, rest = _split_ad_x(dx)
    for i, r in rest.terms.items():
        if not r.in_frobenius_base():
            raise InvalidDerivationError(
                f"degree-{i} coefficient of D(x) must lie in F[x^p]"
            )
    w = WeylElement(F, {i - (p - 1): r for i, r in rest.terms.items()})
    f_y = dy - commutator(b, y)
    z_terms = {}
    c_terms = {}
    for j, e in f_y.terms.items():
        if j % p:
            raise InvalidDerivationError(
                f"residual image of y has a degree-{j} term (not 0 mod p)"
            )
        # split e = c_j x^(p-1) - r_j' with c_j in F[x^p]
        cj = e.frobenius_split()[p - 1].substitute_xp()
        rj = (cj.shift(p - 1) - e).antiderivative()
        if isinstance(rj, NotIntegrable):
            raise AssertionError("x^(p-1) component removal must leave a derivative")
        if not cj.is_zero():
            z_terms[j] = cj
        if not rj.is_zero():
            c_terms[j] = rj
    z = WeylElement(F, z_terms)
    c = WeylElement(F, c_terms)
    # safety: reassemble on generators
    ex_x = WeylElement.y_power(F, p - 1)
    check_x = w * ex_x + commutator(b, WeylElement.x_power(F, 1)) + commutator(
        c, WeylElement.x_power(F, 1)
    )
    check_y = z * WeylElement.x_power(F, p - 1) + commutator(b, y) + commutator(c, y)
    if check_x != dx or check_y != dy:
        raise AssertionError("A_1 decomposition failed to reassemble")
    return w, z, b, c


class TestDecomposeA1CharP:
    def test_ex_itself(self):
        p = 3
        field = FieldSpec(p)
        dx = WeylElement.y_power(field, p - 1)
        dy = WeylElement.zero(field)
        w, z, b, c = decompose_A1_charp(dx, dy)
        assert w == WeylElement.one(field)
        assert z.is_zero() and b.is_zero() and c.is_zero()

    def test_ad_y(self):
        field = FieldSpec(3)
        dx = WeylElement.one(field)  # [y, x] = 1
        dy = WeylElement.zero(field)
        w, z, b, c = decompose_A1_charp(dx, dy)
        assert w.is_zero() and z.is_zero()
        assert b + c == WeylElement.y_power(field, 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_reassembly_and_directness(self, p):
        field = FieldSpec(p)
        rng = random.Random(40 + p)
        x = WeylElement.x_power(field, 1)
        y = WeylElement.y_power(field, 1)
        for _ in range(15):
            a = WeylElement(
                field,
                {
                    i: random_poly(rng, field, 4)
                    for i in range(rng.randrange(1, 2 * p + 1))
                    if rng.random() < 0.8
                },
            )
            wc = random_poly(rng, field, 1).substitute_xp()
            zc = random_poly(rng, field, 1).substitute_xp()
            dx = commutator(a, x) + WeylElement.from_term(wc, p - 1)
            dy = commutator(a, y) + WeylElement.from_poly(zc * xn(field, p - 1))
            w, z, b, c = decompose_A1_charp(dx, dy)
            # directness: the central coefficients are recovered exactly
            assert w == WeylElement.from_poly(wc)
            assert z == WeylElement.from_poly(zc)
            got_x = w * WeylElement.y_power(field, p - 1) + commutator(b + c, x)
            got_y = z * WeylElement.x_power(field, p - 1) + commutator(b + c, y)
            assert got_x == dx and got_y == dy


class TestRestrictToCenter:
    def test_h_one_ex_ey(self):
        ctx = AhContext(Poly.one(GF3))
        res_ex = restrict_to_center(ex_as_derivation(ctx))
        assert res_ex.a == -CenterPoly.one(GF3)
        assert res_ex.b.is_zero()
        res_ey = restrict_to_center(ey_as_derivation(ctx))
        assert res_ey.a.is_zero()
        assert res_ey.b == -CenterPoly.one(GF3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("hc", [(0, 1), (0, 0, 1), (0, 0, 0, 1)])
    def test_qbreve_and_bf_images(self, p, hc):
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, hc))
        res_q = restrict_to_center(D_g(ctx.qbreve, ctx))
        assert res_q.a.is_zero()
        assert res_q.b == CenterPoly.from_t1_poly(ctx.hbar)
        res_bf = restrict_to_center(bhat_f(ctx))
        w = (ctx.h**p).exact_div(ctx.varrho_h).frobenius_split()[0]
        assert res_bf.a == CenterPoly.from_t1_poly(w)
        assert res_bf.b.is_zero()

    def test_ad_restricts_to_zero(self):
        ctx = AhContext(P(GF3, 0, 0, 1))
        rng = random.Random(41)
        for _ in range(5):
            a = random_normalizer(rng, ctx)
            assert restrict_to_center(ad(a, ctx)).is_zero()

    def test_res_is_lie_morphism(self):
        ctx = AhContext(P(GF3, 0, 1))
        rng = random.Random(42)
        for _ in range(5):
            d = random_derivation(rng, ctx)
            e = random_derivation(rng, ctx)
            lhs = restrict_to_center(d.bracket(e))
            rhs = restrict_to_center(d).bracket(restrict_to_center(e))
            assert lhs.a == rhs.a and lhs.b == rhs.b

    def test_dr_zeta_closed_form(self):
        # D_r(zeta) = (r h^(p-1))^(p-1)
        for field, hc in [(GF2, (0, 1)), (GF3, (0, 0, 1)), (GF3, (1, 1))]:
            ctx = AhContext(Poly(field, hc))
            rng = random.Random(43)
            for _ in range(8):
                r = random_poly(rng, field, 4)
                got = D_g(r, ctx).apply(ctx.zeta_element())
                assert got == WeylElement.from_poly(ctx.theta_of(r))

    def test_d_hprime_over_rho_on_zeta(self):
        # D_{h'/varrho}(zeta) = -(h')^p / varrho
        for field, hc in [(GF3, (0, 0, 1)), (GF5, (0, 1, 1)), (GF2, (0, 1))]:
            ctx = AhContext(Poly(field, hc))
            hpr = ctx.h.derivative().exact_div(ctx.varrho_h)
            got = D_g(hpr, ctx).apply(ctx.zeta_element())
            want = (-(ctx.h.derivative() ** ctx.p)).exact_div(ctx.varrho_h)
            assert got == WeylElement.from_poly(want)


class TestDgAdFormula:
    @pytest.mark.parametrize("field,h", [(QQ, (0, 0, 1)), (QQ, (0, 0, 0, 1)), (GF5, (0, 0, 1))])
    def test_operator_vs_formula(self, field, h):
        # [D_g, ad_{r a_n}] = ad of the explicit image of r a_n (n >= 2)
        ctx = AhContext(Poly(field, h))
        rng = random.Random(44)
        for n in (2, 3, 4):
            for _ in range(4):
                g = random_poly(rng, field, 3)
                r = random_poly(rng, field, 3)
                if r.is_zero():
                    continue
                dg = D_g(g, ctx)
                adr = ad_ra_n(r, n, ctx)
                op = dg.bracket(adr)
                first = (r * ctx.pi_h * gh_derivative_times_hk(g, n, ctx)).exact_div(
                    ctx.h
                )
                img = WeylElement.from_poly(first)
                for k in range(1, n):
                    from math import comb

                    coeff = ctx.field.coerce(comb(n, k))
                    tk = gh_derivative_times_hk(g, k, ctx)
                    img = img + WeylElement.from_term(
                        (tk * r * ctx.pi_h * ctx.h ** (n - k - 1)).scale(coeff), n - k
                    )
                formula = ad(img, ctx)
                assert op.image_x == formula.image_x
                assert op.image_yhat == formula.image_yhat
                # and the image is s + n g r a_{n-1} with s in A_h
                s = img - ctx.a_n_element(n - 1).poly_mul((g * r).scale(n))
                assert ctx.ah_membership(s)

    @pytest.mark.parametrize("field,h", [(QQ, (0, 0, 1)), (GF3, (0, 0, 1))])
    def test_level_one_is_exactly_minus_D_delta0(self, field, h):
        # [D_g, ad_{r a_1}] = -D_{delta0(gr)} on the nose (not just mod inner)
        ctx = AhContext(Poly(field, h))
        rng = random.Random(53)
        for _ in range(6):
            g = random_poly(rng, field, 3)
            r = random_poly(rng, field, 3)
            if r.is_zero():
                continue
            op = D_g(g, ctx).bracket(ad_ra_n(r, 1, ctx))
            want = D_g(-ctx.delta0(g * r), ctx)
            assert op.image_x == want.image_x
            assert op.image_yhat == want.image_yhat


def reassemble(dec, ctx: AhContext) -> Derivation:
    """Oracle: the derivation a decomposition of Der(A_h) names, rebuilt
    from its components: D_g + sum ad_{r_n a_n} + ad_witness in
    characteristic 0, u D_qbreve + v bhat_f + D_s + ad_(normalizer part)
    + ad_witness in characteristic p."""
    if isinstance(dec, DecompCharZero):
        d = D_g(dec.g, ctx)
        for n, r in dec.terms:
            d = d + ad_ra_n(r, n, ctx)
    else:
        d = D_g(ctx.qbreve, ctx).central_scale(dec.u)
        d = d + bhat_f(ctx).central_scale(dec.v)
        d = d + D_g(dec.s, ctx)
        d = d + ad(dec.normalizer_part, ctx)
    return d + ad(dec.inner_witness, ctx)


class TestDecomposeAhChar0:
    def test_Dg_small(self):
        ctx = AhContext(xn(QQ, 2))
        dec = decompose_Ah_char0(D_g(P(QQ, 1, 1), ctx))
        assert dec.g == P(QQ, 1, 1)
        assert dec.terms == ()
        assert ad(dec.inner_witness, ctx).is_zero()

    def test_ad_a1_h_x2(self):
        ctx = AhContext(xn(QQ, 2))
        dec = decompose_Ah_char0(ad(ctx.a_n_element(1), ctx))
        assert dec.g.is_zero()
        assert dec.terms == ((1, Poly.one(QQ)),)

    def test_ad_inner(self):
        ctx = AhContext(xn(QQ, 2))
        rng = random.Random(45)
        for _ in range(5):
            w = random_ah(rng, ctx)
            dec = decompose_Ah_char0(ad(w, ctx))
            assert dec.g.is_zero() and dec.terms == ()

    @pytest.mark.parametrize("h", [(0, 0, 1), (0, 1), (0, 0, 0, 1), (0, -1, 0, 1), (1,)])
    def test_reassembly(self, h):
        ctx = AhContext(Poly(QQ, h))
        rng = random.Random(46)
        for _ in range(8):
            d = random_derivation(rng, ctx)
            dec = decompose_Ah_char0(d)
            back = reassemble(dec, ctx)
            assert back.image_x == d.image_x
            assert back.image_yhat == d.image_yhat
            assert dec.g.is_zero() or dec.g.degree < ctx.h.degree
            for n, r in dec.terms:
                assert n >= 1 and r.degree < ctx.h_over_pi.degree


class TestDecomposeAhCharP:
    def test_bhat_f_detected(self):
        ctx = AhContext(P(GF3, 0, 1))
        dec = decompose_Ah_charp(bhat_f(ctx))
        assert dec.u.is_zero()
        assert dec.v == CenterPoly.one(GF3)
        assert dec.s.is_zero()
        assert ad(dec.normalizer_part, ctx).is_zero()
        assert ad(dec.inner_witness, ctx).is_zero()

    def test_qbreve_detected(self):
        ctx = AhContext(P(GF3, 0, 1))
        dec = decompose_Ah_charp(D_g(ctx.qbreve, ctx))
        assert dec.u == CenterPoly.one(GF3)
        assert dec.v.is_zero() and dec.s.is_zero()

    def test_t2_dependent_center_coefficients_recovered(self):
        from ahweyl.derivations import bhat_f as bf

        for p, hc in [(3, (0, 0, 1)), (2, (0, 1)), (5, (0, 1))]:
            field = FieldSpec(p)
            ctx = AhContext(Poly(field, hc))
            v = CenterPoly(field, {(1, 1): 1, (0, 2): 2})
            u = CenterPoly(field, {(0, 1): 1})
            d = bf(ctx).central_scale(v) + D_g(ctx.qbreve, ctx).central_scale(u)
            dec = decompose_Ah_charp(d)
            assert dec.u == u and dec.v == v
            back = reassemble(dec, ctx)
            assert back.image_x == d.image_x and back.image_yhat == d.image_yhat

    @pytest.mark.parametrize(
        "p,h",
        [
            (2, (0, 1)),
            (3, (0, 1)),
            (2, (0, 0, 1)),
            (3, (0, 0, 1)),
            (3, (0, 1, 0, 1)),
            (2, (1,)),
            (5, (0, 1, 0, 1)),
        ],
    )
    def test_reassembly(self, p, h):
        ctx = AhContext(Poly(FieldSpec(p), h))
        rng = random.Random(47 + p)
        for _ in range(4 if p == 5 else 8):
            d = random_derivation(rng, ctx)
            dec = decompose_Ah_charp(d)
            back = reassemble(dec, ctx)
            assert back.image_x == d.image_x
            assert back.image_yhat == d.image_yhat


class TestIsInner:
    def test_inner_with_witness(self):
        for field, h in [(QQ, (0, 0, 1)), (GF3, (0, 1))]:
            ctx = AhContext(Poly(field, h))
            rng = random.Random(48)
            for _ in range(5):
                w = random_ah(rng, ctx)
                got = is_inner(ad(w, ctx))
                assert isinstance(got, InnerWitness)
                check = ad(got.witness, ctx)
                d = ad(w, ctx)
                assert check.image_x == d.image_x and check.image_yhat == d.image_yhat

    def test_D1_outer_for_h_x(self):
        ctx = AhContext(Poly.x(QQ))
        got = is_inner(D_g(Poly.one(QQ), ctx))
        assert isinstance(got, NotInner)
        assert got.decomposition.g == Poly.one(QQ)

    def test_Ex_outer_h_one_char_p(self):
        ctx = AhContext(Poly.one(GF3))
        got = is_inner(ex_as_derivation(ctx))
        assert isinstance(got, NotInner)

    def test_ad_normalizer_reduces_to_inner_when_free(self):
        # h = x: every normalizer ad is inner
        for p in (2, 3):
            ctx = AhContext(Poly.x(FieldSpec(p)))
            rng = random.Random(49 + p)
            for _ in range(6):
                a = random_normalizer(rng, ctx)
                got = is_inner(ad(a, ctx))
                assert isinstance(got, InnerWitness)

    @pytest.mark.parametrize("p,h", [(2, (0, 1)), (5, (1, 0, 1)), (7, (1, 0, 0, 1))])
    def test_ad_on_a_free_context_never_builds_bhat_f(self, p, h):
        # Res(ad_a) = 0 gives u = v = 0, so neither u D_qbreve nor v bhat_f
        # is formed, and a fresh context keeps bhat_f (and bhat_x) unbuilt
        ctx = AhContext(Poly(FieldSpec(p), h))
        rng = random.Random(50 + p)
        for _ in range(4):
            got = is_inner(ad(random_normalizer(rng, ctx), ctx))
            assert isinstance(got, InnerWitness)
            assert got.decomposition.u.is_zero() and got.decomposition.v.is_zero()
        assert "bhat_f" not in ctx._memo and "bhat_x" not in ctx._memo


class TestAutExp:
    def test_identity(self):
        ctx = AhContext(xn(QQ, 2))
        phi0 = AhAlgebraMap(Poly.zero(QQ), ctx)
        rng = random.Random(50)
        a = random_ah(rng, ctx)
        assert phi0.apply(a) == a

    def test_relation_preserved(self):
        for ctx in (AhContext(xn(QQ, 2)), AhContext(P(GF3, 0, 0, 1))):
            g = P(ctx.field, 1, 1)
            phi = AhAlgebraMap(g, ctx)
            got = commutator(phi.image_yhat, phi.image_x)
            assert got == WeylElement.from_poly(ctx.h)

    def test_composition_law(self):
        ctx = AhContext(xn(QQ, 2))
        f, g = P(QQ, 1, 2), P(QQ, 0, 0, 3)
        rng = random.Random(51)
        a = random_ah(rng, ctx)
        lhs = AhAlgebraMap(f, ctx).apply(AhAlgebraMap(g, ctx).apply(a))
        rhs = AhAlgebraMap(f + g, ctx).apply(a)
        assert lhs == rhs

    def test_exp_series_truncates_char0(self):
        ctx = AhContext(xn(QQ, 3))
        g = P(QQ, 2, 1)
        dg = D_g(g, ctx)
        phi = AhAlgebraMap(g, ctx)
        for gen in (ctx.x_elt, ctx.yhat):
            series = gen + dg.apply(gen) + dg.apply(dg.apply(gen)).scale(
                __import__("fractions").Fraction(1, 2)
            )
            assert phi.apply(gen) == series

    def test_multiplicativity(self):
        ctx = AhContext(xn(QQ, 2))
        phi = AhAlgebraMap(P(QQ, 1, 1), ctx)
        rng = random.Random(52)
        a, b = random_ah(rng, ctx), random_ah(rng, ctx)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


def aut_by_yhat_coordinates(phi, a):
    """Oracle: phi_g(a) by the route `AhAlgebraMap.apply` replaced: the yhat
    coordinates a = sum f_j yhat^j (`yhat_zeta_collect` with period 0),
    then sum f_j (yhat + g)^j by general Weyl products."""
    ctx = phi.context
    coords = yhat_zeta_collect(ctx, a, 0)
    out = WeylElement.zero(ctx.field)
    power = WeylElement.one(ctx.field)
    for j in range(max((j for j, _ in coords), default=-1) + 1):
        if (j, 0) in coords:
            out = out + power.poly_mul(coords[j, 0])
        power = power * phi.image_yhat
    return out


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_aut_matches_yhat_coordinate_route(p, seed):
    # h = f^m q has repeated factors, and y-degrees past 2p reach k >= p,
    # where N_k need not vanish and Lucas skips the zero binomials C(i, k)
    field = FieldSpec(p)
    rng = random.Random(seed)
    f = Poly(field, [rng.randrange(p or 5), 1])
    ctx = AhContext(f ** rng.choice([2, 3]) * random_h(rng, field, 0))
    top = 2 * p + 2 if p else 5
    a = random_ah(rng, ctx, max_ydeg=top, max_xdeg=3).scale(fraction(rng, field))
    b = random_ah(rng, ctx, max_ydeg=p + 1 if p else 3)
    g, e = random_h(rng, field, 0), random_h(rng, field, 1)
    phi = AhAlgebraMap(g, ctx)
    got = phi.apply(a)
    assert got == aut_by_yhat_coordinates(phi, a)
    assert AhAlgebraMap(e, ctx).apply(got) == AhAlgebraMap(e + g, ctx).apply(a)
    assert phi.apply(a * b) == got * phi.apply(b)
    bad = a + WeylElement.from_term(Poly.one(field), rng.randrange(1, top + 1))
    with pytest.raises(MembershipError) as want:
        aut_by_yhat_coordinates(phi, bad)
    with pytest.raises(MembershipError, match=f"^{re.escape(str(want.value))}$"):
        phi.apply(bad)


# -- D(yhat^j), D(zeta), D(x^p) and h^n against their defining sums ---------------------


def yhat_power_image_sum(d, j):
    """Oracle: D(yhat^j) = sum_k yhat^k D(yhat) yhat^(j-1-k), by general
    Weyl products."""
    yhat = d.context.yhat
    out = WeylElement.zero(d.context.field)
    for k in range(j):
        out = out + repeated_product(yhat, k) * d.image_yhat * repeated_product(yhat, j - 1 - k)
    return out


def leibniz_yhat_power_images(d, n):
    """Oracle: [D(yhat^0), ..., D(yhat^n)] by the Leibniz step D(yhat^j) =
    D(yhat^(j-1)) yhat + yhat^(j-1) D(yhat), with D(yhat^p) seeded in
    characteristic p as (ad yhat)^(p-1)(D(yhat)) (Jacobson)."""
    ctx = d.context
    p = ctx.field.characteristic
    images = [WeylElement.zero(ctx.field), d.image_yhat]
    for j in range(2, n + 1):
        if j == p:
            out = d.image_yhat
            for _ in range(p - 1):
                out = commutator(ctx.yhat, out)
            images.append(out)
        else:
            images.append(images[-1] * ctx.yhat + repeated_product(ctx.yhat, j - 1) * d.image_yhat)
    return images[: n + 1]


def zeta_image_sum(d):
    """Oracle: D(zeta) from zeta = yhat^p - c yhat by general products."""
    ctx = d.context
    c = ctx.zeta_hat_coeff
    return (
        yhat_power_image_sum(d, ctx.p)
        - d_on_poly(c, d.image_x) * ctx.yhat
        - d.image_yhat.poly_mul(c)
    )


def context_from(field, coeffs):
    h = Poly(field, coeffs)
    assume(not h.is_zero())
    return AhContext(h)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    coeffs=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_pth_power_identity_matches_sums(p, coeffs, seed):
    ctx = context_from(FieldSpec(p), coeffs)
    d = verify_random_derivation(random.Random(seed), ctx)
    assert d.image_of_zeta() == zeta_image_sum(d)
    assert d.image_of_xp() == d_on_poly(Poly.monomial(ctx.field, 1, p), d.image_x)
    # a fresh copy applies the powers from the top down, so its first apply
    # fills the cached numerators P_l up to l = p - 1 before D(zeta) reads P_0
    fresh = verify_random_derivation(random.Random(seed), ctx)
    leibniz = leibniz_yhat_power_images(fresh, p + 1)
    for j in range(p + 1, -1, -1):
        want = yhat_power_image_sum(fresh, j)
        assert want == leibniz[j]
        assert fresh.apply(repeated_product(ctx.yhat, j)) == want
    assert fresh.image_of_zeta() == d.image_of_zeta()


@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    f=st.lists(st.integers(0, 10), min_size=2, max_size=3),
    m=st.integers(2, 3),
    q=st.lists(st.integers(0, 10), min_size=1, max_size=3),
    c=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    bx=st.integers(0, 10),
    bf=st.integers(0, 10),
)
@settings(max_examples=40, deadline=None)
def test_zeta_closed_form_matches_apply(p, f, m, q, c, seed, bx, bf):
    # h = f^m q (x + c)^k has a repeated factor and deg h >= p; D = D_g +
    # ad_n + u D_qbreve + bx bhat_x + bf bhat_f, whose D(x^p) = (bf - bx)
    # h^p / varrho_h is nonzero unless bx = bf mod p; `apply` on zeta,
    # through P_(p-1), is the oracle for the closed form, which reads
    # D(x^p) and P_0 only
    field = FieldSpec(p)
    base = Poly(field, f) ** m * Poly(field, q)
    assume(base.degree >= 1)
    h = base * Poly(field, [c, 1]) ** max(0, p - int(base.degree))
    ctx = AhContext(h)
    rng = random.Random(seed)
    u = CenterPoly(field, {(rng.randrange(2), rng.randrange(2)): rng.randrange(p)})
    d = D_g(random_poly(rng, field), ctx) + ad(random_normalizer(rng, ctx), ctx)
    d = d + D_g(ctx.qbreve, ctx).central_scale(u)
    d = d + bhat_x(ctx).scale(bx) + bhat_f(ctx).scale(bf)
    oracle = Derivation(ctx, d.image_x, d.image_yhat)
    assert oracle.validate() is None
    assert d.image_of_xp() == WeylElement.from_poly(ctx.hp_over_varrho.scale(bf - bx))
    assert d.image_of_zeta() == oracle.apply(ctx.zeta_element())
    assert ctx.center_coords(d.image_of_zeta()) == ctx.center_coords(oracle.apply(ctx.zeta_element()))


@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_yhat_power_images_match_sum_char0(coeffs, seed):
    ctx = context_from(QQ, coeffs)
    d = verify_random_derivation(random.Random(seed), ctx)
    leibniz = leibniz_yhat_power_images(d, 4)
    for j in (3, 0, 4, 1, 2):
        want = yhat_power_image_sum(d, j)
        assert want == leibniz[j]
        assert d.apply(repeated_product(ctx.yhat, j)) == want


@given(
    p=st.sampled_from([0, 2, 3, 5, 7]),
    coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    ns=st.lists(st.integers(0, 12), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_h_power_matches_pow(p, coeffs, ns):
    # 0..3p+2 reaches every route: the chain below p - 1, h(x^p)/h at
    # p - 1, and h^k(x^p) h^r with r = 0 and with k >= 2; each order of
    # first calls fills the cache differently
    field = FieldSpec(p)
    span = list(range(3 * p + 3))
    for order in (span, span[::-1], ns):
        ctx = context_from(field, coeffs)
        for n in order:
            assert ctx.h_power(n) == ctx.h**n


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["free", "repeated", "frobenius"]),
    coeffs=st.lists(st.integers(0, 6), min_size=0, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_ad_records_zero_images_of_the_center(p, kind, coeffs, seed):
    # ad_a(z) = [a, z] = 0 for z = x^p and z = zeta, both central in A_1
    field = FieldSpec(p)
    h = Poly(field, coeffs + [1])
    if kind == "repeated":
        h = h * Poly(field, [1, 1]) ** 2
    elif kind == "frobenius":
        h = h * Poly(field, [2, 1]) ** p
    ctx = AhContext(h)
    if kind == "free":
        assume(ctx.h_over_pi.is_constant())
    a = random_normalizer(random.Random(seed), ctx, max_ydeg=2 * p)
    d = ad(a, ctx)
    fresh = Derivation(ctx, d.image_x, d.image_yhat)
    zero = WeylElement.zero(field)
    assert d.image_of_xp() == fresh.image_of_xp() == zero
    assert d.image_of_zeta() == fresh.image_of_zeta() == zero
    assert zeta_image_sum(fresh) == zero
    assert restrict_to_center(d).is_zero()


# -- the closed Leibniz forms against their defining sums --------------------------------


def d_on_poly_sum(f, u):
    """Oracle: d(x^n) = sum_k x^k u x^(n-1-k), summed term by term."""
    F = u.field
    out = WeylElement.zero(F)
    right = [u]  # u x^m
    for _ in range(1, len(f.coeffs) - 1):
        right.append(right[-1] * WeylElement.x_power(F, 1))
    for n, c in enumerate(f.coeffs):
        for k in range(n):
            out = out + right[n - 1 - k].poly_mul(Poly.monomial(F, c, k))
    return out


def generic_a1_apply_sum(dx, dy, a):
    """Oracle: D(r y^i) = D(r) y^i + r sum_k y^k D(y) y^(i-1-k)."""
    F = a.field
    out = WeylElement.zero(F)
    for i, r in a.terms.items():
        out = out + d_on_poly_sum(r, dx) * WeylElement.y_power(F, i)
        acc = WeylElement.zero(F)
        for k in range(i):
            acc = acc + WeylElement.y_power(F, k) * dy * WeylElement.y_power(F, i - 1 - k)
        out = out + acc.poly_mul(r)
    return out


def rational_poly(rng, max_deg):
    """A polynomial over Q of degree at most max_deg, zero included, with
    coefficients such as 1/2 and -3/5."""
    n = rng.randrange(max_deg + 2)
    return Poly(QQ, [Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3, 5))) for _ in range(n)])


def random_weyl(rng, field, max_ydeg, max_xdeg):
    return WeylElement(
        field, {i: random_poly(rng, field, max_xdeg) for i in range(rng.randrange(max_ydeg + 1))}
    )


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unit_context_routes_match_the_A1_oracles(p, seed):
    # degrees past p in both x and y reach the Hasse derivatives H_m with
    # m >= p and the falling factorials that vanish mod p; h = f^m q with
    # m in {2, 3} and deg h >= p
    field = FieldSpec(p)
    rng = random.Random(seed)
    top = max(p, 3) + 2
    f = random_poly(rng, field, 2 * top)
    u = random_weyl(rng, field, top, 3)
    assert d_on_poly(f, u) == d_on_poly_sum(f, u)
    # over Q with denominators in both operands, such as 1/2 and -3/5
    fq = rational_poly(rng, 2 * top)
    uq = WeylElement(QQ, {i: rational_poly(rng, 3) for i in range(rng.randrange(top + 1))})
    assert d_on_poly(fq, uq) == d_on_poly_sum(fq, uq)
    # `apply` over A_1 = A_h at h = 1 is the Leibniz sum, for any image pair
    unit = weyl_context(field)
    dx, dy = random_weyl(rng, field, 3, 3), random_weyl(rng, field, 3, 3)
    a = random_weyl(rng, field, top, 3)
    got = Derivation(unit, dx, dy).apply(a)
    assert got == generic_a1_apply(dx, dy, a) == generic_a1_apply_sum(dx, dy, a)
    zero = WeylElement.zero(field)
    ctx = AhContext(repeated_factor_h(rng, field))
    if p:
        assert ex_apply(a) == generic_a1_apply(WeylElement.y_power(field, p - 1), zero, a)
        assert ey_apply(a) == generic_a1_apply(zero, WeylElement.x_power(field, p - 1), a)
        assert ex_on_yhat_by_w(ctx) == ex_on_yhat_closed_form(ctx) == ex_apply(ctx.yhat)
    # T_k = P_(k-1) of D_g
    g = random_poly(rng, field, 3)
    numerators = D_g(g, ctx).dy_numerators(top)
    for k in range(1, top + 1):
        assert numerators[k - 1] == WeylElement.from_poly(gh_derivative_times_hk(g, k, ctx))
    # extension: the verdict and the images of the right-division route, and
    # the extension restricts back to D on A_h
    draws = [
        ad(random_normalizer(rng, ctx), ctx),
        D_g(g * ctx.h, ctx) + ad(random_normalizer(rng, ctx), ctx),
        D_g(Poly.one(field) + g * ctx.h, ctx),  # g coprime to h: never extends
        verify_random_derivation(rng, ctx),
    ]
    for d in draws:
        ext = extend_to_A1(d)
        want = extend_to_A1_by_right_division(d)
        if isinstance(want, NotExtendable):
            assert isinstance(ext, NotExtendable)
            continue
        assert ext.context is unit and (ext.image_x, ext.image_yhat) == want
        assert ext.validate() is None
        b = random_ah(rng, ctx, max_ydeg=top)
        assert ext.apply(b) == d.apply(b)
    assert isinstance(extend_to_A1(draws[2]), NotExtendable)


def test_d_on_poly_does_not_stop_at_a_zero_hasse_derivative():
    # over GF(2): d(1 + x^2) = x y + y x = 1 + 2 x y = 1, from H_2 although H_1 = 0
    f = P(GF2, 1, 0, 1)
    y = WeylElement.y_power(GF2, 1)
    assert hasse_derivative(f, 1).is_zero()
    assert d_on_poly(f, y) == WeylElement.one(GF2) == d_on_poly_sum(f, y)


# -- apply against the center-basis route it replaced --------------------------------------


def center_element(ctx, z):
    """z(x^p, zeta) built term by term: sum_k z_k(x^p) h^(pk) y^(pk)."""
    p = ctx.p
    out = WeylElement.zero(ctx.field)
    for k, c in sorted(z.terms.items()):
        w = c.substitute_xp()
        out = out + WeylElement.from_term(w * ctx.h ** (p * k), p * k)
    return out


def zbasis_collect(ctx, a):
    """Oracle: coordinates over the center basis {x^i yhat^j : 0 <= i, j < p},
    {(i, j): z_ij in F[t1, t2]} with a = sum z_ij x^i yhat^j, by descending
    y-degree elimination with general Weyl products."""
    p = ctx.p
    F = ctx.field
    out = {}
    work = a
    while not work.is_zero():
        m = work.y_degree
        q, j = divmod(m, p)
        w = work.coefficient(m).exact_div(ctx.h**m)
        for i, part in enumerate(w.frobenius_split()):
            if part:
                add = CenterPoly.from_t1_poly(part) * CenterPoly.t2(F, q)
                out[i, j] = out[i, j] + add if (i, j) in out else add
        zeta_q = WeylElement.from_term(ctx.h ** (p * q), p * q)
        work = work - zeta_q.poly_mul(w) * repeated_product(ctx.yhat, j)
    return {key: z for key, z in out.items() if z}


def center_basis_apply(d, a):
    """Oracle: the characteristic-p apply through the center basis,
    D(z x^i yhat^j) = D(z) x^i yhat^j + z D(x^i yhat^j) with
    D(z) = dz/dt1 D(x^p) + dz/dt2 D(zeta), by general Weyl products."""
    ctx = d.context
    F = ctx.field
    out = WeylElement.zero(F)
    for (i, j), z in zbasis_collect(ctx, a).items():
        xi = Poly.monomial(F, 1, i)
        dz = center_element(ctx, z.d_dt1()) * d.image_of_xp()
        dz = dz + center_element(ctx, z.d_dt2()) * d.image_of_zeta()
        out = out + dz * repeated_product(ctx.yhat, j).poly_mul(xi)
        dbasis = d_on_poly(xi, d.image_x) * repeated_product(ctx.yhat, j)
        dbasis = dbasis + yhat_power_image_sum(d, j).poly_mul(xi)
        out = out + center_element(ctx, z) * dbasis
    return out


@given(
    p=st.sampled_from([0, 2, 3, 5, 7]),
    coeffs=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_apply_matches_center_basis_route_and_leibniz(p, coeffs, seed):
    # y-degree past 2p gives zeta^k with k >= 2, x-degree past p gives
    # every Frobenius part x^i of the center-basis coordinates
    ctx = context_from(FieldSpec(p), coeffs)
    rng = random.Random(seed)
    d = verify_random_derivation(rng, ctx)
    a = random_ah(rng, ctx, max_ydeg=2 * p + 2 if p else 5, max_xdeg=p + 2)
    got = d.apply(a)
    if p:
        assert got == center_basis_apply(d, a)
    b = random_ah(rng, ctx, max_ydeg=p + 1)
    assert d.apply(a * b) == got * b + a * d.apply(b)


@given(
    p=st.sampled_from([0, 2, 3, 5, 7]),
    coeffs=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_yhat_zeta_coordinates_rebuild_the_element(p, coeffs, seed):
    ctx = context_from(FieldSpec(p), coeffs)
    a = random_ah(random.Random(seed), ctx, max_ydeg=2 * p + 2 if p else 5, max_xdeg=4)
    coords = yhat_zeta_collect(ctx, a)
    back = WeylElement.zero(ctx.field)
    for (j, k), g in coords.items():
        assert g and (j < p if p else k == 0)
        zeta_k = repeated_product(ctx.zeta_element(), k) if k else WeylElement.one(ctx.field)
        back = back + WeylElement.from_poly(g) * zeta_k * repeated_product(ctx.yhat, j)
    assert back == a


def random_h(rng, field, min_deg):
    """h of degree in [min_deg, min_deg + 2]; over Q with fractional coefficients."""
    deg = rng.randrange(min_deg, min_deg + 3)
    if field.is_char_zero:
        coeffs = [Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3])) for _ in range(deg)]
        return Poly(field, coeffs + [Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2]))])
    return Poly(field, [rng.randrange(field.p) for _ in range(deg)] + [rng.randrange(1, field.p)])


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_closed_form_brackets_match_commutators(p, seed):
    # deg h >= p and y-degrees past p: C(j, k) = 0 mod p for j mod p < k <= deg h
    field = FieldSpec(p)
    rng = random.Random(seed)
    ctx = AhContext(random_h(rng, field, max(p, 2)))
    a = random_weyl(rng, field, 2 * p + 3 if p else 6, 4)
    if field.is_char_zero:
        a = a.poly_mul(Poly.constant(field, Fraction(1, rng.choice([1, 2, 6]))))
    # ad_a(yhat) = [a, yhat] from (D(x), W) = ([a, x], h [a, y]), for any a in A_1
    x, y = ctx.x_elt, WeylElement.y_power(field, 1)
    got = _from_w(ctx, commutator(a, x), WeylElement.from_poly(ctx.h) * commutator(a, y)).image_yhat
    assert got == commutator(a, ctx.yhat)
    assert all(r for r in got.terms.values())
    assert commutator(a, x) == a * x - x * a == -commutator(x, a)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_apply_and_bracket_make_no_weyl_product(p, monkeypatch):
    field = FieldSpec(p)
    rng = random.Random(11 + p)
    ctx = AhContext(random_h(rng, field, 3))
    d = verify_random_derivation(rng, ctx)
    e = verify_random_derivation(rng, ctx)
    a = random_ah(rng, ctx, max_ydeg=2 * p + 2 if p else 5)
    phi = AhAlgebraMap(random_h(rng, field, 2), ctx)
    unchecked = Derivation(ctx, d.image_x, d.image_yhat)
    n = random_normalizer(rng, ctx)
    fresh = AhContext(ctx.h)
    calls = []
    product = WeylElement.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    assert unchecked.validate() is None
    inner = ad(n, ctx)
    d.apply(a)
    d.bracket(e)
    is_inner(d)
    if p:
        d.image_of_zeta()
        bhat_x(fresh)
    phi.apply(a)
    monkeypatch.undo()
    assert not calls
    assert inner.image_yhat == n * ctx.yhat - ctx.yhat * n
    # with the numerators P_l and D(zeta) warm, apply and the criterion sum
    # raw rows: no element sum and no left multiplication by a polynomial
    sums = []

    def counting(name):
        method = getattr(WeylElement, name)

        def wrapper(self, other):
            sums.append(name)
            return method(self, other)

        return wrapper

    for name in ("__add__", "poly_mul"):
        monkeypatch.setattr(WeylElement, name, counting(name))
    got = d.apply(a)
    defect = d.criterion_defect()
    image = phi.apply(a)
    monkeypatch.undo()
    assert not sums
    assert got == apply_by_elements(d, a) and defect.is_zero()
    assert image == aut_by_yhat_coordinates(phi, a)


@given(
    p=st.sampled_from([0, 2, 3, 5, 7]),
    coeffs=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_central_shifts_match_products(p, coeffs, seed):
    ctx = context_from(FieldSpec(p), coeffs)
    F = ctx.field
    rng = random.Random(seed)
    w = random_weyl(rng, F, 2 * p + 1 if p else 4, 3)
    g = random_poly(rng, F, 3)
    if not p:
        assert ctx.zeta_mul(w, 0, g) == WeylElement.from_poly(g) * w
        assert ctx.zeta_mul(w, 0) == w
        return
    k = rng.randrange(0, 3)
    zeta_k = repeated_product(ctx.zeta_element(), k)
    assert ctx.zeta_mul(w, k, g) == WeylElement.from_poly(g) * zeta_k * w
    assert ctx.zeta_mul(w, k) == zeta_k * w == w * zeta_k
    z = CenterPoly(F, {(rng.randrange(3), rng.randrange(3)): rng.randrange(p) for _ in range(3)})
    assert ctx.central_mul(z, w) == center_element(ctx, z) * w == w * center_element(ctx, z)
    assert ctx.central_mul(z, WeylElement.one(F)) == center_element(ctx, z)
    assert ctx.central_mul(CenterPoly.t1(F), w) == WeylElement.x_power(F, p) * w


def test_bhat_built_once_per_context():
    ctx = AhContext(P(GF3, 1, 0, 1))
    assert bhat_f(ctx) is bhat_f(ctx) and bhat_x(ctx) is bhat_x(ctx)
    other = AhContext(P(GF3, 1, 0, 1))
    for build in (bhat_f, bhat_x):
        assert build(other) is not build(ctx)
        assert (build(other).image_x, build(other).image_yhat) == (build(ctx).image_x, build(ctx).image_yhat)
    assert ctx.yhat is ctx.yhat and ctx.x_elt is ctx.x_elt


def decompose_Ah_char0_via_A1(d):
    """Oracle: (g, terms, witness) of the characteristic-0 decomposition by
    extension to A_1: peel D_g off the yhat-constant term of D(yhat), extend
    the rest to A_1 (D(yhat) = a h, D(h) = b h, y -> a - y b), decompose
    there (all inner), and normalize the a_n coefficients."""
    ctx = d.context
    F = ctx.field
    r0 = yhat_zeta_collect(ctx, d.image_yhat).get((0, 0), Poly.zero(F))
    q, g = divmod(r0, ctx.h)
    a = right_div_exact(d.image_yhat - WeylElement.from_poly(r0), ctx.h)
    b = right_div_exact(d_on_poly(ctx.h, d.image_x), ctx.h)
    u, w = decompose_A1_char0(d.image_x, a - WeylElement.y_power(F, 1) * b)
    beta = u + WeylElement.from_poly(w)
    witness = WeylElement.from_poly((-q).antiderivative() + beta.coefficient(0))
    terms = []
    for n, rn in sorted(beta.terms.items()):
        if n == 0:
            continue
        qn, rt = divmod(rn.exact_div(ctx.pi_h * ctx.h_power(n - 1)), ctx.h_over_pi)
        if not qn.is_zero():
            witness = witness + WeylElement.from_term(qn * ctx.h_power(n), n)
        if not rt.is_zero():
            terms.append((n, rt))
    return g, tuple(terms), witness


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decompose_Ah_char0_matches_A1_extension_route(seed):
    # h with repeated factors and fractional coefficients; D = D_g + ad of a
    # normalizer element whose y^i coefficients reach past pi_h h^(i-1) h/pi_h,
    # so the witness takes A_h terms as well as a polynomial
    rng = random.Random(seed)
    h = Poly.constant(QQ, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 5])))
    for _ in range(rng.randrange(1, 4)):
        h = h * random_h(rng, QQ, 1) ** rng.randrange(1, 4)
    ctx = AhContext(h)
    top = int(h.degree) + 2
    a = WeylElement.from_poly(random_h(rng, QQ, 0))
    for i in range(1, rng.randrange(1, 6)):
        r = random_h(rng, QQ, rng.randrange(top))
        a = a + WeylElement.from_term(r * ctx.pi_h * ctx.h_power(i - 1), i)
    d = D_g(random_h(rng, QQ, rng.randrange(top)), ctx) + ad(a, ctx)
    dec = decompose_Ah_char0(d)
    assert (dec.g, dec.terms, dec.inner_witness) == decompose_Ah_char0_via_A1(d)


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_ad_x_inverts_the_bracket_with_x(p, seed):
    # w = [b, x] + rest, with rest exactly the terms at y-degree -1 mod p
    field = FieldSpec(p)
    rng = random.Random(seed)
    w = random_weyl(rng, field, 3 * p + 2 if p else 6, 4)
    if field.is_char_zero:
        w = w.poly_mul(Poly.constant(field, Fraction(1, rng.choice([1, 2, 6]))))
    b, rest = _split_ad_x(w)
    assert commutator(b, WeylElement.x_power(field, 1)) + rest == w
    assert rest.terms == {i: r for i, r in w.terms.items() if p and i % p == p - 1}


# -- apply against the yhat-zeta route it replaced, and the element-level routes -------------


def yhat_power(ctx, n):
    """Oracle: yhat^n by general Weyl products, each from the last, kept
    per context."""
    return ctx.memo(
        ("oracle yhat power", n),
        lambda: yhat_power(ctx, n - 1) * ctx.yhat if n else WeylElement.one(ctx.field),
    )


def yhat_zeta_collect(ctx, a, period=None):
    """Oracle: {(j, k): g_jk} with a = sum g_jk zeta^k yhat^j, every g_jk
    nonzero in F[x], j < p in characteristic p and k = 0 over Q. With
    period 0 it reads the yhat coordinates a = sum g_j0 yhat^j in any
    characteristic.

    One elimination on raw rows, by descending y-degree m = period k + j
    (k = 0 for period 0; period is p if omitted): g = r_m / h^m is an
    exact division, which raises MembershipError for an a outside A_h, and
    the rows of g zeta^k yhat^j below its top term g h^m y^m = r_m are
    subtracted. Over Q the rows are integers over a running denominator."""
    F = ctx.field
    p = F.characteristic if period is None else period
    den, terms = F.lift(a.terms)
    rows = {i: list(r) for i, r in terms.items()}
    out = {}
    for m in range(a.y_degree, -1, -1):
        row_m = rows.pop(m, None)
        if row_m is None or not (r := _kernel(F)._reduced(F, row_m, den)):
            continue
        k, j = divmod(m, p) if p else (0, m)
        try:
            g = r.exact_div(ctx.h_power(m))
        except ExactDivisionError as e:
            raise MembershipError(
                f"y-degree {m} coefficient not divisible by h^{m}: not in A_h"
            ) from e
        out[j, k] = g
        yj = yhat_power(ctx, j)
        assert yj.terms.get(j) == ctx.h_power(j) and yj.y_degree == j
        if n := p * k:
            g = g * ctx.h_power(n)
        dg, (g,) = F.lift((g,))
        dy, below = F.lift({i: s for i, s in yj.terms.items() if i < j})
        if den % (step := dg * dy):
            up = lcm(den, step) // den
            for row in rows.values():
                row[:] = [up * c for c in row]
            den *= up
        gc = [-(den // step) * c for c in g]
        for i, s in below.items():
            _accumulate(rows, i + n, gc, s)
    return out


def yhat_iterates(d, n):
    """Oracle: the iterates c_l = (ad yhat)^l(D(yhat)) for l < n (at least),
    cached on the derivation, each the commutator of yhat with the last, by
    general products."""
    iterates = d._cache.setdefault("oracle_yhat_iterates", [d.image_yhat])
    while len(iterates) < n:
        iterates.append(commutator(d.context.yhat, iterates[-1]))
    return iterates


def zeta_by_yhat_iterates(d):
    """Oracle: D(zeta) = D(yhat^p) - d(c) yhat - c D(yhat), from zeta =
    yhat^p - c yhat with c = delta^p(x)/h, where D(yhat^p) = c_(p-1) is
    Jacobson's p-th power identity."""
    ctx = d.context
    c = ctx.zeta_hat_coeff
    out = yhat_iterates(d, ctx.p)[ctx.p - 1]
    return out - d_on_poly(c, d.image_x) * ctx.yhat - d.image_yhat.poly_mul(c)


def add_times_yhat(ctx, rows, terms):
    """Oracle: rows += a yhat over the raw coefficients {j: r} of a, lifted
    over Q, so the rows are over the lift denominator times that of the
    lifted derivative chain of h (`lifted_chain`): r y^j yhat = r y^(j+1) h
    = sum_k C(j+1, k) r h^(k) y^(j+1-k), the sum stopping at deg h, and in
    characteristic p at (j+1) mod p (Lucas)."""
    p = ctx.field.characteristic
    chain = lifted_chain(ctx.h)[1]
    for j, r in terms.items():
        jp = (j + 1) % p if p else j + 1
        for k in range(min(jp, len(chain) - 1) + 1):
            _accumulate(rows, j + 1 - k, [comb(jp, k) * c for c in chain[k]], r)


def apply_by_yhat_zeta(d, a):
    """Oracle: D(a) in the coordinates a = sum g_jk zeta^k yhat^j.

    Leibniz gives D(a) = sum D(g_jk zeta^k) yhat^j + g_jk zeta^k D(yhat^j),
    where D(g zeta^k) = d(g) zeta^k + k g zeta^(k-1) D(zeta) and D(yhat^n)
    = sum_{l < n} C(n, l+1) c_l yhat^(n-1-l). So D(a) = sum_m w_m yhat^m,
    summed by Horner in yhat on raw rows: the pieces go into rows keyed by
    (m, k) over dg den, zeta^k is h^(pk) and a shift by pk, and over Q each
    Horner step multiplies by the lifted h, so w_m enters times
    dh^(top-m)."""
    ctx = d.context
    F = ctx.field
    p = F.characteristic
    coords = yhat_zeta_collect(ctx, a)
    if not coords:
        return WeylElement.zero(F)
    top = max(j for j, _ in coords)
    images = [d.image_x, *yhat_iterates(d, top)[:top]]
    if any(k % p for _, k in coords if k):
        images.append(zeta_by_yhat_iterates(d))
    den, (u, *lifted) = _lift_elements(F, images)
    dg, gs = F.lift(tuple(coords.values()))
    rows = defaultdict(dict)  # (m, k) -> raw rows of the zeta^k yhat^m summand
    for (j, k), gc in zip(coords, gs):
        add_d_on_poly(F, rows[j, k], gc, u)
        if k and k % p:
            kg = [k * c for c in gc]
            for i, r in lifted[top].items():
                _accumulate(rows[j, k - 1], i, kg, r)
        for l in range(j):
            if b := comb(j, l + 1) % p if p else comb(j, l + 1):
                bg = [b * c for c in gc]
                for i, r in lifted[l].items():
                    _accumulate(rows[j - 1 - l, k], i, bg, r)
    w = [rows.pop((m, 0), {}) for m in range(top + 1)]
    for (m, k), part in rows.items():
        hk = ctx.h_power(p * k).coeffs
        for i, r in part.items():
            _accumulate(w[m], i + p * k, hk, r)
    dh = lifted_chain(ctx.h)[0]
    out = {}
    for m in range(top, -1, -1):
        step = {}
        add_times_yhat(ctx, step, out)
        scale = [dh ** (top - m)]
        for i, r in w[m].items():
            _accumulate(step, i, scale, r)
        out = {i: [c % p for c in r] for i, r in step.items()} if p else step
    return WeylElement._from_rows(F, out, dg * den * dh**top)


def apply_by_elements(d, a):
    """Oracle: `apply_by_yhat_zeta` summed as Weyl elements, each piece and
    each Horner step reduced: d(g), k g D(zeta) and C(j, l+1) g c_l by
    `poly_mul`, each (m, k) sum by `zeta_mul`, Horner by products with yhat."""
    ctx = d.context
    F = ctx.field
    coords = yhat_zeta_collect(ctx, a)
    top = max((j for j, _ in coords), default=0)
    iterates = yhat_iterates(d, top)
    parts = defaultdict(list)  # (m, k) -> summands of the zeta^k yhat^m term
    for (j, k), g in coords.items():
        parts[j, k].append(d_on_poly(g, d.image_x))
        if k and k % F.characteristic:
            parts[j, k - 1].append(zeta_by_yhat_iterates(d).poly_mul(g.scale(k)))
        for l in range(j):
            parts[j - 1 - l, k].append(iterates[l].poly_mul(g.scale(comb(j, l + 1))))
    w = [WeylElement.zero(F)] * (top + 1)
    for (m, k), pieces in parts.items():
        w[m] = w[m] + ctx.zeta_mul(sum(pieces, WeylElement.zero(F)), k)
    out = WeylElement.zero(F)
    for m in range(top, -1, -1):
        out = out * ctx.yhat + w[m]
    return out


def criterion_defect_by_elements(d):
    """Oracle: [D(yhat), x] + [yhat, D(x)] - d(h) as three reduced elements,
    [yhat, D(x)] by general products and d(h) by `d_on_poly`."""
    ctx = d.context
    u = d.image_x
    return commutator(d.image_yhat, ctx.x_elt) + (ctx.yhat * u - u * ctx.yhat) - d_on_poly(ctx.h, u)


def fraction(rng, field):
    """A scalar such as 2/3 over Q, 1 over GF(p)."""
    if not field.is_char_zero:
        return 1
    return Fraction(rng.choice([1, -2, 3]), rng.choice([2, 3, 5]))


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_raw_apply_and_criterion_match_element_routes(p, seed):
    # y-degrees past 2p give zeta^k with k >= 2 and, at k = 1, the D(zeta)
    # pieces; over Q, h, the images and a all carry denominators
    field = FieldSpec(p)
    rng = random.Random(seed)
    ctx = AhContext(random_h(rng, field, 1))
    d = verify_random_derivation(rng, ctx).scale(fraction(rng, field))
    a = random_ah(rng, ctx, max_ydeg=2 * p + 2 if p else 5).scale(fraction(rng, field))
    assert d.criterion_defect() == criterion_defect_by_elements(d) == WeylElement.zero(field)
    assert d.apply(a) == apply_by_elements(d, a)
    assert d.apply(WeylElement.zero(field)) == WeylElement.zero(field)
    # invalid images, in A_h and outside it: the same defect, so the same text
    for u, v in (
        (random_ah(rng, ctx, max_ydeg=3), random_ah(rng, ctx, max_ydeg=3)),
        (random_weyl(rng, field, 3, 3), random_weyl(rng, field, 3, 3)),
    ):
        bad = Derivation(ctx, u.scale(fraction(rng, field)), v.scale(fraction(rng, field)))
        want = criterion_defect_by_elements(bad)
        assert bad.criterion_defect() == want
        got = bad.validate()
        mx, my = ctx.ah_membership(bad.image_x), ctx.ah_membership(bad.image_yhat)
        if got is None:
            assert mx and my and want.is_zero()
        else:
            assert got.describe() == InvalidDerivation(mx, my, want).describe()


def repeated_factor_h(rng, field):
    """h = f^m g with f linear, m in {2, 3} and deg h >= p; over Q with
    fractional coefficients."""
    p = field.characteristic
    f = Poly(field, [random_h(rng, field, 0).coeffs[0], 1])
    m = rng.randrange(2, 4)
    return f**m * random_h(rng, field, max(p - m, 0))


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_matches_yhat_zeta_route(p, seed):
    # a repeated factor and deg h >= p; y-degrees past 2p reach zeta^2 on
    # the old route and every l < p on the new; over Q, h, the images and a
    # carry denominators; in characteristic p the draws add D_qbreve and
    # bhat_f, so they are not all inner
    field = FieldSpec(p)
    rng = random.Random(seed)
    ctx = AhContext(repeated_factor_h(rng, field))
    d = verify_random_derivation(rng, ctx).scale(fraction(rng, field))
    e = verify_random_derivation(rng, ctx)
    a = random_ah(rng, ctx, max_ydeg=2 * p + 2 if p else 5).scale(fraction(rng, field))
    assert d.apply(a) == apply_by_yhat_zeta(d, a)
    for w in (e.image_x, e.image_yhat):
        assert d.apply(w) == apply_by_yhat_zeta(d, w)
    if p:
        assert d.image_of_zeta() == zeta_by_yhat_iterates(d)
        assert e.image_of_zeta() == zeta_by_yhat_iterates(e)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_apply_rejects_non_members_with_the_collect_text(p):
    # a non-member at the top y-degree, and one below a member top term that
    # the old route eliminates first: the same degree and text on both routes
    field = FieldSpec(p)
    rng = random.Random(5 + p)
    ctx = AhContext(repeated_factor_h(rng, field))
    d = verify_random_derivation(rng, ctx)
    x = Poly.x(field)
    top = 2 * p + 1 if p else 4
    member = WeylElement.from_term(ctx.h_power(top), top)
    for bad, m in (
        (WeylElement.from_term(x, top), top),
        (member + WeylElement.from_term(x, top - 1), top - 1),
        (member + WeylElement.from_term(x * ctx.h_power(1), 2), 2),
    ):
        text = rf"^y-degree {m} coefficient not divisible by h\^{m}: not in A_h$"
        with pytest.raises(MembershipError, match=text):
            d.apply(bad)
        with pytest.raises(MembershipError, match=text):
            apply_by_yhat_zeta(d, bad)
