"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every test prints one pass/fail line on the real stdout (bypassing capture)
so a `pytest tests/test_acceptance.py` run shows the per-criterion verdicts.
"""

import random
import sys
from fractions import Fraction

import pytest

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext, weyl_context
from ahweyl.derivations import (
    D_g,
    Derivation,
    InnerWitness,
    ad,
    bhat_f,
    is_inner,
    restrict_to_center,
)
from ahweyl.fields import FieldSpec, QQ
from ahweyl.hochschild import (
    BAd,
    BBf,
    BBx,
    BDg,
    DerExpr,
    HH1ClassChar0,
    bracket_char0,
    bracket_charp,
    canonical_class_char0,
    center_HH1_char0,
    freeness_and_module_report_charp,
    generator_classes_char0,
    structure_report_char0,
)
from ahweyl.poly import Poly
from ahweyl.verify import random_normalizer_element, random_poly, random_weyl
from ahweyl.weyl import WeylElement, commutator, varpi

from test_derivations import ex_as_derivation, ey_as_derivation
from test_hochschild import WittClassElement, WittQuotient, nilpotent_ideal_membership


def announce(num, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{verdict}] {text}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {text}"


def xn(field, n):
    return Poly.monomial(field, 1, n)


def test_criterion_01_weyl_innerness_char0():
    """50 random derivations of A_1 decompose as ad_u + ad_w exactly."""
    rng = random.Random(1001)
    F = QQ
    x = WeylElement.x_power(F, 1)
    y = WeylElement.y_power(F, 1)
    ok = True
    for _ in range(50):
        dx = random_weyl(rng, F, max_ydeg=4, max_xdeg=4)
        e0 = random_poly(rng, F, 4)
        terms = {0: e0} if not e0.is_zero() else {}
        for j, r in dx.terms.items():
            rp = r.derivative()
            if not rp.is_zero():
                terms[j + 1] = rp.scale(Fraction(-1, j + 1))
        dy = WeylElement(F, terms)
        res = is_inner(Derivation(weyl_context(F), dx, dy))
        b = res.witness if isinstance(res, InnerWitness) else None
        ok = ok and b is not None and commutator(b, x) == dx and commutator(b, y) == dy
    announce(1, ok, "Der(A_1) = Inder(A_1) in characteristic 0, 50 random reassemblies")


def test_criterion_02_center_dimension():
    """dim Z(HH^1(A_h)) = deg pi_h with explicit centrality brackets."""
    cases = [
        ((0, 1), 1),
        ((0, 0, 1), 1),
        ((0, 0, 0, 1), 1),
        ((0, 0, -1, 1), 2),  # x^2 (x - 1)
        ((-1, 0, 1), 2),  # (x - 1)(x + 1)
    ]
    ok = True
    for coeffs, want_dim in cases:
        ctx = AhContext(Poly(QQ, coeffs))
        basis = center_HH1_char0(ctx)
        ok = ok and len(basis) == int(ctx.pi_h.degree) == want_dim
        # >= 10 generating derivations (their classes may be zero; the
        # brackets are still explicit)
        gens = [HH1ClassChar0(ctx, xn(QQ, i)) for i in range(max(int(ctx.h.degree), 5))]
        gens += [
            HH1ClassChar0(ctx, Poly.zero(QQ), [(n, xn(QQ, i))])
            for n in range(1, 5)
            for i in range(max(int(ctx.h_over_pi.degree), 2))
        ]
        ok = ok and len(gens) >= 10
        for z in basis:
            for g in gens:
                ok = ok and bracket_char0(z, g).is_zero()
    announce(2, ok, "dim Z(HH^1) = deg pi_h on five sample h, centrality by brackets")


def test_criterion_03_hh1_of_Ax():
    """HH^1(A_x) is one-dimensional with basis the class of D_1."""
    ctx = AhContext(Poly.x(QQ), degree_bound=24)
    d1 = D_g(Poly.one(QQ), ctx)
    verdict = is_inner(d1)
    ok = not isinstance(verdict, InnerWitness)
    cls1 = canonical_class_char0(d1)
    ok = ok and cls1.g == Poly.one(QQ) and cls1.terms == ()
    # spanning families up to the degree bound collapse into F * [D_1]
    for i in range(25):
        cls = canonical_class_char0(D_g(xn(QQ, i), ctx))
        ok = ok and cls.terms == () and cls.g.is_constant()
    rng = random.Random(1003)
    for _ in range(20):
        a = random_normalizer_element(rng, ctx, max_ydeg=4)
        cls = canonical_class_char0(ad(a, ctx))
        ok = ok and cls.is_zero()
    announce(3, ok, "HH^1(A_x) = F [D_1] at degree bound 24, D_1 outer")


@pytest.mark.parametrize("m", [2, 3])
def test_criterion_04_witt_relations(m):
    """The quotient map intertwines class brackets with Witt brackets."""
    ctx = AhContext(xn(QQ, m), factors=[(Poly.x(QQ), m)])
    wq = WittQuotient(ctx)
    ok = True
    for lm in range(-1, 6):
        for ln in range(-1, 6):
            e1 = wq.e_class(Poly.one(QQ), lm)
            e2 = wq.e_class(Poly.one(QQ), ln)
            img_br = wq.map_class(bracket_char0(e1, e2))
            m1 = wq.map_class(e1)
            m2 = wq.map_class(e2)
            w1 = m1[0] if m1 else WittClassElement(Poly.zero(QQ), lm)
            w2 = m2[0] if m2 else WittClassElement(Poly.zero(QQ), ln)
            want = WittQuotient.witt_bracket(w1, w2, wq.pi_hp)
            ok = ok and img_br == want
    announce(4, ok, f"Witt relations [e_r,m, e_s,n] -> (n-m) images for h = x^{m}")


def test_criterion_05_nilpotency():
    """h = x^3: N != 0 with chain bound 2; h = x^2: N = 0."""
    ctx3 = AhContext(xn(QQ, 3), factors=[(Poly.x(QQ), 3)])
    members = [
        HH1ClassChar0(ctx3, Poly.zero(QQ), [(n, Poly.x(QQ))]) for n in range(1, 6)
    ] + [HH1ClassChar0(ctx3, Poly.zero(QQ), [(0, Poly.x(QQ))])]
    ok = all(not c.is_zero() for c in members)
    ok = ok and all(nilpotent_ideal_membership(c, ctx3) for c in members)
    rep3 = structure_report_char0(ctx3)
    ok = ok and not rep3.nilpotent_N_trivial
    ok = ok and rep3.nilpotency_index_bound == 2 <= 3 - 1
    # the chain vanishes at the bound: N_2 members are zero classes, and
    # brackets of N members land in N_2
    for c in members:
        if nilpotent_ideal_membership(c, ctx3, power=2):
            ok = ok and c.is_zero()
        for c2 in members:
            ok = ok and nilpotent_ideal_membership(bracket_char0(c, c2), ctx3, power=2)
    ctx2 = AhContext(xn(QQ, 2), factors=[(Poly.x(QQ), 2)])
    rep2 = structure_report_char0(ctx2)
    ok = ok and rep2.nilpotent_N_trivial
    ok = ok and HH1ClassChar0(ctx2, Poly.zero(QQ), [(1, Poly.x(QQ))]).is_zero()
    announce(5, ok, "N != 0 for h = x^3 with chain bound 2; N = 0 for h = x^2")


def test_criterion_06_zeta_forms():
    """zeta = h^p y^p = yhat-form = ordered product, and is central."""
    ok = True
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for coeffs in [(1,), (0, 1), (0, 0, 1), (1, 0, 1)]:
            ctx = AhContext(Poly(field, coeffs))
            z = ctx.zeta_element()
            # yhat^p - (delta^p(x)/h) yhat, yhat^p by Weyl products
            power = prod = ctx.yhat
            for k in range(1, p):
                power = power * ctx.yhat
                prod = prod * (
                    ctx.yhat + WeylElement.from_poly(ctx.h.derivative().scale(k))
                )
            ok = ok and power - ctx.yhat.poly_mul(ctx.zeta_hat_coeff) == z
            ok = ok and prod == z
            ok = ok and commutator(z, ctx.x_elt).is_zero()
            ok = ok and commutator(z, ctx.yhat).is_zero()
    announce(6, ok, "zeta forms agree and commute with x, yhat (p in {2,3,5})")


def test_criterion_07_ex_ey_varpi():
    """[E_x, E_y] = ad_varpi on the generators of A_1."""
    ok = True
    for p in (2, 3, 5):
        field = FieldSpec(p)
        from ahweyl.derivations import ex_apply, ey_apply

        w = varpi(field)
        for gen in (WeylElement.x_power(field, 1), WeylElement.y_power(field, 1)):
            lhs = ex_apply(ey_apply(gen)) - ey_apply(ex_apply(gen))
            ok = ok and lhs == commutator(w, gen)
    announce(7, ok, "[E_x, E_y] = ad_varpi on generators (p in {2,3,5})")


def test_criterion_08_restriction_images():
    """Res images match the closed forms for h = 1 and h = x^m."""
    ok = True
    # h = 1: Res(E_x) = -d/dt1, Res(E_y) = -d/dt2
    for p in (2, 3, 5):
        field = FieldSpec(p)
        ctx = AhContext(Poly.one(field))
        res_ex = restrict_to_center(ex_as_derivation(ctx))
        res_ey = restrict_to_center(ey_as_derivation(ctx))
        ok = ok and res_ex.a == -CenterPoly.one(field) and res_ex.b.is_zero()
        ok = ok and res_ey.a.is_zero() and res_ey.b == -CenterPoly.one(field)
    # h = x^m, m in {1, 2, 3}: Res(D_qbreve) = hbar d/dt2 with
    # hbar = t1^(m-k) (n = 0) or t1^(m-k-1), and Res(bhat_f) = t1^(m-k) d/dt1
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for m in (1, 2, 3):
            ctx = AhContext(xn(field, m))
            k, n = divmod(m, p)
            want_bf = CenterPoly.t1(field, m - k)
            want_hbar = CenterPoly.t1(field, m - k if n == 0 else m - k - 1)
            res_q = restrict_to_center(D_g(ctx.qbreve, ctx))
            res_bf = restrict_to_center(bhat_f(ctx))
            ok = ok and res_q.a.is_zero() and res_q.b == want_hbar
            ok = ok and res_bf.b.is_zero() and res_bf.a == want_bf
            ok = ok and CenterPoly.from_t1_poly(ctx.hbar) == want_hbar
    announce(8, ok, "Res images match the closed-form table (h = 1, x, x^2, x^3)")


def test_criterion_09_freeness():
    """free over Z(A_h) iff deg(h/pi_h) = 0, across 20 samples; inner
    witnesses certified in the free cases."""
    rng = random.Random(1009)
    samples = []
    for p in (2, 3, 5):
        field = FieldSpec(p)
        samples += [
            Poly.one(field),
            Poly.x(field),
            Poly(field, [1, 1]),
            xn(field, 2),
            Poly(field, [0, 1, 1]),  # x(x+1), squarefree
            xn(field, p),
            Poly(field, [0, 0, 0, 1]),
        ]
    samples = samples[:20] if len(samples) > 20 else samples
    ok = len(samples) >= 20
    for h in samples:
        ctx = AhContext(h)
        rep = freeness_and_module_report_charp(ctx, seed=rng.randrange(1000))
        want_free = int(ctx.h_over_pi.degree) == 0
        ok = ok and rep.free_over_center == want_free
        if want_free:
            ok = ok and rep.freeness_certificates == 10
    announce(9, ok, "freeness iff h/pi_h is a unit across 20 samples, 10 witnesses each")


def test_criterion_10_bracket_oracles():
    """Closed-form brackets agree with operator brackets, >= 100 instances
    per characteristic; operator-level defects certified inner."""
    count0 = 0
    ok = True
    rng = random.Random(1010)
    for coeffs in [(0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, -1, 1), (0, 1, 0, 1)]:
        ctx = AhContext(Poly(QQ, coeffs))
        gens = generator_classes_char0(ctx, max_n=3)
        for _ in range(20):
            c1 = gens[rng.randrange(len(gens))]
            c2 = gens[rng.randrange(len(gens))]
            closed = bracket_char0(c1, c2)
            op = c1.to_derivation().bracket(c2.to_derivation())
            ok = ok and canonical_class_char0(op) == closed
            diff = closed.to_derivation() - op
            ok = ok and isinstance(is_inner(diff), InnerWitness)
            count0 += 1
    ok = ok and count0 >= 100
    countp = 0
    for p, coeffs in [(2, (0, 1)), (2, (0, 0, 1)), (3, (0, 1)), (3, (0, 0, 1)), (5, (0, 1))]:
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, coeffs))

        def random_expr():
            kind = rng.randrange(4)
            if kind == 0:
                return DerExpr.of(ctx, BDg(random_poly(rng, field, 3)))
            if kind == 1:
                r = random_poly(rng, field, 2)
                if r.is_zero():
                    r = Poly.one(field)
                return DerExpr.of(ctx, BAd(r, rng.randrange(1, 2 * p + 1)))
            z = CenterPoly(field, {(rng.randrange(2), rng.randrange(2)): 1})
            return DerExpr.of(ctx, BBx() if kind == 2 else BBf(), z)

        for _ in range(16):
            e1, e2 = random_expr(), random_expr()
            closed = bracket_charp(e1, e2).materialize()
            op = e1.materialize().bracket(e2.materialize())
            ok = ok and isinstance(is_inner(closed - op), InnerWitness)
            countp += 1
        # the zeta_n case and the e-term case, explicitly
        for mdeg in range(1, 2 * p + 1):
            e1 = DerExpr.of(ctx, BBx())
            e2 = DerExpr.of(ctx, BAd(Poly.x(field), mdeg))
            closed = bracket_charp(e1, e2).materialize()
            op = e1.materialize().bracket(e2.materialize())
            ok = ok and isinstance(is_inner(closed - op), InnerWitness)
            countp += 1
        for g in (Poly.one(field), Poly.x(field)):
            e1 = DerExpr.of(ctx, BDg(g))
            e2 = DerExpr.of(ctx, BBx())
            closed = bracket_charp(e1, e2).materialize()
            op = e1.materialize().bracket(e2.materialize())
            ok = ok and isinstance(is_inner(closed - op), InnerWitness)
            countp += 1
    ok = ok and countp >= 100
    announce(
        10,
        ok,
        f"bracket oracle equivalence ({count0} char-0 and {countp} char-p instances)",
    )


def test_criterion_11_identity_suite():
    """(f' f^(p-1))^(p-1) = -(f')^p; the vh^(p-1) equivalence; the delta0
    divisibility transfer -- 50 random instances each, exact."""
    ok = True
    rng = random.Random(1011)
    for p in (3, 5):
        field = FieldSpec(p)
        for _ in range(50):
            f = random_poly(rng, field, 4)
            lhs = (f.derivative() * f ** (p - 1)).derivative(p - 1)
            ok = ok and lhs == -(f.derivative() ** p)
    for p, coeffs in [(3, (0, 0, 1)), (2, (0, 1, 1))]:
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, coeffs))
        w = ctx.h.exact_div(ctx.varrho_h)
        for _ in range(50):
            v = random_poly(rng, field, 6)
            if rng.random() < 0.4:
                v = w * random_poly(rng, field, 2).substitute_xp()
            c1 = (v * ctx.h ** (p - 1)).in_frobenius_base()
            c2 = v.derivative() * ctx.h == v * ctx.h.derivative()
            q, rem = divmod(v, w)
            c3 = rem.is_zero() and q.in_frobenius_base()
            ok = ok and c1 == c2 == c3
    for field, coeffs in [(QQ, (0, 0, 0, 1)), (FieldSpec(3), (0, 0, 1))]:
        ctx = AhContext(Poly(field, coeffs))
        w = ctx.h_over_pi_rho
        for _ in range(50):
            r = random_poly(rng, field, 7)
            if rng.random() < 0.4:
                r = r * w
            ok = ok and w.divides(ctx.delta0(r)) == w.divides(r)
    announce(11, ok, "identity suite: prime-power identity, vh^(p-1), delta0 transfer")


def test_criterion_12_theta_tables():
    """x^j in Theta iff j != n-1 mod p for h = x^n, 1 <= n <= p+1, j <= 3p."""
    ok = True
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for n in range(1, p + 2):
            ctx = AhContext(xn(field, n))
            for j in range(3 * p + 1):
                want = (j - (n - 1)) % p != 0
                ok = ok and ctx.in_theta(xn(field, j)) == want
    announce(12, ok, "Theta membership tables for h = x^n, 1 <= n <= p+1")
