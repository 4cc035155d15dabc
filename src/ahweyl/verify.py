"""Seeded property suites over a fixed context.

Each property is a function of the context and an explicit random.Random
alone, `check_*(ctx, rng)`: it draws its inputs from the generator, runs a
number of instances fixed in its body, and reports per-property counts;
failures carry a counterexample echoed in the text grammar. The CLI `verify` command and the
test suite both drive these.

The properties are independent, so `run_verify` shares them among up to
`MAX_WORKERS` processes, no more than the CPUs this process may run on: the
calling process and children forked from it. Each worker claims the next
property off a pipe of one-byte tickets, written before the fork, and a
child sends back what it finished as plain data (`marshal`). The results are
merged in list order, so the output is the same for every number of workers.
A property that raises is left to the calling process, which runs every
missing one itself in list order after the children are reaped: the first
failing property raises, as in a sequential run. No child outlives the
call, however it ends.
"""

from __future__ import annotations

import marshal
import os
import random
import threading
from fractions import Fraction
from math import comb

from .centerpoly import CenterPoly
from .context import AhContext, weyl_context
from .derivations import (
    D_g,
    Derivation,
    InnerWitness,
    ad,
    ad_ra_n,
    bhat_f,
    ex_apply,
    extend_to_A1,
    ey_apply,
    is_inner,
    restrict_to_center,
)
from .fields import FieldSpec
from .hochschild import (
    BAd,
    BBf,
    BBx,
    BDg,
    DerExpr,
    HH1ClassChar0,
    _normalizer_quotient_level,
    bracket_char0,
    bracket_charp,
    canonical_class_char0,
    center_HH1_char0,
    generator_classes_char0,
)
from .poly import NotIntegrable, Poly, QPoly
from .weyl import WeylElement, commutator, varpi


class PropertyResult:
    """The counts of one property, the one mutable result: `check` counts
    into it. Its fields, the slots, are its keys in schema.json; a worker
    sends them back as a row of plain data."""

    __slots__ = ("name", "count", "passed", "counterexamples")

    def __init__(self, name: str, count: int = 0, passed: bool = True, counterexamples=None):
        self.name = name
        self.count = count
        self.passed = passed
        self.counterexamples = [] if counterexamples is None else counterexamples

    def check(self, ok: bool, describe) -> None:
        self.count += 1
        if not ok:
            self.passed = False
            if len(self.counterexamples) < 3:
                self.counterexamples.append(describe())


# -- random generators -------------------------------------------------------------


def random_poly(rng: random.Random, field: FieldSpec, max_deg: int = 5) -> Poly:
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(field)
    p = field.characteristic
    if not p:
        return QPoly._reduced(field, [rng.randrange(-9, 10) for _ in range(deg + 1)])
    return Poly._canonical(field, [rng.randrange(p) for _ in range(deg + 1)])


def random_weyl(rng, field, max_ydeg=3, max_xdeg=4) -> WeylElement:
    terms = {}
    for i in range(max_ydeg + 1):
        if rng.random() < 0.4:
            continue
        r = random_poly(rng, field, max_xdeg)
        if not r.is_zero():
            terms[i] = r
    return WeylElement(field, terms)


def random_ah_element(rng, ctx: AhContext, max_ydeg=2, max_xdeg=3) -> WeylElement:
    out = WeylElement.zero(ctx.field)
    for i in range(max_ydeg + 1):
        if rng.random() < 0.35:
            continue
        r = random_poly(rng, ctx.field, max_xdeg)
        if not r.is_zero():
            out = out + WeylElement.from_term(r * ctx.h_power(i), i)
    return out


def random_normalizer_element(rng, ctx: AhContext, max_ydeg=3) -> WeylElement:
    """Random element of N(A_h), from the explicit description of N."""
    p = 0 if ctx.field.is_char_zero else ctx.field.p
    out = WeylElement.from_poly(random_poly(rng, ctx.field, 3))
    for i in range(1, max_ydeg + 1):
        if rng.random() < 0.4:
            continue
        if p == 0 or i % p:
            r = random_poly(rng, ctx.field, 2)
            if not r.is_zero():
                out = out + WeylElement.from_term(r * ctx.a_n_coefficient(i), i)
        else:
            d = random_poly(rng, ctx.field, 2)
            z = random_poly(rng, ctx.field, 1).substitute_xp()
            w = d * ctx.h_power(i) + z * ctx.h_power(i - p)
            if not w.is_zero():
                out = out + WeylElement.from_term(w, i)
    return out


def random_derivation(rng, ctx: AhContext):
    d = D_g(random_poly(rng, ctx.field, 4), ctx)
    d = d + ad(random_normalizer_element(rng, ctx), ctx)
    if not ctx.field.is_char_zero:
        u = CenterPoly(
            ctx.field,
            {
                (rng.randrange(2), rng.randrange(2)): rng.randrange(ctx.field.p)
                for _ in range(2)
            },
        )
        d = d + D_g(ctx.qbreve, ctx).central_scale(u)
        v = CenterPoly(
            ctx.field,
            {(rng.randrange(2), rng.randrange(2)): rng.randrange(ctx.field.p)},
        )
        d = d + bhat_f(ctx).central_scale(v)
    return d


# -- individual properties ------------------------------------------------------------


def check_poly_ring_axioms(ctx, rng):
    res = PropertyResult("poly ring axioms (associativity, distributivity)")
    F = ctx.field
    for _ in range(20):
        a, b, c = (random_poly(rng, F) for _ in range(3))
        ok = (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
        res.check(ok, lambda: f"a={a}, b={b}, c={c}")
    return res


def check_poly_divmod(ctx, rng):
    res = PropertyResult("polynomial divmod contract")
    F = ctx.field
    for _ in range(25):
        f = random_poly(rng, F, 8)
        g = random_poly(rng, F, 5)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        res.check(
            q * g + r == f and r.degree < g.degree, lambda: f"f={f}, g={g}"
        )
    return res


def check_poly_gcd(ctx, rng):
    res = PropertyResult("monic gcd divides both arguments")
    F = ctx.field
    for _ in range(20):
        f, g = random_poly(rng, F, 6), random_poly(rng, F, 6)
        if f.is_zero() and g.is_zero():
            continue
        d = f.gcd_monic(g)
        res.check(
            d.is_monic() and d.divides(f) and d.divides(g), lambda: f"f={f}, g={g}"
        )
    return res


def check_antiderivative(ctx, rng):
    res = PropertyResult("antiderivative/derivative round trip")
    F = ctx.field
    for _ in range(20):
        f = random_poly(rng, F, 10)
        g = f.antiderivative()
        if isinstance(g, NotIntegrable):
            fixed = f - g.obstruction * Poly.monomial(F, 1, F.p - 1)
            g2 = fixed.antiderivative()
            ok = not isinstance(g2, NotIntegrable) and g2.derivative() == fixed
        else:
            ok = g.derivative() == f
        res.check(ok, lambda: f"f={f}")
    return res


def check_frobenius(ctx, rng):
    res = PropertyResult("Frobenius split/assemble round trip")
    F = ctx.field
    for _ in range(20):
        f = random_poly(rng, F, 3 * F.p)
        res.check(
            Poly.frobenius_assemble(F, f.frobenius_split()) == f, lambda: f"f={f}"
        )
    return res


def check_partial_p(ctx, rng):
    res = PropertyResult("partial_p bucket formula on monomials")
    F = ctx.field
    p = F.p
    for m in range(4 * p + 1):
        j, i = divmod(m, p)
        got = Poly.monomial(F, 1, m).partial_p()
        want = (
            Poly.zero(F)
            if j % p == 0
            else Poly.monomial(F, j, (j - 1) * p + i)
        )
        res.check(got == want, lambda: f"x^{m}")
    return res


def check_weyl_associativity(ctx, rng):
    res = PropertyResult("Weyl product associativity")
    F = ctx.field
    for _ in range(12):
        a, b, c = (random_weyl(rng, F) for _ in range(3))
        res.check((a * b) * c == a * (b * c), lambda: f"a={a}, b={b}, c={c}")
    return res


def check_weyl_jacobi(ctx, rng):
    res = PropertyResult("Jacobi identity for the commutator")
    F = ctx.field
    for _ in range(10):
        a, b, c = (random_weyl(rng, F, 2, 3) for _ in range(3))
        s = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        res.check(s.is_zero(), lambda: f"a={a}, b={b}, c={c}")
    return res


def check_reordering(ctx, rng):
    res = PropertyResult("normal-ordering formula vs iterated single steps")
    F = ctx.field
    for _ in range(10):
        f = WeylElement.from_poly(random_poly(rng, F, 5))
        m = rng.randrange(0, 7)
        lhs = WeylElement.y_power(F, m) * f
        acc = f
        for _ in range(m):
            acc = WeylElement.y_power(F, 1) * acc
        res.check(lhs == acc, lambda: f"y^{m} * ({f})")
    return res


def check_phi(ctx, rng):
    res = PropertyResult("phi is an involutive anti-automorphism")
    F = ctx.field
    for _ in range(12):
        a, b = random_weyl(rng, F), random_weyl(rng, F)
        ok = (a * b).apply_phi() == b.apply_phi() * a.apply_phi()
        ok = ok and a.apply_phi().apply_phi() == a
        res.check(ok, lambda: f"a={a}, b={b}")
    return res


def check_center_A1(ctx, rng):
    res = PropertyResult("central elements of A_1 commute with everything")
    F = ctx.field
    p = F.p
    centrals = [
        WeylElement.from_poly(random_poly(rng, F, 2).substitute_xp())
        + WeylElement.from_term(random_poly(rng, F, 1).substitute_xp(), p)
        for _ in range(3)
    ]
    for z in centrals:
        if not z.is_central_A1():
            res.check(False, lambda: f"z={z}")
            continue
        for _ in range(5):
            a = random_weyl(rng, F)
            res.check(commutator(a, z).is_zero(), lambda: f"a={a}, z={z}")
    return res


def check_pi_defining(ctx, rng):
    res = PropertyResult("defining property of pi_h: h | h'r iff pi_h | r")
    hp = ctx.h.derivative()
    for _ in range(50):
        r = random_poly(rng, ctx.field, 8)
        ok = ctx.h.divides(hp * r) == ctx.pi_h.divides(r)
        res.check(ok, lambda: f"r={r}")
    return res


def check_delta_leibniz(ctx, rng):
    res = PropertyResult("delta(fg) = delta(f)g + f delta(g)")
    for _ in range(20):
        f, g = random_poly(rng, ctx.field), random_poly(rng, ctx.field)
        res.check(
            ctx.delta(f * g) == ctx.delta(f) * g + f * ctx.delta(g),
            lambda: f"f={f}, g={g}",
        )
    return res


def check_delta0_product(ctx, rng):
    res = PropertyResult("delta0(rs) = r delta0(s) + r's pi_h")
    for _ in range(25):
        r, s = random_poly(rng, ctx.field), random_poly(rng, ctx.field)
        lhs = ctx.delta0(r * s)
        rhs = r * ctx.delta0(s) + r.derivative() * s * ctx.pi_h
        res.check(lhs == rhs, lambda: f"r={r}, s={s}")
    return res


def check_delta0_kernel(ctx, rng):
    res = PropertyResult("ker delta0 = (D cap Z) h/(pi varrho), bounded")
    w = ctx.h_over_pi_rho
    p = 0 if ctx.field.is_char_zero else ctx.field.p
    for deg in range(8):
        f = Poly.monomial(ctx.field, 1, deg)
        in_kernel = ctx.delta0(f * w).is_zero()
        expected = deg == 0 if p == 0 else deg % p == 0
        res.check(in_kernel == expected, lambda: f"x^{deg} * ({w})")
    for _ in range(25):
        r = random_poly(rng, ctx.field, 8)
        if r.is_zero() or not ctx.delta0(r).is_zero():
            continue
        q, rem = divmod(r, w)
        res.check(rem.is_zero() and q.derivative().is_zero(), lambda: f"r={r}")
    return res


def check_delta0_transfer(ctx, rng):
    res = PropertyResult("h/(pi varrho) | delta0(r) iff h/(pi varrho) | r")
    w = ctx.h_over_pi_rho
    for _ in range(50):
        r = random_poly(rng, ctx.field, 7)
        if rng.random() < 0.4:
            r = r * w
        res.check(w.divides(ctx.delta0(r)) == w.divides(r), lambda: f"r={r}")
    return res


def check_membership_closure(ctx, rng):
    res = PropertyResult("A_h closed under product and commutator")
    for _ in range(10):
        a = random_ah_element(rng, ctx)
        b = random_ah_element(rng, ctx)
        ok = ctx.ah_membership(a * b) and ctx.ah_membership(commutator(a, b))
        res.check(ok, lambda: f"a={a}, b={b}")
    return res


def check_zeta(ctx, rng):
    res = PropertyResult("zeta: three forms agree and are central")
    z = ctx.zeta_element()
    # yhat^p - (delta^p(x)/h) yhat, and yhat (yhat + h') ... (yhat + (p-1) h')
    power = prod = ctx.yhat
    for k in range(1, ctx.p):
        power = power * ctx.yhat
        prod = prod * (ctx.yhat + WeylElement.from_poly(ctx.h.derivative().scale(k)))
    ok = power - ctx.yhat.poly_mul(ctx.zeta_hat_coeff) == z
    ok = ok and prod == z
    ok = ok and commutator(z, ctx.x_elt).is_zero()
    ok = ok and commutator(z, ctx.yhat).is_zero()
    res.check(ok, lambda: f"zeta={z}")
    return res


def check_vhp1_equivalence(ctx, rng):
    res = PropertyResult("v h^(p-1) in F[x^p] iff v'h = vh' iff v in F[x^p] h/varrho")
    p = ctx.p
    w = ctx.h.exact_div(ctx.varrho_h)
    for _ in range(50):
        v = random_poly(rng, ctx.field, 6)
        if rng.random() < 0.4:
            v = w * random_poly(rng, ctx.field, 2).substitute_xp()
        c1 = (v * ctx.h_power(p - 1)).in_frobenius_base()
        c2 = v.derivative() * ctx.h == v * ctx.h.derivative()
        q, rem = divmod(v, w)
        c3 = rem.is_zero() and q.in_frobenius_base()
        res.check(c1 == c2 == c3, lambda: f"v={v}")
    return res


def check_prime_power_identity(ctx, rng):
    res = PropertyResult("(f' f^(p-1))^(p-1) = -(f')^p")
    p = ctx.p
    for _ in range(50):
        f = random_poly(rng, ctx.field, 4)
        lhs = (f.derivative() * f ** (p - 1)).derivative(p - 1)
        res.check(lhs == -(f.derivative() ** p), lambda: f"f={f}")
    return res


def check_theta_chain(ctx, rng):
    res = PropertyResult("im delta <= im delta0 <= Theta")
    for _ in range(20):
        r = random_poly(rng, ctx.field, 6)
        ok = ctx.delta(r) == ctx.delta0(r * ctx.h_over_pi)
        ok = ok and ctx.in_theta(ctx.delta0(r))
        res.check(ok, lambda: f"r={r}")
    return res


def check_theta_S(ctx, rng):
    res = PropertyResult("S lies in Theta and misses im delta")
    for s in ctx.theta_complement_S():
        ok = ctx.in_theta(s) and ctx.im_delta_preimage(s) is None
        res.check(ok, lambda: f"s={s}")
    return res


def check_derivation_leibniz(ctx, rng):
    res = PropertyResult("derivations satisfy the Leibniz rule on A_h")
    for _ in range(5):
        d = random_derivation(rng, ctx)
        a = random_ah_element(rng, ctx)
        b = random_ah_element(rng, ctx)
        ok = d.apply(a * b) == d.apply(a) * b + a * d.apply(b)
        res.check(ok, lambda: f"a={a}, b={b}")
    return res


def check_bracket_closure(ctx, rng):
    res = PropertyResult("bracket of derivations is a derivation")
    for _ in range(4):
        d, e = random_derivation(rng, ctx), random_derivation(rng, ctx)
        res.check(d.bracket(e).validate() is None, lambda: "random derivation pair")
    return res


def check_extension_faithfulness(ctx, rng):
    """Also the oracle of the decomposer against membership: ad_a is inner
    iff a lies in A_h + Z(A_1) (`AhContext.ah_center_part`), both ways, on
    normalizer elements that land on either side for a non-free h.

    In characteristic p, when S is nonempty, each element also gets a
    random multiple of a generator of N_p/(A_h + Z(A_1)) at y-degree p
    (`hochschild._normalizer_quotient_level`): `random_normalizer_element`
    draws only the part of N_i in A_h + Z(A_1) at p | i, so without it the
    decomposer's test of a normalizer part at y-degree kp is never
    reached."""
    res = PropertyResult("extensions to A_1 are unique and restrict back")
    quotient = () if ctx.field.is_char_zero else _normalizer_quotient_level(ctx, ctx.p).generators
    for _ in range(6):
        a = random_normalizer_element(rng, ctx)
        if quotient:
            r = rng.choice(quotient).scale(rng.randrange(ctx.p))
            a = a + WeylElement.from_term(r, ctx.p)
        d = ad(a, ctx)
        ext = extend_to_A1(d)
        if not isinstance(ext, Derivation):
            res.check(False, lambda: f"a={a}")
            continue
        ok = ext.apply(ctx.yhat) == d.image_yhat and ext.apply(ctx.x_elt) == d.image_x
        perturbed = ext + D_g(Poly.one(ctx.field), ext.context)
        ok = ok and perturbed.apply(ctx.yhat) != d.image_yhat
        inner = isinstance(is_inner(d), InnerWitness)
        ok = ok and inner == (ctx.ah_center_part(a) is not None)
        res.check(ok, lambda: f"a={a}")
    return res


def check_dg_ad_formula(ctx, rng):
    res = PropertyResult("[D_g, ad_{r a_n}] = ad of the explicit image (n >= 2)")
    for _ in range(6):
        n = rng.randrange(2, 5)
        g = random_poly(rng, ctx.field, 3)
        r = random_poly(rng, ctx.field, 3)
        if r.is_zero():
            continue
        dg = D_g(g, ctx)
        op = dg.bracket(ad_ra_n(r, n, ctx))
        t = [w.coefficient(0) for w in dg.dy_numerators(n)]  # T_k = P_(k-1)
        first = (r * ctx.pi_h * t[n - 1]).exact_div(ctx.h)
        img = WeylElement.from_poly(first)
        for k in range(1, n):
            img = img + WeylElement.from_term(
                (t[k - 1] * r * ctx.pi_h * ctx.h_power(n - k - 1)).scale(comb(n, k)), n - k
            )
        formula = ad(img, ctx)
        ok = (
            op.image_x == formula.image_x
            and op.image_yhat == formula.image_yhat
            and ctx.ah_membership(
                img - ctx.a_n_element(n - 1).poly_mul((g * r).scale(n))
            )
        )
        res.check(ok, lambda: f"g={g}, r={r}, n={n}")
    return res


def check_a1_innerness_char0(ctx, rng):
    res = PropertyResult("derivations of A_1 are inner (char 0), reassembly")
    F = ctx.field
    x = WeylElement.x_power(F, 1)
    y = WeylElement.y_power(F, 1)
    for _ in range(50):
        dx = random_weyl(rng, F, 4, 4)
        e0 = random_poly(rng, F, 4)
        terms = {0: e0} if not e0.is_zero() else {}
        for j, r in list(dx.terms.items()):
            rp = r.derivative()
            if not rp.is_zero():
                terms[j + 1] = rp.scale(Fraction(-1, j + 1))
        dy = WeylElement(F, terms)
        inner = is_inner(Derivation(weyl_context(F), dx, dy))
        ok = isinstance(inner, InnerWitness)
        ok = ok and commutator(inner.witness, x) == dx and commutator(inner.witness, y) == dy
        res.check(ok, lambda: f"D(x)={dx}, D(y)={dy}")
    return res


def check_ex_ey_varpi(ctx, rng):
    res = PropertyResult("[E_x, E_y] = ad_varpi on the generators")
    F = ctx.field
    w = varpi(F)
    for gen in (WeylElement.x_power(F, 1), WeylElement.y_power(F, 1)):
        lhs = ex_apply(ey_apply(gen)) - ey_apply(ex_apply(gen))
        res.check(lhs == commutator(w, gen), lambda: f"generator {gen}")
    return res


def check_scaled_product_rule(ctx, rng):
    res = PropertyResult("[wD, zE] = wD(z)E - zE(w)D + wz[D,E] for E_x, E_y")
    F = ctx.field
    w_c = varpi(F)
    gens = (WeylElement.x_power(F, 1), WeylElement.y_power(F, 1))
    for _ in range(5):
        w = random_poly(rng, F, 1).substitute_xp()
        z = random_poly(rng, F, 1).substitute_xp()
        wE = WeylElement.from_poly(w)
        zE = WeylElement.from_poly(z)
        for gen in gens:
            lhs = wE * ex_apply(zE * ey_apply(gen)) - zE * ey_apply(wE * ex_apply(gen))
            rhs = (
                wE * ex_apply(zE) * ey_apply(gen)
                - zE * ey_apply(wE) * ex_apply(gen)
                + wE * zE * commutator(w_c, gen)
            )
            res.check(lhs == rhs, lambda: f"w={w}, z={z}")
    return res


def check_res_morphism(ctx, rng):
    res = PropertyResult("Res is a morphism of Lie algebras")
    for _ in range(4):
        d, e = random_derivation(rng, ctx), random_derivation(rng, ctx)
        lhs = restrict_to_center(d.bracket(e))
        rhs = restrict_to_center(d).bracket(restrict_to_center(e))
        res.check(lhs.a == rhs.a and lhs.b == rhs.b, lambda: "random pair")
    return res


def check_dr_zeta(ctx, rng):
    res = PropertyResult("D_r(zeta) = (r h^(p-1))^(p-1)")
    for _ in range(10):
        r = random_poly(rng, ctx.field, 4)
        got = D_g(r, ctx).apply(ctx.zeta_element())
        res.check(got == WeylElement.from_poly(ctx.theta_of(r)), lambda: f"r={r}")
    return res


def check_bracket_oracle_char0(ctx, rng):
    res = PropertyResult("closed-form brackets match operator brackets (char 0)")
    width = max(int(ctx.h_over_pi.degree), 1)
    for _ in range(12):
        if rng.random() < 0.5:
            c1 = HH1ClassChar0(ctx, random_poly(rng, ctx.field, int(ctx.h.degree)))
        else:
            c1 = HH1ClassChar0(
                ctx,
                Poly.zero(ctx.field),
                [(rng.randrange(1, 4), random_poly(rng, ctx.field, width - 1))],
            )
        if rng.random() < 0.5:
            c2 = HH1ClassChar0(ctx, random_poly(rng, ctx.field, int(ctx.h.degree)))
        else:
            c2 = HH1ClassChar0(
                ctx,
                Poly.zero(ctx.field),
                [(rng.randrange(1, 4), random_poly(rng, ctx.field, width - 1))],
            )
        closed = bracket_char0(c1, c2)
        op = c1.to_derivation().bracket(c2.to_derivation())
        ok = canonical_class_char0(op) == closed
        # the operator-level defect is certified inner
        diff = closed.to_derivation() - op
        ok = ok and isinstance(is_inner(diff), InnerWitness)
        res.check(ok, lambda: f"[{c1.describe()}, {c2.describe()}]")
    return res


def check_bracket_oracle_charp(ctx, rng):
    res = PropertyResult("closed-form brackets match operator brackets (char p)")
    def random_expr():
        kind = rng.randrange(4)
        if kind == 0:
            return DerExpr.of(ctx, BDg(random_poly(rng, ctx.field, 3)))
        if kind == 1:
            r = random_poly(rng, ctx.field, 2)
            if r.is_zero():
                r = Poly.one(ctx.field)
            return DerExpr.of(ctx, BAd(r, rng.randrange(1, 2 * ctx.p)))
        z = CenterPoly(
            ctx.field, {(rng.randrange(2), rng.randrange(2)): 1 + rng.randrange(ctx.p - 1) if ctx.p > 2 else 1}
        )
        return DerExpr.of(ctx, BBx() if kind == 2 else BBf(), z)

    for _ in range(8):
        e1, e2 = random_expr(), random_expr()
        closed = bracket_charp(e1, e2).materialize()
        op = e1.materialize().bracket(e2.materialize())
        diff = closed - op
        res.check(
            isinstance(is_inner(diff), InnerWitness),
            lambda: "closed-form vs operator bracket pair",
        )
    return res


def check_hh1_center_char0(ctx, rng):
    res = PropertyResult("center of HH^1 brackets to zero with generators")
    gens = generator_classes_char0(ctx)
    for z in center_HH1_char0(ctx):
        for g in gens:
            res.check(
                bracket_char0(z, g).is_zero(),
                lambda: f"[{z.describe()}, {g.describe()}]",
            )
    return res


def check_class_jacobi_char0(ctx, rng):
    res = PropertyResult("Jacobi identity for the class bracket")
    width = max(int(ctx.h_over_pi.degree), 1)

    def random_class():
        return HH1ClassChar0(
            ctx,
            random_poly(rng, ctx.field, int(ctx.h.degree)),
            [(rng.randrange(1, 4), random_poly(rng, ctx.field, width - 1))],
        )

    for _ in range(6):
        a, b, c = random_class(), random_class(), random_class()
        s = (
            bracket_char0(a, bracket_char0(b, c))
            + bracket_char0(b, bracket_char0(c, a))
            + bracket_char0(c, bracket_char0(a, b))
        )
        res.check(s.is_zero(), lambda: "random class triple")
    return res


COMMON = [
    check_poly_ring_axioms,
    check_poly_divmod,
    check_poly_gcd,
    check_antiderivative,
    check_weyl_associativity,
    check_weyl_jacobi,
    check_reordering,
    check_phi,
    check_pi_defining,
    check_delta_leibniz,
    check_delta0_product,
    check_delta0_kernel,
    check_delta0_transfer,
    check_membership_closure,
    check_derivation_leibniz,
    check_bracket_closure,
    check_extension_faithfulness,
    check_dg_ad_formula,
]

CHAR0_ONLY = [
    check_a1_innerness_char0,
    check_bracket_oracle_char0,
    check_hh1_center_char0,
    check_class_jacobi_char0,
]

CHARP_ONLY = [
    check_frobenius,
    check_partial_p,
    check_center_A1,
    check_zeta,
    check_vhp1_equivalence,
    check_prime_power_identity,
    check_theta_chain,
    check_theta_S,
    check_ex_ey_varpi,
    check_scaled_product_rule,
    check_res_morphism,
    check_dr_zeta,
    check_bracket_oracle_charp,
]


#: Most worker processes of `run_verify`, the calling process included: each
#: child costs a fork and a reap, a few ms in a process of tens of MB, and
#: only two workers, on two CPUs, have been measured.
MAX_WORKERS = 2


def _worker_count(n: int) -> int:
    """Workers for n properties: the CPUs this process may run on, at most n
    and `MAX_WORKERS`; 1 where the platform cannot fork, or where another
    thread runs, since a lock it holds at the fork stays held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n, MAX_WORKERS)


def _claim(tickets: int, run) -> list:
    """Run the properties whose indices this worker reads off the ticket
    pipe, one byte each, until the pipe is empty or a property raises; the
    indices it finished."""
    done = []
    while ticket := os.read(tickets, 1):
        try:
            run(ticket[0])
        except Exception:  # raised again when `run_verify` runs what is missing
            break
        done.append(ticket[0])
    return done


def _child(tickets: int, run, results: list, writable: int, mask) -> None:
    """A forked worker: restore the signal mask, claim properties, write
    what it finished to its pipe and exit, with status 0 only if all of that
    was written. Never returns, so nothing unwinds into the caller's frames."""
    from signal import SIG_SETMASK, pthread_sigmask

    code = 1
    try:
        pthread_sigmask(SIG_SETMASK, mask)
        finished = [(i, results[i]) for i in _claim(tickets, run)]
        rows = [(i, r.name, r.count, r.passed, r.counterexamples) for i, r in finished]
        with os.fdopen(writable, "wb") as out:
            out.write(marshal.dumps(rows))
        code = 0
    finally:  # on any BaseException too
        os._exit(code)


def _share(tickets: int, run, results: list, count: int) -> None:
    """Fork `count` children that claim properties beside this process, and
    merge what they send back into results.

    Signals are held around each fork and each reap, so a handler that
    raises (a timeout, Ctrl-C) runs only once the list of unreaped children
    is up to date; the children still in it are then killed and reaped.
    """
    from signal import SIG_BLOCK, SIG_SETMASK, SIGKILL, pthread_sigmask, valid_signals

    every = valid_signals()
    mask = pthread_sigmask(SIG_BLOCK, ())  # the mask to come back to
    children = []  # (pid, read end of its result pipe), not yet reaped
    try:
        pthread_sigmask(SIG_BLOCK, every)
        for _ in range(count):
            readable, writable = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # fewer workers, same results
                os.close(readable)
                os.close(writable)
                break
            if pid == 0:
                _child(tickets, run, results, writable, mask)
            os.close(writable)
            children.append((pid, readable))
        pthread_sigmask(SIG_SETMASK, mask)
        _claim(tickets, run)
        while children:
            pid, readable = children[-1]
            with open(readable, "rb", closefd=False) as pipe:
                payload = pipe.read()
            pthread_sigmask(SIG_BLOCK, every)
            status = os.waitpid(pid, 0)[1]
            children.pop()
            os.close(readable)
            pthread_sigmask(SIG_SETMASK, mask)
            if os.waitstatus_to_exitcode(status) == 0:
                for index, *fields in marshal.loads(payload):
                    results[index] = PropertyResult(*fields)
    finally:
        try:  # a pending handler may raise here, with the signals held
            pthread_sigmask(SIG_BLOCK, every)
        finally:
            for pid, readable in children:  # left early
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
                os.close(readable)
            pthread_sigmask(SIG_SETMASK, mask)


def run_verify(ctx: AhContext, seed: int = 0) -> list:
    """Run the property suite appropriate for the context; deterministic for
    a fixed seed, whatever the number of workers."""
    checks = list(COMMON)
    checks += CHAR0_ONLY if ctx.field.is_char_zero else CHARP_ONLY
    results = [None] * len(checks)

    def run(index: int) -> None:
        check = checks[index]
        results[index] = check(ctx, random.Random(f"{seed}:{check.__name__}"))

    tickets, queue = os.pipe()
    # heaviest first: the operator-bracket oracles close each list
    os.write(queue, bytes(reversed(range(len(checks)))))
    os.close(queue)
    try:
        if (workers := _worker_count(len(checks))) > 1:
            _share(tickets, run, results, workers - 1)
        else:
            _claim(tickets, run)
    finally:
        os.close(tickets)
    for index, result in enumerate(results):
        if result is None:
            run(index)
    return results
