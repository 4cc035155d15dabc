"""HH^1 classes, brackets, nilpotent ideal, Witt quotient, char-p reports."""

import random
import sys
from dataclasses import dataclass

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext
from ahweyl.derivations import (
    D_g,
    Derivation,
    InnerWitness,
    ad,
    ad_ra_n,
    bhat_f,
    bhat_x,
    is_inner,
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
    _normalizer_quotient_level,
    freeness_and_module_report_charp,
    generator_classes_char0,
    structure_report_char0,
)
from ahweyl.linalg import relations
from ahweyl.poly import Poly
from ahweyl.verify import random_derivation
from ahweyl.weyl import WeylElement, commutator, varpi

from test_derivations import ex_as_derivation

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def P(field, *coeffs):
    return Poly(field, coeffs)


def xn(field, n):
    return Poly.monomial(field, 1, n)


def x_factors(field, m):
    return [(Poly.x(field), m)]


class TestCanonicalClass:
    def test_inner_is_zero_class(self):
        ctx = AhContext(xn(QQ, 2))
        rng = random.Random(60)
        from ahweyl.verify import random_ah_element

        for _ in range(5):
            w = random_ah_element(rng, ctx)
            assert canonical_class_char0(ad(w, ctx)).is_zero()

    def test_D1_class_for_x2(self):
        ctx = AhContext(xn(QQ, 2))
        cls = canonical_class_char0(D_g(Poly.one(QQ), ctx))
        assert cls.g == Poly.one(QQ)
        assert cls.terms == ()

    def test_h_over_pi_an_is_inner(self):
        ctx = AhContext(xn(QQ, 3))
        for n in (1, 2):
            d = ad(ctx.a_n_element(n).poly_mul(ctx.h_over_pi), ctx)
            assert canonical_class_char0(d).is_zero()

    def test_level0_rewrite(self):
        # a class built with a level-0 term stores -delta0(r) in the g slot
        ctx = AhContext(xn(QQ, 3))
        r = Poly.x(QQ)
        cls = HH1ClassChar0(ctx, Poly.zero(QQ), [(0, r)])
        assert cls.terms == ()
        assert cls.g == (-ctx.delta0(r)) % ctx.h

    def test_degree_reduction_mod_h_is_inner(self):
        ctx = AhContext(xn(QQ, 2))
        q = P(QQ, 1, 1)
        cls = HH1ClassChar0(ctx, q * ctx.h)
        assert cls.g.is_zero()
        # and indeed D_{qh} is inner
        got = is_inner(D_g(q * ctx.h, ctx))
        assert isinstance(got, InnerWitness)


class TestBracketChar0:
    def test_power_case_D1_ad_a1(self):
        # h = x^m: [D_1, ad_{a_1}] = (m-1) D_1 in HH^1
        for m in (2, 3, 4):
            ctx = AhContext(xn(QQ, m))
            c1 = HH1ClassChar0(ctx, Poly.one(QQ))
            c2 = HH1ClassChar0(ctx, Poly.zero(QQ), [(1, Poly.one(QQ))])
            got = bracket_char0(c1, c2)
            assert got == c1.scale(m - 1)

    def test_antisymmetry_and_self(self):
        ctx = AhContext(xn(QQ, 3))
        rng = random.Random(61)
        for _ in range(6):
            c = canonical_class_char0(random_derivation(rng, ctx))
            assert bracket_char0(c, c).is_zero()

    def test_ad_ad_closed_form(self):
        # m = n = 1, h = x^3, r = 1, s = x: q = delta0(x) - x delta0(1) mod x^2
        ctx = AhContext(xn(QQ, 3))
        c1 = HH1ClassChar0(ctx, Poly.zero(QQ), [(1, Poly.one(QQ))])
        c2 = HH1ClassChar0(ctx, Poly.zero(QQ), [(1, Poly.x(QQ))])
        got = bracket_char0(c1, c2)
        q = (ctx.delta0(Poly.x(QQ)) - Poly.x(QQ) * ctx.delta0(Poly.one(QQ))) % (
            ctx.h_over_pi
        )
        assert got == HH1ClassChar0(ctx, Poly.zero(QQ), [(1, q)])
        assert q == Poly.x(QQ)

    @pytest.mark.parametrize("h", [(0, 1), (0, 0, 1), (0, 0, 0, 1), (0, -1, 0, 1)])
    def test_oracle_equivalence(self, h):
        ctx = AhContext(Poly(QQ, h))
        rng = random.Random(62)
        gens = generator_classes_char0(ctx)
        for _ in range(12):
            c1 = gens[rng.randrange(len(gens))]
            c2 = gens[rng.randrange(len(gens))]
            closed = bracket_char0(c1, c2)
            op = c1.to_derivation().bracket(c2.to_derivation())
            assert canonical_class_char0(op) == closed
            diff = closed.to_derivation() - op
            assert isinstance(is_inner(diff), InnerWitness)


class TestCenterChar0:
    @pytest.mark.parametrize(
        "h,want",
        [
            ((0, 0, 1), [(0, 1)]),  # h = x^2 -> {D_x}
            ((0, 0, 0, 1), [(0, 0, 1)]),  # h = x^3 -> {D_{x^2}}
        ],
    )
    def test_power_cases(self, h, want):
        ctx = AhContext(Poly(QQ, h))
        basis = center_HH1_char0(ctx)
        assert [c.g for c in basis] == [Poly(QQ, w) for w in want]

    def test_squarefree_full_center(self):
        # h squarefree: center = everything, HH^1 abelian of dim deg h
        ctx = AhContext(P(QQ, 0, -1, 0, 1) if False else P(QQ, -1, 0, 1))
        basis = center_HH1_char0(ctx)
        assert len(basis) == 2
        gens = generator_classes_char0(ctx)
        for z in basis:
            for g in gens:
                assert bracket_char0(z, g).is_zero()

    def test_centrality_by_brackets(self):
        for h in [(0, 0, 1), (0, 0, 0, 1), (0, 0, -1, 0, 0, 1)]:
            ctx = AhContext(Poly(QQ, h))
            gens = generator_classes_char0(ctx, max_n=8)
            assert len(gens) >= 10
            for z in center_HH1_char0(ctx):
                for g in gens:
                    assert bracket_char0(z, g).is_zero()

    def test_direct_sum_split(self):
        # every class splits uniquely: g = central + delta0-part
        ctx = AhContext(xn(QQ, 3))
        rng = random.Random(63)
        for _ in range(10):
            cls = canonical_class_char0(random_derivation(rng, ctx))
            z, q = split_center_commutator(ctx, cls.g)
            assert cls.g == z * ctx.h_over_pi + ctx.delta0(q)


def split_center_commutator(ctx: AhContext, g: Poly):
    """Oracle, characteristic 0, deg g < deg h: the unique (z, q) with
    g = z (h/pi_h) + delta0(q), deg z < deg pi_h, deg q < deg(h/pi_h), by
    one linear solve; D_g splits into a central class and a commutator."""
    F = ctx.field
    gens = [ctx.h_over_pi.shift(i) for i in range(int(ctx.pi_h.degree))]
    nz = len(gens)
    gens += [ctx.delta0(Poly.monomial(F, 1, j)) for j in range(int(ctx.h_over_pi.degree))]
    rel = relations(F, [v.coeffs for v in gens] + [g.coeffs])[-1]
    if rel is None:
        raise AssertionError("center/commutator split must always solve")
    coeffs = [-c for c in rel]
    return Poly(F, coeffs[:nz]), Poly(F, coeffs[nz : len(gens)])


class MissingFactorizationError(ValueError):
    """An oracle needs the verified factor list and the context has none."""


def nilpotent_ideal_membership(cls: HH1ClassChar0, ctx: AhContext, power: int = 1) -> bool:
    """Oracle: membership in N_j = span{ad_{r a_n} : r in D pi_(h/pi_h)^j,
    n >= 0}, on canonical classes, whose level-0 terms live rewritten in
    the g slot. Needs the verified factor list on the context."""
    if ctx.factors is None:
        raise MissingFactorizationError(
            "nilpotent-ideal membership needs the verified factor list"
        )
    mod = AhContext(ctx.h_over_pi).pi_h ** power
    z, q = split_center_commutator(ctx, cls.g)
    if not z.is_zero() or not mod.divides(q):
        return False
    return all(mod.divides(r) for _, r in cls.terms)


class TestNilpotentIdeal:
    def test_requires_factors(self):
        ctx = AhContext(xn(QQ, 3))
        cls = HH1ClassChar0(ctx, Poly.zero(QQ))
        with pytest.raises(MissingFactorizationError):
            nilpotent_ideal_membership(cls, ctx)

    def test_h_x3(self):
        ctx = AhContext(xn(QQ, 3), factors=x_factors(QQ, 3))
        # ad_{x a_n} classes are in N (pi_(h/pi) = x)
        for n in (1, 2, 3):
            cls = HH1ClassChar0(ctx, Poly.zero(QQ), [(n, Poly.x(QQ))])
            assert nilpotent_ideal_membership(cls, ctx)
        # ad_{a_1} is not
        cls = HH1ClassChar0(ctx, Poly.zero(QQ), [(1, Poly.one(QQ))])
        assert not nilpotent_ideal_membership(cls, ctx)
        # zero class is
        assert nilpotent_ideal_membership(HH1ClassChar0(ctx, Poly.zero(QQ)), ctx)
        # level-0 members are recognized through the g slot
        cls0 = HH1ClassChar0(ctx, Poly.zero(QQ), [(0, Poly.x(QQ))])
        assert not cls0.g.is_zero()
        assert nilpotent_ideal_membership(cls0, ctx)

    def test_h_x2_trivial(self):
        ctx = AhContext(xn(QQ, 2), factors=x_factors(QQ, 2))
        # N = 0: representatives with r in D*x of degree < 1 vanish
        cls = HH1ClassChar0(ctx, Poly.zero(QQ), [(1, Poly.x(QQ))])
        assert cls.is_zero()

    def test_ideal_property_and_chain(self):
        ctx = AhContext(xn(QQ, 3), factors=x_factors(QQ, 3))
        pi_hp = AhContext(ctx.h_over_pi).pi_h
        assert pi_hp == Poly.x(QQ)
        rng = random.Random(64)
        members = [
            HH1ClassChar0(ctx, Poly.zero(QQ), [(n, Poly.x(QQ))]) for n in (1, 2)
        ]
        gens = generator_classes_char0(ctx)
        for m in members:
            for g in gens:
                br = bracket_char0(m, g)
                assert nilpotent_ideal_membership(br, ctx)
        # [N, N_j] <= N_{j+1}
        for m in members:
            for m2 in members:
                br = bracket_char0(m, m2)
                assert nilpotent_ideal_membership(br, ctx, power=2)
        # chain terminates at the reported bound (2 for h = x^3)
        rep = structure_report_char0(ctx)
        assert rep.nilpotency_index_bound == 2
        for cls in members:
            # N_2 representatives are zero classes (deg constraint)
            if nilpotent_ideal_membership(cls, ctx, power=2):
                assert cls.is_zero()


@dataclass(frozen=True)
class WittClassElement:
    """residue (x) w_level in (D / D pi_{(h/pi_h)}) tensor the Witt algebra,
    with Witt bracket [w_m, w_n] = (n - m) w_{m+n} (levels >= -1)."""

    residue: Poly
    level: int


class WittQuotient:
    """Oracle: the isomorphism [HH^1, HH^1]/N -> (D/D pi_{(h/pi_h)}) tensor W,
    e_{g,m} = -ad_{g a_{m+1}} + N  |->  (g * delta0(1) mod pi) tensor w_m."""

    def __init__(self, ctx: AhContext):
        if not ctx.field.is_char_zero:
            raise ValueError("characteristic-0 quotient")
        self.context = ctx
        self.pi_hp = AhContext(ctx.h_over_pi).pi_h
        self.vartheta0 = ctx.delta0(Poly.one(ctx.field))
        if not self.pi_hp.is_constant():
            g = self.vartheta0.gcd_monic(self.pi_hp)
            if not g.is_one():
                raise AssertionError("gcd(delta0(1), pi_(h/pi)) must be 1")

    @property
    def is_trivial(self) -> bool:
        return self.pi_hp.is_constant()

    def map_class(self, cls: HH1ClassChar0) -> list:
        """Image of a class in the commutator ideal; raises if the class has
        a nonzero central component."""
        ctx = self.context
        z, q = split_center_commutator(ctx, cls.g)
        if not z.is_zero():
            raise ValueError("class is not in the commutator ideal of HH^1")
        if self.is_trivial:
            return []
        out = {}

        def add(level, residue):
            r = (residue * self.vartheta0) % self.pi_hp
            if not r.is_zero():
                out[level] = out.get(level, Poly.zero(ctx.field)) + r

        add(-1, q)  # D_{delta0(q)} = e_{q,-1}
        for n, r in cls.terms:
            add(n - 1, -r)  # ad_{r a_n} = -e_{r, n-1}
        return [
            WittClassElement(res % self.pi_hp, lvl)
            for lvl, res in sorted(out.items())
            if not (res % self.pi_hp).is_zero()
        ]

    def e_class(self, g: Poly, level: int) -> HH1ClassChar0:
        """The class e_{g,level} = -ad_{g a_{level+1}} itself."""
        return HH1ClassChar0(
            self.context, Poly.zero(self.context.field), [(level + 1, -g)]
        )

    @staticmethod
    def witt_bracket(e1: WittClassElement, e2: WittClassElement, mod: Poly) -> list:
        """[r (x) w_m, s (x) w_n] = (n - m) rs (x) w_{m+n} (zero below w_{-1})."""
        lvl = e1.level + e2.level
        if lvl < -1:
            return []
        c = (e1.residue * e2.residue).scale(e2.level - e1.level) % mod
        if c.is_zero():
            return []
        return [WittClassElement(c, lvl)]


def basis_preimage(wq, residue, level):
    """Class of e_{residue upsilon, level} = -ad_{(residue upsilon) a_{level+1}},
    with upsilon the inverse of delta0(1) mod pi_{(h/pi_h)}: the inverse of
    the Witt quotient map on w_level."""
    _, s, _ = wq.vartheta0.xgcd(wq.pi_hp)
    r = -(residue * (s % wq.pi_hp))
    return HH1ClassChar0(wq.context, Poly.zero(QQ), [(level + 1, r)])


class TestWittQuotient:
    def test_trivial_for_squarefree(self):
        ctx = AhContext(P(QQ, -1, 0, 1))
        wq = WittQuotient(ctx)
        assert wq.is_trivial

    @pytest.mark.parametrize("m", [2, 3])
    def test_powers_of_x(self, m):
        ctx = AhContext(xn(QQ, m), factors=x_factors(QQ, m))
        wq = WittQuotient(ctx)
        assert wq.pi_hp == Poly.x(QQ)
        # forward/backward roundtrip on basis elements
        for level in range(-1, 4):
            cls = basis_preimage(wq, Poly.one(QQ), level)
            img = wq.map_class(cls)
            assert img == [WittClassElement(Poly.one(QQ), level)]

    @pytest.mark.parametrize("m", [2, 3])
    def test_witt_relations(self, m):
        # [e_{r,m}, e_{s,n}] maps to (n - m)(image) for -1 <= m, n <= 5
        ctx = AhContext(xn(QQ, m), factors=x_factors(QQ, m))
        wq = WittQuotient(ctx)
        r = Poly.one(QQ)
        s = Poly.one(QQ)
        for lm in range(-1, 6):
            for ln in range(-1, 6):
                e1 = wq.e_class(r, lm)
                e2 = wq.e_class(s, ln)
                br = bracket_char0(e1, e2)
                img = wq.map_class(br)
                want = WittQuotient.witt_bracket(
                    wq.map_class(e1)[0] if wq.map_class(e1) else WittClassElement(Poly.zero(QQ), lm),
                    wq.map_class(e2)[0] if wq.map_class(e2) else WittClassElement(Poly.zero(QQ), ln),
                    wq.pi_hp,
                )
                assert img == want

    def test_central_component_rejected(self):
        ctx = AhContext(xn(QQ, 2), factors=x_factors(QQ, 2))
        wq = WittQuotient(ctx)
        central = HH1ClassChar0(ctx, ctx.h_over_pi)
        with pytest.raises(ValueError):
            wq.map_class(central)

    def test_two_prime_factors(self):
        # h = x^2 (x-1)^2: residues live mod x(x-1), two Witt summands
        u2 = P(QQ, -1, 1)
        h = xn(QQ, 2) * u2**2
        ctx = AhContext(h, factors=[(Poly.x(QQ), 2), (u2, 2)])
        wq = WittQuotient(ctx)
        assert wq.pi_hp == Poly.x(QQ) * u2
        rng = random.Random(67)
        for _ in range(12):
            r = Poly(QQ, [rng.randrange(-3, 4), rng.randrange(-3, 4)])
            s = Poly(QQ, [rng.randrange(-3, 4), rng.randrange(-3, 4)])
            lm, ln = rng.randrange(-1, 4), rng.randrange(-1, 4)
            e1, e2 = wq.e_class(r, lm), wq.e_class(s, ln)
            img = wq.map_class(bracket_char0(e1, e2))
            m1, m2 = wq.map_class(e1), wq.map_class(e2)
            w1 = m1[0] if m1 else WittClassElement(Poly.zero(QQ), lm)
            w2 = m2[0] if m2 else WittClassElement(Poly.zero(QQ), ln)
            assert img == WittQuotient.witt_bracket(w1, w2, wq.pi_hp)
        # basis preimage round trip with nonconstant residues
        for r in (Poly.one(QQ), Poly.x(QQ)):
            for level in (-1, 0, 2):
                img = wq.map_class(basis_preimage(wq, r, level))
                assert img == [WittClassElement(r % wq.pi_hp, level)]


class TestStructureReport:
    def test_h_x(self):
        ctx = AhContext(Poly.x(QQ), factors=x_factors(QQ, 1))
        rep = structure_report_char0(ctx)
        assert rep.dim_center == 1
        assert rep.abelian
        assert not rep.hh1_trivial
        assert rep.witt_summand_count == 0
        assert rep.nilpotent_N_trivial

    def test_h_one(self):
        ctx = AhContext(Poly.one(QQ))
        rep = structure_report_char0(ctx)
        assert rep.hh1_trivial
        assert rep.dim_center == 0

    def test_h_x2(self):
        ctx = AhContext(xn(QQ, 2), factors=x_factors(QQ, 2))
        rep = structure_report_char0(ctx)
        assert rep.dim_center == 1
        assert rep.center_basis == (Poly.x(QQ),)
        assert rep.nilpotent_N_trivial
        assert rep.witt_summand_count == 1
        assert rep.nilpotency_index_bound == 1

    def test_h_x3(self):
        ctx = AhContext(xn(QQ, 3), factors=x_factors(QQ, 3))
        rep = structure_report_char0(ctx)
        assert not rep.nilpotent_N_trivial
        assert rep.nilpotency_index_bound == 2
        assert rep.witt_summand_count == 1

    def test_degrades_without_factors(self):
        # only the fields that name primes need the factor list; the
        # nilpotency fields are read off the squarefree decomposition
        ctx = AhContext(xn(QQ, 3))
        rep = structure_report_char0(ctx)
        assert rep.dim_center == 1
        assert rep.multiplicity_gt1_primes is None
        assert rep.witt_summand_count is None
        assert not rep.nilpotent_N_trivial
        assert rep.nilpotency_index_bound == 2

    def test_mixed_multiplicities(self):
        # h = x^2 (x-1)^3: two multiplicity > 1 primes, chain bound max(a-1) = 2
        u2 = P(QQ, -1, 1)
        h = xn(QQ, 2) * u2**3
        ctx = AhContext(h, factors=[(Poly.x(QQ), 2), (u2, 3)])
        rep = structure_report_char0(ctx)
        assert rep.dim_center == 2  # pi_h = x(x-1)
        assert not rep.nilpotent_N_trivial
        assert rep.witt_summand_count == 2
        assert rep.nilpotency_index_bound == 2


class TestBracketCharP:
    def test_Dg_Dg_zero(self):
        ctx = AhContext(P(GF3, 0, 1))
        e1 = DerExpr.of(ctx, BDg(P(GF3, 1, 1)))
        e2 = DerExpr.of(ctx, BDg(P(GF3, 0, 2)))
        assert bracket_charp(e1, e2).materialize().is_zero()

    def test_ex_ey_is_ad_varpi(self):
        # h = 1: E_x = bhat_x scaled trivially, E_y = D_{x^(p-1)}
        for p in (2, 3):
            field = FieldSpec(p)
            ctx = AhContext(Poly.one(field))
            ex = DerExpr.of(ctx, BBx())
            ey = DerExpr.of(ctx, BDg(xn(field, p - 1)))
            got = bracket_charp(ex, ey).materialize()
            w = varpi(field)
            assert got.image_x == commutator(w, ctx.x_elt)
            assert got.image_yhat == commutator(w, ctx.yhat)

    @pytest.mark.parametrize("p,h", [(3, (0, 0, 1)), (2, (0, 1)), (3, (0, 1, 1))])
    def test_e_term_case(self, p, h):
        # [D_g, bhat_x] closed form vs operator bracket, certified inner defect
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, h))
        for g in (Poly.one(field), Poly.x(field), P(field, 1, 1)):
            e1 = DerExpr.of(ctx, BDg(g))
            e2 = DerExpr.of(ctx, BBx())
            closed = bracket_charp(e1, e2).materialize()
            op = D_g(g, ctx).bracket(bhat_x(ctx))
            diff = closed - op
            assert isinstance(is_inner(diff), InnerWitness)

    def test_zeta_n_case(self):
        # [bhat_x, ad_{r a_m}] with m = kp + n, 1 <= n < p
        ctx = AhContext(P(GF3, 0, 0, 1))
        for m in (1, 2, 4, 5):
            r = Poly.x(GF3)
            e1 = DerExpr.of(ctx, BBx())
            e2 = DerExpr.of(ctx, BAd(r, m))
            closed = bracket_charp(e1, e2).materialize()
            op = bhat_x(ctx).bracket(ad_ra_n(r, m, ctx))
            assert isinstance(is_inner(closed - op), InnerWitness)

    def test_zero_coefficient_parts_are_dropped(self):
        # bhat_f expands to two parts; with coefficient 0 neither is kept
        ctx = AhContext(P(GF5, 0, 1, 1))
        zero = CenterPoly.zero(GF5)
        assert DerExpr(ctx, [(zero, BBf())]).parts == ()
        assert DerExpr(ctx, [(zero, BBx()), (zero, BDg(P(GF5, 1)))]).parts == ()
        assert len(DerExpr(ctx, [(CenterPoly.one(GF5), BBf())]).parts) == 2

    def test_dg_bhat_x_bracket_is_closed_on_its_output(self):
        # [D_g, bhat_x] is written in the bases D_g and ad_{r a_n}: it
        # materializes to the operator bracket up to an inner derivation, and
        # bracketing it again with bhat_x and with D_(1+x) matches the
        # operator bracket of the materialized derivations the same way
        rng = random.Random(68)
        cases = [(2, (1, 1, 1)), (3, (0, 0, 1)), (3, (1, 0, 2, 1)), (5, (0, 1, 1)),
                 (5, (2, 0, 0, 1, 1)), (7, (0, 0, 1)), (7, (1, 1, 0, 3))]
        for p, h in cases:
            field = FieldSpec(p)
            ctx = AhContext(Poly(field, h))
            g = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            out = bracket_charp(DerExpr.of(ctx, BDg(g)), DerExpr.of(ctx, BBx()))
            assert all(isinstance(b, (BDg, BAd)) for _, b in out.parts)
            want = D_g(g, ctx).bracket(bhat_x(ctx))
            assert isinstance(is_inner(out.materialize() - want), InnerWitness)
            for other in (DerExpr.of(ctx, BBx()), DerExpr.of(ctx, BDg(P(field, 1, 1)))):
                closed = bracket_charp(out, other).materialize()
                op = out.materialize().bracket(other.materialize())
                assert isinstance(is_inner(closed - op), InnerWitness)

    def test_projection_oracle_e_term(self):
        # P(D_g(h^n y^n)) = h^n (g h^-1)^(n-1) for 1 <= n < p
        ctx = AhContext(P(GF5, 0, 0, 1))
        from test_derivations import gh_derivative_times_hk

        for g in (Poly.one(GF5), Poly.x(GF5)):
            for n in (1, 2, 3):
                elt = WeylElement.from_term(ctx.h**n, n)
                img = D_g(g, ctx).apply(elt)
                proj = {
                    i: r for i, r in img.terms.items() if i % ctx.p == 0
                }
                want = gh_derivative_times_hk(g, n, ctx)
                assert proj in ({0: want}, {} if want.is_zero() else {0: want})


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("h", [(0, 0, 1, 1), (0, 0, 0, 1, 2, 1)])
def test_every_base_pair_matches_the_operator_bracket(p, h):
    # every input base of bracket_charp, each with a center coefficient, and
    # ad_{r a_n} at levels n prime to p and divisible by p; x^2 (x+1) and
    # x^3 (x+1)^2 are not free (h/pi_h = x and x^2 (x+1)), so ad_{r a_n} is
    # outer at the levels prime to p
    F = FieldSpec(p)
    ctx = AhContext(Poly(F, h))
    t1, t2 = CenterPoly.t1(F), CenterPoly.t2(F)
    exprs = [DerExpr.of(ctx, BDg(P(F, 1, 1)), t1)]
    exprs += [DerExpr.of(ctx, BAd(P(F, 1, 1), n), t2) for n in sorted({1, 2, p, p + 1})]
    exprs.append(DerExpr.of(ctx, BBx(), t1 + t2))
    exprs.append(DerExpr.of(ctx, BBf()))
    for e1 in exprs:
        for e2 in exprs:
            closed = bracket_charp(e1, e2).materialize()
            op = e1.materialize().bracket(e2.materialize())
            assert isinstance(is_inner(closed - op), InnerWitness)


class TestFreenessReport:
    def test_h_x_free(self):
        for p in (2, 3):
            ctx = AhContext(Poly.x(FieldSpec(p)))
            rep = freeness_and_module_report_charp(ctx, seed=5)
            assert rep.free_over_center
            assert rep.basis_if_free == ("D_qbreve", "bhat_f")
            assert rep.freeness_certificates == 10
            assert rep.theta_quotient_dim == 0

    def test_failing_certificate_names_the_y_degree(self, monkeypatch):
        # for h = x every normalizer element is a member, so the certificate
        # is handed one from outside N: x^2 y^2 lies in A_h, y^4 does not
        from ahweyl import verify

        ctx = AhContext(Poly.x(GF3))
        a = WeylElement.from_term(xn(GF3, 2), 2) + WeylElement.y_power(GF3, 4)
        monkeypatch.setattr(verify, "random_normalizer_element", lambda rng, ctx: a)
        with pytest.raises(AssertionError, match=r"y-degree 4 term .* outside A_h \+ Z\(A_1\)"):
            freeness_and_module_report_charp(ctx)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_certificates_run_no_decomposition(self, p, monkeypatch):
        # every module's binding of the decomposer raises, so a certificate
        # that went back to is_inner or decompose_Ah_charp fails here
        def refuse(*args):
            raise AssertionError("a certificate ran the decomposer")

        for name, module in list(sys.modules.items()):
            if name == "ahweyl" or name.startswith("ahweyl."):
                for attr in ("is_inner", "decompose_Ah_charp"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, [1, 1, 0, 1]))  # x^3 + x + 1 is squarefree mod 2, 3, 5
        rep = freeness_and_module_report_charp(ctx, seed=p)
        assert rep.free_over_center and rep.freeness_certificates == 10

    def test_h_one_free(self):
        ctx = AhContext(Poly.one(GF3))
        rep = freeness_and_module_report_charp(ctx, seed=6)
        assert rep.free_over_center
        # qbreve = -x^(p-1) so D_qbreve = -E_y; bhat_f = -E_x
        assert ctx.qbreve == Poly.monomial(GF3, -1, 2)
        bf = bhat_f(ctx)
        ex = ex_as_derivation(ctx)
        assert bf.image_x == -ex.image_x and bf.image_yhat == -ex.image_yhat

    def test_h_x2_not_free(self):
        for p in (3, 5):
            ctx = AhContext(xn(FieldSpec(p), 2))
            rep = freeness_and_module_report_charp(ctx, seed=7)
            assert not rep.free_over_center
            assert rep.theta_quotient_dim == 1  # S = {1}

    def test_criterion_across_samples(self):
        rng = random.Random(65)
        count = 0
        for p in (2, 3):
            field = FieldSpec(p)
            for _ in range(10):
                h = Poly(
                    field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] or [1]
                )
                if h.is_zero():
                    continue
                ctx = AhContext(h)
                rep = freeness_and_module_report_charp(ctx, seed=rng.randrange(100), certificates=2)
                assert rep.free_over_center == ctx.h_over_pi.is_constant()
                count += 1
        assert count >= 15

    def test_res_image_generators(self):
        ctx = AhContext(xn(GF3, 2))
        rep = freeness_and_module_report_charp(ctx, seed=8)
        d1, d2 = rep.res_image_generators
        # h = x^2, p = 3: h^p/varrho = t1^2, hbar = t1
        assert d1.a == CenterPoly.t1(GF3, 2) and d1.b.is_zero()
        assert d2.a.is_zero() and d2.b == CenterPoly.t1(GF3, 1)

    def test_normalizer_quotient_levels(self):
        # h = x, free: every level quotient should vanish
        ctx = AhContext(Poly.x(GF2), degree_bound=4)
        rep = freeness_and_module_report_charp(ctx, seed=9)
        for lvl in rep.normalizer_quotient:
            assert lvl.dim == 0
        # h = x^2, p = 3: levels not divisible by 3 have dim deg(h/pi) = 1
        ctx2 = AhContext(xn(GF3, 2), degree_bound=4)
        rep2 = freeness_and_module_report_charp(ctx2, seed=10)
        by_level = {l.y_degree: l.dim for l in rep2.normalizer_quotient}
        assert by_level[1] == 1 and by_level[2] == 1 and by_level[4] == 1

    def test_degree_bound_sets_the_levels_in_characteristic_p_only(self):
        # default 3p levels, and never fewer than deg h
        assert AhContext(xn(GF3, 2)).degree_bound == 9
        assert AhContext(xn(GF3, 2), degree_bound=1).degree_bound == 2
        assert AhContext(xn(QQ, 2)).degree_bound is None
        assert AhContext(xn(QQ, 2), degree_bound=7).degree_bound is None


def monic(q, p):
    """q scaled so that its last nonzero entry is 1."""
    inv = pow(next(c for c in reversed(q) if c), -1, p)
    return [c * inv % p for c in q]


def normalizer_level_oracle(h, i, x_bound):
    """Generators of N_i/(A_h + Z(A_1))_i for p | i by sympy over GF(p), on
    unreduced coefficient vectors of length x_bound + 1: the RREF kernel
    basis of r -> r' mod h^(i-1), each vector kept when it enlarges
    D h^i + F[x^p] plus the vectors kept before it."""
    p = h.field.p
    dom = GF(p)
    X = sympy.Symbol("x")
    width = x_bound + 1

    def spoly(coeffs):
        return sympy.Poly(list(reversed(coeffs)), X, modulus=p)

    def vec(q, n):
        cs = [int(c) % p for c in reversed(q.all_coeffs())]
        return cs + [0] * (n - len(cs))

    def rank(cols):
        rows = [[dom(c[r]) for c in cols] for r in range(width)]
        return DomainMatrix(rows, (width, len(cols)), dom).rank()

    hs = spoly(list(h.coeffs))
    hi1, hi = hs ** (i - 1), hs**i
    d1 = hi1.degree()
    derivatives = [vec(spoly([0] * n + [1]).diff(X).rem(hi1), d1) for n in range(width)]
    rows = [[dom(v[r]) for v in derivatives] for r in range(d1)]
    kernel = DomainMatrix(rows, (d1, width), dom).nullspace().to_list()
    kernel = [monic([int(c) % p for c in q], p) for q in kernel]
    kernel.sort(key=lambda q: max(k for k, c in enumerate(q) if c))
    basis = [vec(spoly([0] * j + [1]) * hi, width) for j in range(width - hi.degree())]
    basis += [vec(spoly([0] * j + [1]), width) for j in range(0, width, p)]
    gens = []
    for q in kernel:
        if rank(basis + [q]) > rank(basis):
            basis.append(q)
            gens.append(Poly(h.field, q))
    return gens


@given(
    p=st.sampled_from([2, 3, 5]),
    coeffs=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    square=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_normalizer_quotient_level_matches_sympy(p, coeffs, square):
    # non-free h (squares, h in F[x^p]) give nonzero levels at p | i
    field = FieldSpec(p)
    h = Poly(field, coeffs + [1])
    if square:
        h = h * h
    ctx = AhContext(h)
    x_bound = p * int(h.degree) + 2 * p
    level = _normalizer_quotient_level(ctx, p)
    gens = normalizer_level_oracle(h, p, x_bound)
    assert list(level.generators) == gens
    assert level.dim == len(gens)


def window_normalizer_level(ctx, i):
    """Generators of N_i/(A_h + Z(A_1))_i for p | i by row reduction on the
    window deg r <= i max(deg h, 1) + 2p: the relation basis of
    {r : h^(i-1) | r'}, each element kept when it enlarges
    F[x^p] + (the elements kept before it) modulo h^i."""
    F = ctx.field
    p = ctx.p
    width = i * max(int(ctx.h.degree), 1) + 2 * p + 1
    hi1 = ctx.h_power(i - 1)
    rem = Poly.one(F) % hi1  # x^(n-1) mod h^(i-1)
    derivatives = [()]  # (x^n)' mod h^(i-1), n < width
    for n in range(1, width):
        derivatives.append(F.reduce([n * c for c in rem.coeffs]))
        rem = rem.shift(1) % hi1
    numer = [Poly._canonical(F, rel) for rel in relations(F, derivatives) if rel is not None]
    hi = ctx.h_power(i)
    frobenius = [Poly.one(F) % hi]  # x^(jp) mod h^i, jp < width
    for _ in range(p, width, p):
        frobenius.append(frobenius[-1].shift(p) % hi)
    rels = relations(F, [r.coeffs for r in frobenius] + [(q % hi).coeffs for q in numer])
    return tuple(q for q, rel in zip(numer, rels[len(frobenius) :]) if rel is None)


def monic_poly(field, coeffs):
    return Poly(field, list(coeffs) + [1])


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["free", "repeated", "frobenius"]),
    f=st.lists(st.integers(0, 6), min_size=0, max_size=2),
    g=st.lists(st.integers(0, 6), min_size=1, max_size=1),
)
@example(p=31, kind="repeated", f=[0, 0, 0], g=[1])  # x^3 (x+1)^2, |S| = 3
@settings(max_examples=50, deadline=None)
def test_normalizer_levels_at_p_divides_i_match_window(p, kind, f, g):
    # free h, h with a repeated factor g^2, and h with a factor g^p
    field = FieldSpec(p)
    h = monic_poly(field, f)
    if kind == "repeated":
        h = h * monic_poly(field, g) ** 2
    elif kind == "frobenius":
        h = h * monic_poly(field, g) ** p
    ctx = AhContext(h)
    if kind == "free":
        assume(ctx.h_over_pi.is_constant())
    S = ctx.theta_complement_S()
    for i in (p, 2 * p, 3 * p):
        level = _normalizer_quotient_level(ctx, i)
        assert level.generators == window_normalizer_level(ctx, i)
        assert level.dim == len(S)


def test_free_charp_report_skips_center_brackets_and_level_powers(monkeypatch):
    # x^2 + 1 is free over GF(151): ad records Res(ad_a) = 0, so no
    # certificate reads D(zeta), whose closed form starts from W = P_0 of
    # `dy_numerators`, and u = v = 0 builds no bhat_f, so no numerator is
    # formed at all; every level has dim 0, so none forms a power of h
    ctx = AhContext(Poly(FieldSpec(151), [1, 0, 1]))
    seen = {"h_power": []}
    numerators = []
    original = Derivation.dy_numerators

    def counted_numerators(d, n):
        numerators.append(n)
        return original(d, n)

    def counted(name, method, caller):
        def wrapped(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not caller:
                frame = frame.f_back
            seen[name].append(frame is not None)
            return method(*args)

        return wrapped

    monkeypatch.setattr(Derivation, "dy_numerators", counted_numerators)
    monkeypatch.setattr(
        ctx, "h_power", counted("h_power", ctx.h_power, _normalizer_quotient_level.__code__)
    )
    rep = freeness_and_module_report_charp(ctx)
    assert rep.free_over_center and rep.freeness_certificates == 10
    assert len(rep.normalizer_quotient) == 3 * 151
    assert all(level.dim == 0 for level in rep.normalizer_quotient)
    assert numerators == [] and "bhat_f" not in ctx._memo
    # the certificates still take powers of h
    assert seen["h_power"] and not any(seen["h_power"])


def test_normalizer_level_rejects_S_outside_theta(monkeypatch):
    # h = x over GF(3): h^2 * 1 = x^2 is no derivative, so 1 is not in Theta
    ctx = AhContext(Poly.x(GF3))
    monkeypatch.setattr(ctx, "theta_complement_S", lambda: [Poly.one(GF3)])
    with pytest.raises(AssertionError, match=r"h = x, i = 3"):
        _normalizer_quotient_level(ctx, 3)


class TestZIndependence:
    def test_free_basis_independent(self):
        # the decomposition recovers the (u, v) coefficients exactly, so a
        # vanishing combination u D_qbreve + v bhat_f (mod inner) forces
        # u = v = 0
        from ahweyl.derivations import decompose_Ah_charp

        for p, h in [(2, (0, 1)), (3, (1,)), (3, (0, 0, 1))]:
            field = FieldSpec(p)
            ctx = AhContext(Poly(field, h))
            rng = random.Random(66)
            for _ in range(5):
                u = CenterPoly(
                    field, {(rng.randrange(2), rng.randrange(2)): rng.randrange(p)}
                )
                v = CenterPoly(
                    field, {(rng.randrange(2), rng.randrange(2)): rng.randrange(p)}
                )
                d = D_g(ctx.qbreve, ctx).central_scale(u) + bhat_f(ctx).central_scale(v)
                dec = decompose_Ah_charp(d)
                assert dec.u == u and dec.v == v
