"""The A_h layer: pi/varrho, membership, bases, delta/delta0, center, Theta.

pi_h, varrho_h and the factor-list check are read off one squarefree
decomposition. The routes they replaced are kept here as oracles: pi_h as
h / gcd(h, h'), the factor-list check by trial gcds with its cross-check of
pi_h and varrho_h, and the nilpotency index bound by search."""

import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ahweyl.context import (
    AhContext,
    FactorListError,
    MembershipError,
    NotCentralizing,
)
from ahweyl.centerpoly import CenterPoly
from ahweyl.derivations import InnerWitness, NotInner, ad, decompose_Ah_charp, is_inner
from ahweyl.fields import ExactDivisionError, FieldSpec, QQ
from ahweyl.hochschild import _normalizer_quotient_level, structure_report_char0
from ahweyl.linalg import relations
from ahweyl.poly import Poly
from ahweyl.weyl import WeylElement, commutator
from test_derivations import fraction, random_derivation, random_h, random_weyl
from test_derivations import zbasis_collect  # the center-basis oracle
from test_derivations import yhat_power, yhat_zeta_collect  # the yhat and yhat-zeta oracles
from test_hochschild import split_center_commutator

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def P(field, *coeffs):
    return Poly(field, coeffs)


def xn(field, n):
    return Poly.monomial(field, 1, n)


def random_poly(rng, field, max_deg=6, nonzero=False):
    while True:
        deg = rng.randrange(-1, max_deg + 1)
        if deg < 0:
            f = Poly.zero(field)
        elif field.is_char_zero:
            f = Poly(field, [rng.randrange(-9, 10) for _ in range(deg + 1)])
        else:
            f = Poly(field, [rng.randrange(field.p) for _ in range(deg + 1)])
        if not (nonzero and f.is_zero()):
            return f


class TestPiH:
    def test_char0_power_of_x(self):
        for m in (1, 2, 5):
            assert AhContext(xn(QQ, m)).pi_h == Poly.x(QQ)

    def test_constant_h(self):
        assert AhContext(P(QQ, 3)).pi_h == Poly.one(QQ)
        assert AhContext(P(GF3, 2)).pi_h == Poly.one(GF3)

    def test_p3_x_cubed(self):
        assert AhContext(xn(GF3, 3)).pi_h == Poly.one(GF3)

    def test_char_p_mixed(self):
        # h = x^4 (x+1)^3 over GF(3): x^4 not a cube, (x+1)^3 is -> pi = x
        h = xn(GF3, 4) * (P(GF3, 1, 1) ** 3)
        assert AhContext(h).pi_h == Poly.x(GF3)

    @pytest.mark.parametrize("field", [QQ, GF3, GF5])
    def test_defining_property(self, field):
        rng = random.Random(11)
        hs = [
            xn(field, 2),
            xn(field, 3) * P(field, 1, 1),
            P(field, 1, 0, 1) * xn(field, 1) ** 2,
            P(field, 2, 1),
        ]
        for h in hs:
            pi = AhContext(h).pi_h
            hp = h.derivative()
            for _ in range(50):
                r = random_poly(rng, field, 8)
                assert h.divides(hp * r) == pi.divides(r)

    def test_squarefree_crosscheck(self):
        # pi equals the product of squarefree components with multiplicity
        # not divisible by p (all of them in characteristic 0)
        for field in (QQ, GF2, GF3):
            h = xn(field, 2) * P(field, 1, 1) ** 3 * P(field, 1, 0, 1)
            pi = Poly.one(field)
            p = 0 if field.is_char_zero else field.p
            for g, m in h.squarefree_decomposition():
                if p == 0 or m % p:
                    pi = pi * g
            assert AhContext(h).pi_h == pi


class TestVarrho:
    def test_char0_always_one(self):
        assert AhContext(xn(QQ, 7)).varrho_h == Poly.one(QQ)

    def test_h_in_base(self):
        assert AhContext(xn(GF3, 3)).varrho_h == xn(GF3, 3)

    def test_p3_x4(self):
        # enumerate monic divisors of x^4 in F[x^3]: 1, x^3 -> max degree x^3
        assert AhContext(xn(GF3, 4)).varrho_h == xn(GF3, 3)

    def test_maximality_by_enumeration(self):
        # oracle: brute-force over divisors d = x^a (x+1)^b of h
        h = xn(GF3, 4) * (P(GF3, 1, 1) ** 3)
        best = Poly.one(GF3)
        for a in range(5):
            for b in range(4):
                d = xn(GF3, a) * P(GF3, 1, 1) ** b
                if d.in_frobenius_base() and d.degree > best.degree:
                    best = d
        assert AhContext(h).varrho_h == best
        assert AhContext(h).varrho_h == xn(GF3, 3) * (P(GF3, 1, 1) ** 3)

    def test_varrho_divides_h_and_hprime(self):
        rng = random.Random(12)
        for field in (GF2, GF3, GF5):
            for _ in range(10):
                h = random_poly(rng, field, 7, nonzero=True)
                rho = AhContext(h).varrho_h
                assert rho.in_frobenius_base()
                assert rho.divides(h)
                if not h.derivative().is_zero():
                    assert rho.divides(h.derivative())


class TestContextInvariants:
    @pytest.mark.parametrize(
        "field,h_coeffs",
        [
            (QQ, (0, 0, 1)),
            (QQ, (0, 1)),
            (QQ, (1,)),
            (QQ, (0, -1, 0, 1)),
            (QQ, (0, 0, 2)),  # non-monic
            (GF2, (0, 1)),
            (GF3, (0, 0, 0, 1)),
            (GF3, (1, 0, 1)),
            (GF3, (0, 0, 0, 2)),  # non-monic
            (GF5, (0, 0, 1)),
        ],
    )
    def test_construction(self, field, h_coeffs):
        ctx = AhContext(Poly(field, h_coeffs))
        assert ctx.pi_h.is_monic() or ctx.pi_h.is_one()
        assert ctx.pi_h.divides(ctx.h)
        assert ctx.varrho_h.divides(ctx.h)
        assert (ctx.pi_h * ctx.h.derivative()) == ctx.pi_hprime_over_h * ctx.h
        if field.is_char_zero:
            assert ctx.varrho_h.is_one()
        else:
            assert ctx.varrho_h.in_frobenius_base()

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            AhContext(Poly.zero(QQ))

    def test_factor_list_verified(self):
        h = xn(QQ, 2) * P(QQ, -1, 1)
        AhContext(h, factors=[(Poly.x(QQ), 2), (P(QQ, -1, 1), 1)])
        with pytest.raises(FactorListError):
            AhContext(h, factors=[(Poly.x(QQ), 3)])
        with pytest.raises(FactorListError, match="factors of multiplicity 1 do not multiply"):
            AhContext(h, factors=[(Poly.x(QQ), 2), (Poly.x(QQ), 1)])
        with pytest.raises(FactorListError):
            AhContext(h, factors=[(xn(QQ, 2), 1), (P(QQ, -1, 1), 1)])

    def test_factor_degrees_are_compared_before_any_power(self, monkeypatch):
        h = xn(QQ, 2) * P(QQ, -1, 1)

        def no_power(self, n):
            raise AssertionError(f"formed a power {n} of {self}")

        monkeypatch.setattr(Poly, "__pow__", no_power)
        for factors in ([(Poly.x(QQ), 3000000), (P(QQ, -1, 1), 1)], [(Poly.x(QQ), 1)]):
            with pytest.raises(FactorListError, match="factor product does not reassemble h"):
                AhContext(h, factors=factors)


# -- the routes the squarefree decomposition replaced, kept as oracles ----------------


def pi_by_gcd(h):
    """Oracle: pi_h = h / gcd(h, h'), made monic (1 when h' = 0)."""
    d = h.derivative()
    if d.is_zero():
        return Poly.one(h.field)
    return h.exact_div(h.gcd_monic(d)).monic()


def varrho_by_sympy(h):
    """Oracle: varrho_h = prod g^(p floor(m/p)) over sympy's squarefree
    decomposition h = lc prod g^m (1 over Q)."""
    F = h.field
    if F.is_char_zero or h.is_constant():
        return Poly.one(F)
    p = F.p
    x = sympy.Symbol("x")
    _, parts = sympy.sqf_list(sympy.Poly([int(c) for c in reversed(h.coeffs)], x, modulus=p))
    out = Poly.one(F)
    for g, m in parts:
        g = Poly(F, [int(c) % p for c in reversed(g.all_coeffs())]).monic()
        out = out * g ** (p * (int(m) // p))
    return out


def verify_factor_list_by_gcds(h, factors):
    """Oracle: the factor-list check by trial gcds. Each u is monic,
    nonconstant and squarefree, each multiplicity is >= 1, the u are
    pairwise coprime, and they reassemble h up to its leading coefficient;
    then pi_h and varrho_h rebuilt from the list must equal `pi_by_gcd` and
    `varrho_by_sympy`. Returns (pi_h, varrho_h), or raises FactorListError."""
    F = h.field
    p = F.characteristic
    for idx, (u, a) in enumerate(factors):
        if u.is_constant() or not u.is_monic():
            raise FactorListError(f"factor {u} must be monic and nonconstant")
        if a < 1:
            raise FactorListError(f"multiplicity {a} of {u} must be >= 1")
        du = u.derivative()
        if du.is_zero() or not u.gcd_monic(du).is_one():
            raise FactorListError(f"factor {u} is not squarefree")
        for v, _ in factors[idx + 1 :]:
            if not u.gcd_monic(v).is_one():
                raise FactorListError(f"factors {u} and {v} share a root")
    if sum(a * u.degree for u, a in factors) != h.degree:
        raise FactorListError("factor product does not reassemble h")
    prod = Poly.constant(F, h.leading_coefficient())
    pi = rho = Poly.one(F)
    for u, a in factors:
        prod = prod * u**a
        if not p or a % p:
            pi = pi * u
        if p:
            rho = rho * u ** (p * (a // p))
    if prod != h:
        raise FactorListError("factor product does not reassemble h")
    if pi != pi_by_gcd(h) or rho != varrho_by_sympy(h):
        raise FactorListError("factor list disagrees with the gcd-computed pi/varrho")
    return pi, rho


def nilpotency_bound_by_search(h):
    """Oracle, characteristic 0: the least n with h/pi_h | pi_(h/pi_h)^n,
    found by trying n = 0, 1, 2, ..."""
    h_over_pi = h.exact_div(pi_by_gcd(h)).monic()
    pi_hp = pi_by_gcd(h_over_pi)
    n, test = 0, Poly.one(h.field)
    while not h_over_pi.divides(test):
        n += 1
        test = test * pi_hp
        assert n <= h.degree + 1, "nilpotency bound search did not terminate"
    return n


def check_against_oracles(h, factors):
    """The context's verdict on `factors`, its pi_h and varrho_h, and over Q
    its structure report, each against the oracles above; returns whether
    the list was accepted."""
    plain = AhContext(h)
    assert plain.pi_h == pi_by_gcd(h)
    assert plain.varrho_h == varrho_by_sympy(h)
    try:
        want = verify_factor_list_by_gcds(h, factors)
    except FactorListError:
        with pytest.raises(FactorListError):
            AhContext(h, factors=factors)
        return False
    ctx = AhContext(h, factors=factors)
    assert (ctx.pi_h, ctx.varrho_h) == want
    if h.field.is_char_zero:
        rep, bare = structure_report_char0(ctx), structure_report_char0(plain)
        bound = nilpotency_bound_by_search(h)
        assert rep.nilpotency_index_bound == bare.nilpotency_index_bound == bound
        assert rep.nilpotent_N_trivial == bare.nilpotent_N_trivial == all(a <= 2 for _, a in factors)
        assert rep.multiplicity_gt1_primes == tuple((u, a) for u, a in factors if a > 1)
        assert bare.multiplicity_gt1_primes is None and bare.witt_summand_count is None
    return True


@st.composite
def factor_lists(draw, field):
    """(h, factors): h = lc prod u_i^alpha_i over a few small monic u_i,
    which may be reducible, non-squarefree, p-th powers (some u(x^p)) or
    share roots, and the list (u_i, alpha_i) as drawn or mutated: a
    multiplicity moved, two entries merged into one reducible factor (valid
    when their multiplicities agree and they are coprime), an entry dropped
    or repeated, or a factor scaled off monic."""
    p = field.characteristic
    scalars = st.integers(0, p - 1) if p else st.integers(-3, 3)
    shapes = ["linear", "linear", "quadratic"] + (["frobenius"] if p else [])
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(shapes))
        low = [draw(scalars) for _ in range(2 if shape == "quadratic" else 1)]
        u = Poly(field, [*low, 1])
        if shape == "frobenius":
            u = u.substitute_xp()
        factors.append((u, draw(st.integers(1, p + 2 if p else 4))))
    lc = draw(scalars.filter(bool))
    h = Poly.constant(field, lc)
    for u, a in factors:
        h = h * u**a
    kinds = ["as drawn", "as drawn", "multiplicity", "merge", "merge", "drop", "repeat", "scale"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(factors) - 1))
    u, a = factors[i]
    if kind == "multiplicity":
        factors[i] = (u, a + draw(st.sampled_from([-1, 1])))
    elif kind == "merge" and len(factors) > 1:
        v, b = factors.pop(i - 1)
        factors[i - 1 if i else 0] = (u * v, min(a, b))
    elif kind == "drop":
        factors.pop(i)
    elif kind == "repeat":
        factors.append((u, a))
    elif kind == "scale" and p != 2:
        factors[i] = (u.scale(2), a)
    return h, factors


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=str)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_factor_list_check_matches_the_gcd_route(field, data):
    h, factors = data.draw(factor_lists(field))
    check_against_oracles(h, factors)


@pytest.mark.parametrize(
    "h,factors,accepted",
    [
        # a p-th power factor is not squarefree; its p-th root is the valid entry
        (xn(GF3, 3) * P(GF3, 1, 1), [(xn(GF3, 3), 1), (P(GF3, 1, 1), 1)], False),
        (xn(GF3, 3) * P(GF3, 1, 1), [(Poly.x(GF3), 3), (P(GF3, 1, 1), 1)], True),
        (P(GF2, 1, 0, 1) ** 2, [(P(GF2, 1, 1), 4)], True),
        # shared roots, and a non-squarefree factor
        (xn(QQ, 2) * P(QQ, 1, 1), [(Poly.x(QQ), 1), (P(QQ, 0, 1, 1), 1)], False),
        (xn(QQ, 2) * P(QQ, 1, 1), [(xn(QQ, 2), 1), (P(QQ, 1, 1), 1)], False),
        # wrong multiplicities with the right degree
        (xn(QQ, 2) * P(QQ, 1, 1) ** 2, [(Poly.x(QQ), 3), (P(QQ, 1, 1), 1)], False),
        (xn(GF5, 2) * P(GF5, 1, 1), [(Poly.x(GF5), 1), (P(GF5, 1, 1), 2)], False),
        # a reducible factor is accepted: irreducibility is not checked
        (xn(QQ, 2) * P(QQ, 1, 1) ** 2, [(P(QQ, 0, 1, 1), 2)], True),
        (xn(GF3, 3) * P(GF3, 1, 1) ** 3, [(P(GF3, 0, 1, 1), 3)], True),
    ],
)
def test_factor_list_cases(h, factors, accepted):
    assert check_against_oracles(h, factors) == accepted


class TestMembership:
    def test_examples(self):
        ctx = AhContext(xn(QQ, 2))
        assert ctx.ah_membership(WeylElement.from_term(xn(QQ, 2), 1))
        assert not ctx.ah_membership(WeylElement.y_power(QQ, 1))
        assert ctx.ah_membership(WeylElement.from_poly(P(QQ, 3, 1)))

    def test_closed_under_mul_and_commutator(self):
        rng = random.Random(13)
        for field, h in [(QQ, xn(QQ, 2)), (GF3, Poly.x(GF3))]:
            ctx = AhContext(h)
            for _ in range(10):
                a = random_ah(rng, ctx)
                b = random_ah(rng, ctx)
                assert ctx.ah_membership(a * b)
                assert ctx.ah_membership(commutator(a, b))


def random_ah(rng, ctx, max_ydeg=3, max_xdeg=3):
    out = WeylElement.zero(ctx.field)
    for i in range(max_ydeg + 1):
        if rng.random() < 0.5:
            continue
        r = random_poly(rng, ctx.field, max_xdeg)
        out = out + WeylElement.from_term(r * ctx.h**i, i) if not r.is_zero() else out
    return out


class TestYhatBasis:
    def test_yhat_normal_form(self):
        ctx = AhContext(xn(QQ, 2))
        assert ctx.yhat == WeylElement(QQ, {1: xn(QQ, 2), 0: P(QQ, 0, 2)})

    def test_yhat_squared_h_x(self):
        ctx = AhContext(Poly.x(QQ))
        want = WeylElement(
            QQ, {2: xn(QQ, 2), 1: Poly.monomial(QQ, 3, 1), 0: Poly.one(QQ)}
        )
        assert ctx.yhat * ctx.yhat == want

    @pytest.mark.parametrize("field,h", [(QQ, (0, 0, 1)), (GF3, (0, 1)), (GF2, (1, 1))])
    def test_collect_roundtrip(self, field, h):
        ctx = AhContext(Poly(field, h))
        rng = random.Random(14)
        for _ in range(10):
            coeffs = [random_poly(rng, field, 4) for _ in range(rng.randrange(1, 5))]
            want = {(j, 0): f for j, f in enumerate(coeffs) if f}
            assert yhat_zeta_collect(ctx, yhat_expand(ctx, coeffs), 0) == want

    def test_collect_rejects_non_members(self):
        ctx = AhContext(xn(QQ, 2))
        y = WeylElement.y_power(QQ, 1)
        text = r"^y-degree 1 coefficient not divisible by h\^1: not in A_h$"
        with pytest.raises(MembershipError, match=text):
            yhat_zeta_collect(ctx, y, 0)
        # the top row divides and is eliminated; the row below it does not
        with pytest.raises(MembershipError, match=text):
            yhat_zeta_collect(ctx, ctx.yhat * ctx.yhat + y, 0)

    def test_collect_moves_rows_to_the_denominator_of_g(self):
        # a = yhat/2 = (x + 1) y + 1 over h = 2x + 2 has integer coefficients,
        # g = 1/2 does not: the row left below must be read over 2
        ctx = AhContext(P(QQ, 2, 2))
        a = ctx.yhat.scale(Fraction(1, 2))
        assert a == WeylElement(QQ, {1: P(QQ, 1, 1), 0: P(QQ, 1)})
        assert yhat_zeta_collect(ctx, a, 0) == {(1, 0): P(QQ, Fraction(1, 2))}
        assert collect_by_elements(ctx, a, 0) == {(1, 0): P(QQ, Fraction(1, 2))}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zeta_collect_rejects_non_members_at_positive_zeta_power(self, p):
        # y-degree p and p + 1: k = 1, j = 0 and 1; `Derivation.apply`, which
        # reads no zeta coordinates, gives the text of the oracle's collect
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, [1, 1]))
        x = Poly.x(field)
        zeta_yhat = ctx.zeta_mul(ctx.yhat, 1)
        d = random_derivation(random.Random(p), ctx)

        def text(m):
            return rf"^y-degree {m} coefficient not divisible by h\^{m}: not in A_h$"

        for bad, m in (
            (WeylElement.from_term(x, p + 1), p + 1),
            (zeta_yhat + WeylElement.from_term(x, p), p),
        ):
            for read in (lambda a: yhat_zeta_collect(ctx, a), d.apply):
                with pytest.raises(MembershipError, match=text(m)):
                    read(bad)
        assert yhat_zeta_collect(ctx, zeta_yhat) == {(1, 1): Poly.one(field)}

    def test_zbasis_collect_roundtrip(self):
        for field, h in [(GF2, P(GF2, 0, 1)), (GF3, P(GF3, 1, 0, 1))]:
            ctx = AhContext(h)
            rng = random.Random(15)
            for _ in range(8):
                a = random_ah(rng, ctx, max_ydeg=2 * field.p - 1)
                coords = zbasis_collect(ctx, a)
                back = WeylElement.zero(field)
                for (i, j), z in coords.items():
                    assert 0 <= i < field.p and 0 <= j < field.p
                    back = back + (
                        ctx.central_mul(z, WeylElement.from_poly(xn(field, i))) * yhat_power(ctx, j)
                    )
                assert back == a


def yhat_expand(ctx, coefficients):
    """sum_j f_j yhat^j in normal form, by explicit Weyl products."""
    out = WeylElement.zero(ctx.field)
    for j, f in enumerate(coefficients):
        if not f.is_zero():
            out = out + yhat_power(ctx, j).poly_mul(f)
    return out


def zeta_yhat_form(ctx):
    """zeta as yhat^p - (delta^p(x)/h) yhat, yhat^p by general Weyl products."""
    return yhat_power(ctx, ctx.p) - ctx.yhat.poly_mul(ctx.zeta_hat_coeff)


def delta_p_of_x(ctx):
    """delta^p(x) by the closed form hbar_{p-1}(x^p) * h."""
    return ctx.zeta_hat_coeff * ctx.h


def x_coordinates(coords):
    """{j: z_j} with f = sum_j z_j(t1, t2) x^j for f = sum_k g_k zeta^k,
    reading each g_k through its Frobenius components."""
    out = {}
    for k, g in enumerate(coords):
        if g.is_zero():
            continue
        for j, part in enumerate(g.frobenius_split()):
            if part.is_zero():
                continue
            add = CenterPoly.from_t1_poly(part) * CenterPoly.t2(part.field, k)
            out[j] = out.get(j, CenterPoly.zero(part.field)) + add
    return {j: z for j, z in out.items() if not z.is_zero()}


class TestDelta:
    def test_examples(self):
        ctx = AhContext(xn(QQ, 2))
        assert ctx.delta(Poly.x(QQ)) == xn(QQ, 2)
        assert ctx.delta(P(QQ, 5)).is_zero()
        ctx3 = AhContext(Poly.x(GF3))
        assert ctx3.delta(xn(GF3, 3)).is_zero()

    def test_delta_is_derivation(self):
        rng = random.Random(16)
        for field, h in [(QQ, P(QQ, 1, 2, 1)), (GF5, P(GF5, 0, 0, 3))]:
            ctx = AhContext(h)
            for _ in range(20):
                f = random_poly(rng, field)
                g = random_poly(rng, field)
                assert ctx.delta(f * g) == ctx.delta(f) * g + f * ctx.delta(g)


class TestDelta0:
    def test_char0_power_example(self):
        # h = x^m: delta0(x^j) = (j + 1 - m) x^j
        for m in (2, 3, 4):
            ctx = AhContext(xn(QQ, m))
            for j in range(5):
                assert ctx.delta0(xn(QQ, j)) == Poly.monomial(QQ, j + 1 - m, j)

    def test_h_over_pi_in_kernel(self):
        for ctx in (AhContext(xn(QQ, 3)), AhContext(P(GF3, 0, 0, 1))):
            assert ctx.delta0(ctx.h_over_pi).is_zero()

    def test_delta0_of_one(self):
        ctx = AhContext(xn(QQ, 2))
        want = ctx.pi_h.derivative() - ctx.pi_hprime_over_h
        assert ctx.delta0(Poly.one(QQ)) == want

    @pytest.mark.parametrize(
        "field,h",
        [(QQ, (0, 0, 0, 1)), (QQ, (0, -1, 0, 1)), (GF3, (0, 0, 1)), (GF2, (0, 1, 1))],
    )
    def test_product_rule(self, field, h):
        ctx = AhContext(Poly(field, h))
        rng = random.Random(17)
        for _ in range(25):
            r = random_poly(rng, field)
            s = random_poly(rng, field)
            lhs = ctx.delta0(r * s)
            rhs = r * ctx.delta0(s) + r.derivative() * s * ctx.pi_h
            assert lhs == rhs

    @pytest.mark.parametrize(
        "field,h",
        [(QQ, (0, 0, 0, 1)), (GF3, (0, 0, 1)), (GF3, (0, 0, 0, 0, 1)), (GF2, (0, 1, 1))],
    )
    def test_kernel_description(self, field, h):
        # ker delta0 = (D cap Z(A_h)) * h/(pi varrho) up to the test bound
        ctx = AhContext(Poly(field, h))
        w = ctx.h_over_pi_rho
        bound = 10
        p = 0 if field.is_char_zero else field.p
        for deg in range(bound):
            f = xn(field, deg)
            in_kernel = ctx.delta0(f * w).is_zero()
            expected = (p == 0 and deg == 0) or (p > 0 and deg % p == 0)
            assert in_kernel == expected
        # elements not divisible by h/(pi varrho) are never in the kernel
        rng = random.Random(18)
        for _ in range(25):
            r = random_poly(rng, field, 8, nonzero=True)
            if ctx.delta0(r).is_zero():
                q, rem = divmod(r, w)
                assert rem.is_zero()
                assert q.derivative().is_zero()

    @pytest.mark.parametrize(
        "field,h",
        [(QQ, (0, 0, 0, 1)), (QQ, (0, 0, 1)), (GF3, (0, 0, 1)), (GF5, (0, 0, 0, 1))],
    )
    def test_divisibility_transfer(self, field, h):
        ctx = AhContext(Poly(field, h))
        w = ctx.h_over_pi_rho
        rng = random.Random(19)
        for _ in range(50):
            r = random_poly(rng, field, 7)
            if rng.random() < 0.4:
                r = r * w
            assert w.divides(ctx.delta0(r)) == w.divides(r)


class TestZeta:
    def test_h_one(self):
        ctx = AhContext(Poly.one(GF3))
        assert ctx.zeta_element() == WeylElement.y_power(GF3, 3)

    def test_p2_h_x(self):
        ctx = AhContext(Poly.x(GF2))
        z = ctx.zeta_element()
        assert z == WeylElement.from_term(xn(GF2, 2), 2)
        assert zeta_yhat_form(ctx) == z

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("h_coeffs", [(1,), (0, 1), (0, 0, 1), (1, 0, 1)])
    def test_three_forms_agree_and_central(self, p, h_coeffs):
        field = FieldSpec(p)
        ctx = AhContext(Poly(field, h_coeffs))
        z = ctx.zeta_element()
        assert zeta_yhat_form(ctx) == z
        # product formula yhat (yhat + h') (yhat + 2h') ... (yhat + (p-1)h')
        prod = ctx.yhat
        for k in range(1, p):
            prod = prod * (ctx.yhat + WeylElement.from_poly(ctx.h.derivative().scale(k)))
        assert prod == z
        assert commutator(z, ctx.x_elt).is_zero()
        assert commutator(z, ctx.yhat).is_zero()

    def test_delta_p_of_x_closed_form_vs_iteration(self):
        for field, h_coeffs in [(GF2, (0, 1)), (GF3, (0, 0, 1)), (GF3, (1, 1)), (GF5, (0, 1))]:
            ctx = AhContext(Poly(field, h_coeffs))
            f = Poly.x(field)
            for _ in range(field.p):
                f = ctx.delta(f)
            assert delta_p_of_x(ctx) == f

    def test_delta_p_examples(self):
        assert delta_p_of_x(AhContext(Poly.one(GF3))).is_zero()
        assert delta_p_of_x(AhContext(Poly.x(GF2))) == Poly.x(GF2)
        assert delta_p_of_x(AhContext(xn(GF3, 3))).is_zero()


class TestCenterCoords:
    def test_zeta_is_t2(self):
        ctx = AhContext(P(GF3, 1, 0, 1))
        assert ctx.center_coords(ctx.zeta_element()) == CenterPoly.t2(GF3)

    def test_xp_is_t1(self):
        ctx = AhContext(Poly.x(GF3))
        assert ctx.center_coords(WeylElement.from_poly(xn(GF3, 3))) == CenterPoly.t1(GF3)

    def test_division_oracle(self):
        ctx = AhContext(P(GF2, 1, 1))
        a = WeylElement.from_poly(xn(GF2, 2)) + WeylElement.from_term(ctx.h**4, 4)
        want = CenterPoly.t1(GF2) + CenterPoly.t2(GF2, 2)
        assert ctx.center_coords(a) == want

    def test_not_central(self):
        ctx = AhContext(Poly.x(GF3))
        assert isinstance(ctx.center_coords(WeylElement.x_power(GF3, 1)), NotCentralizing)
        assert isinstance(
            ctx.center_coords(WeylElement.y_power(GF3, 3)), NotCentralizing
        )  # y^3 needs h^3 | 1

    def test_center_value_roundtrip(self):
        ctx = AhContext(P(GF3, 0, 2, 1))
        rng = random.Random(20)
        for _ in range(10):
            z = CenterPoly(
                GF3,
                {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(3)
                    for _ in range(4)
                },
            )
            assert ctx.center_coords(ctx.central_mul(z, WeylElement.one(GF3))) == z


class TestCentralizerCoords:
    def test_char0_polys(self):
        ctx = AhContext(xn(QQ, 2))
        f = P(QQ, 1, 2)
        assert ctx.centralizer_x_coords(WeylElement.from_poly(f)) == (f,)

    def test_x_times_zeta(self):
        ctx = AhContext(Poly.x(GF3))
        f = ctx.zeta_element().poly_mul(Poly.x(GF3))
        coords = x_coordinates(ctx.centralizer_x_coords(f))
        assert set(coords) == {1}
        assert coords[1] == CenterPoly.t2(GF3)

    def test_xy_not_centralizing(self):
        ctx = AhContext(Poly.x(QQ))
        bad = WeylElement.from_term(Poly.x(QQ), 1)
        assert isinstance(ctx.centralizer_x_coords(bad), NotCentralizing)


class TestNormalizer:
    def test_a_n_elements_normalize(self):
        for field, h in [(QQ, (0, 0, 1)), (QQ, (0, -1, 0, 1)), (GF3, (0, 0, 1))]:
            ctx = AhContext(Poly(field, h))
            for n in (1, 2, 3):
                assert ctx.normalizer_test(ctx.a_n_element(n)).ok

    def test_char0_failure_diagnosed(self):
        ctx = AhContext(xn(QQ, 2))
        res = ctx.normalizer_test(WeylElement.y_power(QQ, 1))
        assert not res.ok
        assert res.failing_y_degree == 1

    def test_ah_elements_normalize(self):
        rng = random.Random(21)
        for field, h in [(QQ, (0, 0, 1)), (GF2, (0, 1)), (GF3, (0, 0, 0, 1))]:
            ctx = AhContext(Poly(field, h))
            for _ in range(8):
                assert ctx.normalizer_test(random_ah(rng, ctx)).ok

    def test_char_p_equiv0_condition(self):
        # w y^p with w' = 0 normalizes; w = x fails for h = x^2 (p=3)
        ctx = AhContext(P(GF3, 0, 0, 1))
        z = WeylElement.from_term(xn(GF3, 3), 3)
        assert ctx.normalizer_test(z).ok
        bad = WeylElement.from_term(Poly.x(GF3), 3)
        res = ctx.normalizer_test(bad)
        assert not res.ok and res.failing_y_degree == 3

    def test_a_n_zero_not_materialized(self):
        ctx = AhContext(xn(QQ, 2))
        with pytest.raises(ValueError):
            ctx.a_n_element(0)
        assert ctx.a_n_element(1) == WeylElement.from_term(Poly.x(QQ), 1)
        assert ctx.a_n_element(2) == WeylElement.from_term(xn(QQ, 3), 2)


class TestEmbedding:
    """A_g sits inside A_f exactly when f | g: yhat_g = y g = (y f)(g/f)."""

    def test_yhat_image(self):
        src = AhContext(xn(QQ, 2))
        dst = AhContext(Poly.x(QQ))
        # y x^2 in normal form is x^2 y + 2x = (yx)x reordered
        assert src.yhat == WeylElement(QQ, {1: xn(QQ, 2), 0: P(QQ, 0, 2)})
        assert dst.ah_membership(src.yhat)
        # relation preservation: [yhat_src, x] = h_src
        assert commutator(src.yhat, dst.x_elt) == WeylElement.from_poly(src.h)

    def test_requires_divisibility(self):
        src = AhContext(Poly.x(QQ))
        dst = AhContext(xn(QQ, 2))
        assert not dst.ah_membership(src.yhat)

    def test_relation_preserved_random(self):
        rng = random.Random(22)
        for field in (QQ, GF3):
            f = P(field, 1, 1)
            g = f * xn(field, 1)
            src, dst = AhContext(g), AhContext(f)
            for _ in range(4):
                a = random_ah(rng, src)
                assert dst.ah_membership(a)
            assert dst.ah_membership(src.yhat)
            assert commutator(src.yhat, dst.x_elt) == WeylElement.from_poly(g)


class TestThetaMap:
    def test_h_one_values(self):
        ctx = AhContext(Poly.one(GF3))
        p = 3
        assert ctx.theta_p_map(xn(GF3, p - 1)) == Poly.constant(GF3, -1)
        for j in range(p - 1):
            assert ctx.theta_p_map(xn(GF3, j)).is_zero()

    @pytest.mark.parametrize("p", [3, 5])
    def test_prime_power_identity(self, p):
        # (f' f^(p-1))^(p-1) = -(f')^p for all f
        field = FieldSpec(p)
        rng = random.Random(p)
        for _ in range(20):
            f = random_poly(rng, field, 4)
            lhs = (f.derivative() * f ** (p - 1)).derivative(p - 1)
            rhs = -(f.derivative() ** p)
            assert lhs == rhs

    def test_theta_of_x_j_is_minus_hbar(self):
        for field, h_coeffs in [(GF3, (0, 0, 1)), (GF5, (0, 1)), (GF2, (1, 1))]:
            ctx = AhContext(Poly(field, h_coeffs))
            for j in range(field.p):
                got = ctx.theta_p_map(xn(field, j))
                assert got == -ctx.hbar_components[field.p - 1 - j]


class TestHbarQbreve:
    def test_h_x(self):
        for p in (2, 3, 5):
            ctx = AhContext(Poly.x(FieldSpec(p)))
            hbar, qbreve = ctx.hbar, ctx.qbreve
            assert hbar.is_one()
            assert qbreve == Poly.constant(FieldSpec(p), -1)

    def test_h_one(self):
        for p in (2, 3):
            field = FieldSpec(p)
            ctx = AhContext(Poly.one(field))
            hbar, qbreve = ctx.hbar, ctx.qbreve
            assert hbar.is_one()
            assert qbreve == Poly.monomial(field, -1, p - 1)

    def test_h_x2_p3(self):
        ctx = AhContext(xn(GF3, 2))
        hbar, qbreve = ctx.hbar, ctx.qbreve
        assert hbar == Poly.x(GF3)  # u
        assert ctx.theta_p_map(qbreve) == hbar

    def test_bezout_and_vartheta_witness(self):
        for field, h_coeffs in [(GF2, (0, 0, 1)), (GF3, (1, 2, 1)), (GF5, (0, 0, 0, 1))]:
            ctx = AhContext(Poly(field, h_coeffs))
            acc = Poly.zero(field)
            for qi, hi in zip(ctx.qbreve_multipliers, ctx.hbar_components):
                acc = acc + qi * hi
            assert acc == ctx.hbar
            assert ctx.theta_p_map(ctx.qbreve) == ctx.hbar


class TestThetaComplement:
    def test_powers_of_x_small(self):
        # h = x^n for 2 <= n < p: S = {x^i : 0 <= i <= n-2}
        for p, n in [(3, 2), (5, 2), (5, 3), (5, 4)]:
            ctx = AhContext(xn(FieldSpec(p), n))
            S = ctx.theta_complement_S()
            assert S == [xn(FieldSpec(p), i) for i in range(n - 1)]

    def test_h_in_base(self):
        # h in F[x^p]: S = {x^i : i < deg h, i != -1 mod p}
        for p, h in [(2, xn(GF2, 2)), (3, xn(GF3, 3) + Poly.one(GF3))]:
            field = FieldSpec(p)
            ctx = AhContext(h)
            S = ctx.theta_complement_S()
            want = [
                xn(field, i)
                for i in range(int(h.degree))
                if (i + 1) % p != 0
            ]
            assert S == want

    def test_trivial_cases(self):
        assert AhContext(Poly.one(GF3)).theta_complement_S() == []
        assert AhContext(Poly.x(GF5)).theta_complement_S() == []

    def test_S_inside_theta_outside_im_delta(self):
        for ctx in (AhContext(xn(GF5, 3)), AhContext(xn(GF3, 3))):
            for s in ctx.theta_complement_S():
                assert ctx.in_theta(s)
                assert ctx.im_delta_preimage(s) is None

    def test_split_theta(self):
        ctx = AhContext(xn(GF5, 3))
        rng = random.Random(23)
        for _ in range(15):
            c = random_poly(rng, GF5, 5)
            s_true = ctx.theta_complement_S()[rng.randrange(2)]
            g = s_true + ctx.delta(c)
            s, c_back = ctx.split_theta(g)
            assert s == s_true
            assert g == s + ctx.delta(c_back)

    def test_im_delta_subset_im_delta0_subset_theta(self):
        for ctx in (AhContext(xn(GF3, 2)), AhContext(P(GF5, 0, 0, 1))):
            rng = random.Random(24)
            for _ in range(20):
                r = random_poly(rng, ctx.field, 6)
                # delta(r) = delta0(r * h/pi), so im delta <= im delta0
                assert ctx.delta(r) == ctx.delta0(r * ctx.h_over_pi)
                # im delta0 <= Theta
                assert ctx.in_theta(ctx.delta0(r))


# -- the exact Theta construction against the derivative passes and the old window ----


def theta_by_derivatives(ctx, r):
    """vartheta(r) = (r h^(p-1))^(p-1) by p-1 derivative passes, as a
    polynomial in u = x^p; asserts that it lies in F[x^p]."""
    p = ctx.p
    v = (r * ctx.h ** (p - 1)).derivative(p - 1)
    split = v.frobenius_split()
    assert all(c.is_zero() for c in split[1:]), f"vartheta({r}) is not in F[x^p]"
    return split[0]


def theta_S_by_window(ctx):
    """S by linear algebra over the window deg h + 2p: the kernel of
    vartheta on x^0..x^n_max, less what im delta and earlier kernel elements
    span, with the check that S stabilized two p-blocks below n_max."""
    p, F = ctx.p, ctx.field
    deg_h = int(ctx.h.degree)
    n_max = deg_h + 2 * p
    images = [theta_by_derivatives(ctx, xn(F, i)).coeffs for i in range(n_max + 1)]
    kernel = [Poly(F, rel) for rel in relations(F, images) if rel is not None]
    gens = [(xn(F, n) * ctx.h).coeffs for n in range(n_max - deg_h + 1) if n % p != p - 1]
    rels = relations(F, gens + [q.coeffs for q in kernel])
    S = [q for q, rel in zip(kernel, rels[len(gens) :]) if rel is None]
    assert all(s.degree <= n_max - 2 * p for s in S), "S did not stabilize"
    return S


@st.composite
def theta_contexts(draw):
    """AhContext over GF(p), p <= 13, with h squarefree, with repeated
    factors (multiplicities up to p + 1), or in F[x^p]."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    F = FieldSpec(p)

    def poly(max_deg):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_deg + 1))
        f = Poly(F, coeffs)
        return f if f else Poly.one(F)

    kind = draw(st.sampled_from(["squarefree", "repeated", "frobenius"]))
    if kind == "squarefree":
        h = AhContext(poly(5)).pi_h
    elif kind == "repeated":
        h = poly(1) ** draw(st.integers(2, p + 1)) * poly(3)
    else:
        h = poly(2).substitute_xp()
    return AhContext(h)


def theta_by_full_product(ctx, r):
    """Oracle: the Cartier read off the whole product r h^(p-1)."""
    p = ctx.p
    return Poly(ctx.field, [-c for c in (r * ctx.h_power(p - 1)).coeffs[p - 1 :: p]])


@given(p=st.sampled_from([2, 3, 5, 7, 13]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cartier_theta_matches_full_product(p, data):
    F = FieldSpec(p)
    h = Poly(F, data.draw(st.lists(st.integers(0, p - 1), max_size=6))) or Poly.one(F)
    ctx = AhContext(h)
    r = Poly(F, data.draw(st.lists(st.integers(0, p - 1), max_size=3 * p)))
    for s in (r, Poly.zero(F)):
        assert ctx.theta_p_map(s) == theta_by_full_product(ctx, s)


@given(ctx=theta_contexts(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cartier_theta_matches_derivative_passes(ctx, data):
    F = ctx.field
    coeffs = data.draw(st.lists(st.integers(0, ctx.p - 1), max_size=3 * ctx.p))
    r = Poly(F, coeffs)
    want = theta_by_derivatives(ctx, r)
    assert ctx.theta_p_map(r) == want
    assert ctx.theta_of(r) == want.substitute_xp()
    assert ctx.in_theta(r) == want.is_zero()


@given(ctx=theta_contexts())
@settings(max_examples=40, deadline=None)
def test_theta_S_matches_window_and_dimension(ctx):
    S = ctx.theta_complement_S()
    assert S == theta_S_by_window(ctx)
    assert len(S) == ctx.hbar.degree
    assert all(s.degree < ctx.h.degree for s in S)


@given(ctx=theta_contexts(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_theta_recovers_parts(ctx, data):
    p, F = ctx.p, ctx.field
    S = ctx.theta_complement_S()
    s = Poly.zero(F)
    for b in S:
        s = s + b.scale(data.draw(st.integers(0, p - 1)))
    # the preimage split_theta returns: constant term 0, no x^(kp) terms,
    # degree up to beyond the old deg h + 2p window
    top = int(ctx.h.degree) + 2 * p + 5
    raw = data.draw(st.lists(st.integers(0, p - 1), max_size=top + 1))
    c = Poly(F, [0 if i % p == 0 else v for i, v in enumerate(raw)])
    assert ctx.split_theta(s + ctx.delta(c)) == (s, c)


class TestFrobeniusBaseEquivalence:
    @pytest.mark.parametrize("field,h", [(GF3, (0, 0, 1)), (GF2, (0, 1, 1)), (GF5, (0, 1))])
    def test_v_hp1_in_base_equivalence(self, field, h):
        # v h^(p-1) in F[x^p]  <=>  v'h = vh'  <=>  v in F[x^p] h/varrho
        ctx = AhContext(Poly(field, h))
        rng = random.Random(25)
        p = field.p
        w = ctx.h.exact_div(ctx.varrho_h)
        for _ in range(50):
            v = random_poly(rng, field, 6)
            if rng.random() < 0.4:
                v = w * random_poly(rng, field, 2).substitute_xp() if rng.random() < 0.7 else v
            c1 = (v * ctx.h ** (p - 1)).in_frobenius_base()
            c2 = v.derivative() * ctx.h == v * ctx.h.derivative()
            q, rem = divmod(v, w)
            c3 = rem.is_zero() and q.in_frobenius_base()
            assert c1 == c2 == c3


class TestCenterCommutatorSplit:
    @pytest.mark.parametrize("h", [(0, 0, 1), (0, 0, 0, 1), (0, -1, 0, 1), (0, 0, -2, 0, 1)])
    def test_split(self, h):
        ctx = AhContext(Poly(QQ, h))
        rng = random.Random(26)
        for _ in range(20):
            g = random_poly(rng, QQ, int(ctx.h.degree) - 1)
            z, q = split_center_commutator(ctx, g)
            assert g == z * ctx.h_over_pi + ctx.delta0(q)
            assert z.is_zero() or z.degree < ctx.pi_h.degree
            assert q.is_zero() or q.degree < ctx.h_over_pi.degree


def split_Dhi_plus_Fxp(ctx, w, i):
    """Oracle: (d, z) with w = d*h^i + z, z in F[x^p], or None if impossible,
    by row reduction in D/(h^i) on the residues of x^(pj), j < deg h^i.
    Once one of them depends on those before it, every later one does too,
    since x^p maps their span into itself; so the independent ones span all
    residues of F[x^p], and the relation of w mod h^i involves only them."""
    F = ctx.field
    hi = ctx.h_power(i)
    if hi.is_constant():
        return w.exact_div(hi), Poly.zero(F)
    xp = Poly.monomial(F, 1, ctx.p)
    reps = [Poly.one(F)]
    for _ in range(int(hi.degree) - 1):
        reps.append((xp * reps[-1]) % hi)
    rel = relations(F, [r.coeffs for r in reps] + [(w % hi).coeffs])[-1]
    if rel is None:
        return None
    z = Poly.zero(F)
    for j, c in enumerate(rel[: len(reps)]):
        if c:
            z = z + Poly.monomial(F, -c, ctx.p * j)
    d = (w - z).exact_div(hi)
    return d, z


class TestSplitDhiPlusFxp:
    def test_examples(self):
        ctx = AhContext(Poly.x(GF3))
        # x^3 = 0*h^3 + x^3 with x^3 in F[x^p]
        got = split_Dhi_plus_Fxp(ctx, xn(GF3, 3), 3)
        assert got is not None
        d, z = got
        assert d * ctx.h**3 + z == xn(GF3, 3)
        assert z.in_frobenius_base()

    def test_membership_boundary(self):
        ctx = AhContext(P(GF3, 0, 0, 1))  # h = x^2, p = 3
        # w = x: x not in D h^1 + F[x^3]? x = d x^2 + z impossible
        assert split_Dhi_plus_Fxp(ctx, Poly.x(GF3), 1) is None
        rng = random.Random(27)
        for _ in range(20):
            d = random_poly(rng, GF3, 3)
            z = random_poly(rng, GF3, 2).substitute_xp()
            w = d * ctx.h**2 + z
            got = split_Dhi_plus_Fxp(ctx, w, 2)
            assert got is not None
            d2, z2 = got
            assert d2 * ctx.h**2 + z2 == w and z2.in_frobenius_base()

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        kind=st.sampled_from(["free", "repeated", "frobenius"]),
        f=st.lists(st.integers(0, 6), min_size=0, max_size=2),
        g=st.integers(0, 6),
        k=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_the_remainder_at_p_divides_i(self, p, kind, f, g, k, seed):
        # h^(kp) = h^k(x^p), so w lies in D h^(kp) + F[x^p] iff
        # w mod h^(kp) lies in F[x^p], and then that remainder is z
        ctx = AhContext(monic_with_factor(FieldSpec(p), kind, f, g))
        rng = random.Random(seed)
        i = k * p
        hi = ctx.h_power(i)
        w = random_poly(rng, ctx.field, 3) * hi
        w = w + random_poly(rng, ctx.field, 3).substitute_xp()
        if rng.random() < 0.5:
            w = w + random_poly(rng, ctx.field, int(hi.degree) - 1)
        got = split_Dhi_plus_Fxp(ctx, w, i)
        z = w % hi
        assert (got is not None) == z.in_frobenius_base()
        if got is not None:
            assert got == ((w - z).exact_div(hi), z)


def monic_with_factor(field, kind, f, g):
    """The monic h with low coefficients f, times (x + g)^2 for "repeated"
    or (x + g)^p for "frobenius" ("free" leaves it as it is)."""
    h = Poly(field, list(f) + [1])
    if kind == "repeated":
        h = h * Poly(field, [g, 1]) ** 2
    elif kind == "frobenius":
        h = h * Poly(field, [g, 1]) ** field.p
    return h


class TestHpOverVarrho:
    @given(
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
        kind=st.sampled_from(["free", "repeated", "frobenius"]),
        f=st.lists(st.integers(0, 12), min_size=0, max_size=3),
        g=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_frobenius_identities(self, p, kind, f, g):
        # h^p / varrho_h = (h / sigma)(x^p), (h')^p / varrho_h = (h' / sigma)(x^p)
        ctx = AhContext(monic_with_factor(FieldSpec(p), kind, f, g))
        h = ctx.h
        assert ctx.varrho_root.substitute_xp() == ctx.varrho_h
        assert ctx.hp_over_varrho == (h**p).exact_div(ctx.varrho_h)
        hprime_p = (h.derivative() ** p).exact_div(ctx.varrho_h)
        assert h.derivative().exact_div(ctx.varrho_root).substitute_xp() == hprime_p

    def test_constant_and_pth_power(self):
        ctx = AhContext(P(GF3, 2))
        assert ctx.hp_over_varrho == P(GF3, 2)
        ctx = AhContext(xn(GF3, 3) * P(GF3, 1, 1))  # varrho_h = x^3
        assert ctx.varrho_root == Poly.x(GF3)
        assert ctx.hp_over_varrho == xn(GF3, 6) * P(GF3, 1, 0, 0, 1)


@given(
    field=st.sampled_from([QQ, GF2, GF3, GF5]),
    low=st.lists(st.integers(-3, 3), max_size=3),
    lc=st.integers(1, 4),
    roots=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 7)), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_h_over_pi_rho_is_h_over_pi_h_varrho_h(field, low, lc, roots):
    # multiplicities past p, at and off its multiples; over Q a fractional lc
    h = Poly(field, [*low, lc])
    for g, m in roots:
        h = h * Poly(field, [g, 1]) ** m
    if field.is_char_zero:
        h = h.scale(Fraction(1, 3))
    if h.is_zero():
        return
    ctx = AhContext(h)
    assert ctx.h_over_pi_rho == h.exact_div(ctx.pi_h * ctx.varrho_h)


def termwise_is_inner(d):
    """Oracle: is_inner in characteristic p for a derivation with no center,
    D_s or outer part before the normalizer part, deciding each term r y^i
    by exact division by h^i for p not dividing i and by the row reduction
    `split_Dhi_plus_Fxp` for p | i."""
    ctx = d.context
    dec = decompose_Ah_charp(d)
    assert dec.u.is_zero() and dec.v.is_zero() and dec.s.is_zero()
    witness = dec.inner_witness
    for i, r in sorted(dec.normalizer_part.terms.items()):
        outer = NotInner(
            f"normalizer part at y-degree {i} is outside A_h + Z(A_1)",
            dec,
            residue=WeylElement.from_term(r, i),
        )
        if i % ctx.p:
            if not ctx.h_power(i).divides(r):
                return outer
            witness = witness + WeylElement.from_term(r, i)
        else:
            split = split_Dhi_plus_Fxp(ctx, r, i) if i else (r, Poly.zero(ctx.field))
            if split is None:
                return outer
            di, _z = split
            if not di.is_zero():
                witness = witness + WeylElement.from_term(di * ctx.h_power(i), i)
    return InnerWitness(witness, dec)


def normalizer_element(rng, ctx, top):
    """Random a in N(A_h) up to y-degree top. A term at p not dividing i is
    r pi_h h^(i-1), in A_h when h/pi_h divides r, which a coin makes it
    four times in five; a term at p | i is d h^i + z h^(i-p) with z in
    F[x^p], and lies in A_h + Z(A_1)."""
    F = ctx.field
    p = ctx.p
    a = WeylElement.from_poly(random_poly(rng, F, 3))
    for i in range(1, top + 1):
        if rng.random() < 0.3:
            continue
        if i % p:
            r = random_poly(rng, F, 2)
            if rng.random() < 0.8:
                r = r * ctx.h_over_pi
            w = r * ctx.pi_h * ctx.h_power(i - 1)
        else:
            z = random_poly(rng, F, 2).substitute_xp()
            w = random_poly(rng, F, 2) * ctx.h_power(i) + z * ctx.h_power(i - p)
        a = a + WeylElement.from_term(w, i)
    return a


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["free", "repeated", "frobenius"]),
    f=st.lists(st.integers(0, 6), min_size=0, max_size=2),
    g=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_is_inner_matches_termwise_row_reduction(p, kind, f, g, seed):
    # normalizer elements up to y-degree 2p + 1, perturbed half the time at
    # y-degree p by normalizer quotient generators, which are outside
    # A_h + Z(A_1) there
    ctx = AhContext(monic_with_factor(FieldSpec(p), kind, f, g))
    rng = random.Random(seed)
    a = normalizer_element(rng, ctx, 2 * p + 1)
    if rng.random() < 0.5:
        for gen in _normalizer_quotient_level(ctx, p).generators:
            a = a + WeylElement.from_term(gen.scale(rng.randrange(p)), p)
    d = ad(a, ctx)
    assert is_inner(d) == termwise_is_inner(d)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["squarefree", "repeated", "frobenius"]),
    f=st.lists(st.integers(0, 6), min_size=0, max_size=2),
    g=st.integers(0, 6),
    source=st.sampled_from(["random", "normalizer"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_normalizer_part_has_no_xp_terms_at_p_divides_i(p, kind, f, g, source, seed):
    # why is_inner has no F[x^p] route: a normalizer term r y^(kp) is an
    # antiderivative, so its Frobenius component 0 is zero, and so is that
    # of r mod h^(kp) = r mod h^k(x^p)
    if kind == "squarefree":
        h = monic_with_factor(FieldSpec(p), "free", f, g)
        h = h.exact_div(h.gcd_monic(h.derivative()))
    else:
        h = monic_with_factor(FieldSpec(p), kind, f, g)
    ctx = AhContext(h)
    rng = random.Random(seed)
    if source == "random":
        d = random_derivation(rng, ctx)
    else:
        a = normalizer_element(rng, ctx, 2 * p + 1)
        for gen in _normalizer_quotient_level(ctx, p).generators:
            a = a + WeylElement.from_term(gen.scale(rng.randrange(p)), p)
        d = ad(a, ctx)
    for i, r in decompose_Ah_charp(d).normalizer_part.terms.items():
        if i % p == 0:
            assert r.frobenius_split()[0].is_zero()


# -- the raw elimination against the element-level route it replaced ------------------------


def collect_by_elements(ctx, a, period):
    """Oracle: the yhat coordinates (period 0) or the yhat-zeta coordinates
    (period p) on Weyl elements, {(j, k): g}, each step subtracting the
    reduced element g zeta^k yhat^j."""
    out = {}
    work = a
    while work:
        m = work.y_degree
        k, j = divmod(m, period) if period else (0, m)
        try:
            g = work.terms[m].exact_div(ctx.h_power(m))
        except ExactDivisionError as e:
            raise MembershipError(
                f"y-degree {m} coefficient not divisible by h^{m}: not in A_h"
            ) from e
        out[j, k] = g
        work = work - ctx.zeta_mul(yhat_power(ctx, j), k, g)
        assert not work or work.y_degree < m
    return out


@given(p=st.sampled_from([0, 2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_raw_collect_matches_element_route(p, seed):
    # the raw eliminations of the yhat-zeta oracle, with period 0 (the yhat
    # coordinates of `aut_by_yhat_coordinates`) and p (`apply_by_yhat_zeta`);
    # y-degrees past 2p reach zeta^k with k >= 2; over Q, h and a carry
    # denominators; a non-member fails at the same degree with the same text
    field = FieldSpec(p)
    rng = random.Random(seed)
    ctx = AhContext(random_h(rng, field, 1))
    a = random_ah(rng, ctx, max_ydeg=2 * p + 2 if p else 5).scale(fraction(rng, field))
    b = a + random_weyl(rng, field, 2 * p + 2 if p else 5, 3).scale(fraction(rng, field))
    for c in (a, b):
        for period in (0, p):
            try:
                want = collect_by_elements(ctx, c, period)
            except MembershipError as e:
                with pytest.raises(MembershipError, match=f"^{re.escape(str(e))}$"):
                    yhat_zeta_collect(ctx, c, period)
            else:
                assert yhat_zeta_collect(ctx, c, period) == want
