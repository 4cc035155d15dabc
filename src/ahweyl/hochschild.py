"""HH^1(A_h) = Der/Inder as computable data.

Both characteristics share the bases D_g and ad_{r a_n}, the closed forms
[D_g, ad_{s a_n}] = n ad_{(gs) a_{n-1}} and
[ad_{r a_m}, ad_{s a_n}] = ad_{(m r delta0(s) - n s delta0(r)) a_{m+n-1}},
and the level rule: r is read mod h/pi_h, and ad_{r a_0} = -D_{delta0(r)}.

Characteristic 0: canonical class representatives D_g + sum ad_{r_n a_n}
(deg g < deg h, deg r_n < deg(h/pi_h), n >= 1; level-0 ad terms are rewritten
into the g slot by the level rule), the closed-form Lie bracket on classes,
the center of HH^1, and the structure report, with the nilpotency index of
the maximal nilpotent ideal N of the commutator ideal.

Characteristic p: symbolic derivation expressions over the generator bases
{D_g, ad_{r a_n}, bhat_x, bhat_f} with center-polynomial coefficients, the
closed-form brackets between them (one route: every pair of bases has a
closed form, and the brackets are closed on their own output, as the ad_b
part of [D_g, bhat_x] is written in the bases ad_{r a_n}), and the
freeness / module-structure report over the center.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .centerpoly import CenterPoly
from .context import AhContext
from .derivations import (
    D_g,
    Derivation,
    ad_ra_n,
    bhat_x,
    decompose_Ah_char0,
    CenterDerivation,
)
from .fields import check_same_field
from .poly import NotIntegrable, Poly
from .record import Record
from .weyl import WeylElement, _hasse_rows


# ---------------------------------------------------------------------------
# both characteristics: the bases D_g, ad_{r a_n} and their closed forms
# ---------------------------------------------------------------------------


class BDg(Record):
    """D_g for g in F[x]."""

    __slots__ = ("g",)


class BAd(Record):
    """ad_{r a_n}, n >= 1."""

    __slots__ = ("r", "n")


def _dg_ad(g: Poly, s: Poly, n: int):
    """[D_g, ad_{s a_n}] = n ad_{(g s) a_{n-1}}, as (level, coefficient)."""
    return n - 1, (g * s).scale(n)


def _ad_ad(ctx: AhContext, r: Poly, m: int, s: Poly, n: int):
    """[ad_{r a_m}, ad_{s a_n}] = ad_{(m r delta0(s) - n s delta0(r)) a_{m+n-1}},
    as (level, coefficient)."""
    return m + n - 1, (r * ctx.delta0(s)).scale(m) - (s * ctx.delta0(r)).scale(n)


def _ad_level(ctx: AhContext, coeff, n: int, r: Poly) -> list:
    """coeff ad_{r a_n} as expr parts, by the level rule: r is reduced mod
    h/pi_h (for h/pi_h | r, r a_n lies in A_h), and at level 0 ad_{r a_0} is
    written -D_{delta0(r)}."""
    r = r % ctx.h_over_pi
    if r.is_zero():
        return []
    if n == 0:
        return [(-coeff, BDg(ctx.delta0(r)))]
    return [(coeff, BAd(r, n))]


# ---------------------------------------------------------------------------
# characteristic 0: canonical classes
# ---------------------------------------------------------------------------


class HH1ClassChar0:
    """Canonical representative of a class in HH^1(A_h), characteristic 0."""

    __slots__ = ("context", "g", "terms")

    def __init__(self, ctx: AhContext, g: Poly, terms=()):
        if not ctx.field.is_char_zero:
            raise ValueError("characteristic-0 classes")
        check_same_field(ctx.field, g.field)
        acc = {}
        for n, r in terms:
            if n < 0:
                raise ValueError("negative level")
            acc[n] = acc.get(n, Poly.zero(ctx.field)) + r
        clean = {}
        for n, r in acc.items():
            for c, b in _ad_level(ctx, 1, n, r):
                if isinstance(b, BAd):
                    clean[n] = b.r
                else:  # level 0, into the D slot
                    g = g + b.g.scale(c)
        self.context = ctx
        self.g = g % ctx.h
        self.terms = tuple(sorted(clean.items()))

    def is_zero(self) -> bool:
        return self.g.is_zero() and not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HH1ClassChar0)
            and self.context is other.context
            and self.g == other.g
            and self.terms == other.terms
        )

    def __add__(self, other: "HH1ClassChar0") -> "HH1ClassChar0":
        return HH1ClassChar0(
            self.context, self.g + other.g, tuple(self.terms) + tuple(other.terms)
        )

    def scale(self, c) -> "HH1ClassChar0":
        return HH1ClassChar0(
            self.context,
            self.g.scale(c),
            tuple((n, r.scale(c)) for n, r in self.terms),
        )

    def to_derivation(self) -> Derivation:
        d = D_g(self.g, self.context)
        for n, r in self.terms:
            d = d + ad_ra_n(r, n, self.context)
        return d

    def describe(self) -> str:
        parts = []
        if not self.g.is_zero():
            parts.append(f"D_[{self.g}]")
        for n, r in self.terms:
            parts.append(f"ad_[({r})*a_{n}]")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"HH1ClassChar0({self.describe()})"


def canonical_class_char0(d: Derivation) -> HH1ClassChar0:
    """Decompose, drop the inner part, rewrite level 0, reduce degrees."""
    dec = decompose_Ah_char0(d)
    return HH1ClassChar0(d.context, dec.g, dec.terms)


def bracket_char0(c1: HH1ClassChar0, c2: HH1ClassChar0) -> HH1ClassChar0:
    """Closed-form Lie bracket on canonical classes: [D_f, D_g] = 0, and the
    closed forms `_dg_ad` and `_ad_ad` for the pairs with an ad term."""
    ctx = c1.context
    if ctx is not c2.context:
        raise ValueError("classes over different contexts")
    raw = [_dg_ad(c1.g, s, n) for n, s in c2.terms]
    for m, r in c1.terms:
        level, c = _dg_ad(c2.g, r, m)
        raw.append((level, -c))
        raw.extend(_ad_ad(ctx, r, m, s, n) for n, s in c2.terms)
    return HH1ClassChar0(ctx, Poly.zero(ctx.field), raw)


def center_HH1_char0(ctx: AhContext) -> list:
    """Basis of Z(HH^1): the classes D_{x^j h/pi_h}, j < deg pi_h.
    `verify.check_hh1_center_char0` brackets them against the generator
    classes."""
    if not ctx.field.is_char_zero:
        raise ValueError("characteristic-0 center basis")
    return [HH1ClassChar0(ctx, ctx.h_over_pi.shift(j)) for j in range(int(ctx.pi_h.degree))]


def generator_classes_char0(ctx: AhContext, max_n: int = 3) -> list:
    """A convenient spanning family of classes for bracket tests: D_{x^i}
    and ad_{x^i a_n}."""
    gens = []
    for i in range(max(int(ctx.h.degree), 1)):
        gens.append(HH1ClassChar0(ctx, Poly.monomial(ctx.field, 1, i)))
    width = int(ctx.h_over_pi.degree)
    for n in range(1, max_n + 1):
        for i in range(max(width, 1)):
            cls = HH1ClassChar0(
                ctx, Poly.zero(ctx.field), [(n, Poly.monomial(ctx.field, 1, i))]
            )
            if not cls.is_zero():
                gens.append(cls)
    return gens


# ---------------------------------------------------------------------------
# characteristic 0: structure report
# ---------------------------------------------------------------------------


class HH1ReportChar0(Record):
    """Structure of HH^1 in characteristic 0. `center_basis` holds the
    polynomials g with Z(HH^1) spanned by the D_g;
    `multiplicity_gt1_primes`, ((u_i, alpha_i), ...), and
    `witt_summand_count` are None without factors."""

    __slots__ = (
        "dim_center",
        "center_basis",
        "hh1_trivial",
        "abelian",
        "multiplicity_gt1_primes",
        "nilpotent_N_trivial",
        "nilpotency_index_bound",
        "witt_summand_count",
    )


def structure_report_char0(ctx: AhContext) -> HH1ReportChar0:
    """Structure of HH^1 in characteristic 0, read off h = lc prod f_m^m
    (`ctx.squarefree`). h/pi_h = lc prod f_m^(m-1) and pi_(h/pi_h) is the
    product of the f_m with m > 1, so the least n with
    h/pi_h | pi_(h/pi_h)^n, the nilpotency index bound, is max m - 1 (0 for
    a unit), and N is trivial iff that bound is at most 1. The two fields
    that name prime factors need the verified factor list and are None
    without it."""
    if not ctx.field.is_char_zero:
        raise ValueError("characteristic-0 report")
    bound = max((m - 1 for _, m in ctx.squarefree), default=0)
    gt1 = None if ctx.factors is None else tuple((u, a) for u, a in ctx.factors if a > 1)
    return HH1ReportChar0(
        dim_center=int(ctx.pi_h.degree),
        center_basis=tuple(z.g for z in center_HH1_char0(ctx)),
        hh1_trivial=ctx.h.is_constant(),
        abelian=ctx.h_over_pi.is_constant(),
        multiplicity_gt1_primes=gt1,
        nilpotent_N_trivial=bound <= 1,
        nilpotency_index_bound=bound,
        witt_summand_count=None if gt1 is None else len(gt1),
    )


# ---------------------------------------------------------------------------
# characteristic p: symbolic derivation expressions and their brackets
# ---------------------------------------------------------------------------


class BBx(Record):
    """bhat_x = (h^p / varrho_h) E_x."""

    __slots__ = ()


class BBf(Record):
    """bhat_f = zeta D_{h'/varrho_h} - bhat_x."""

    __slots__ = ()


class DerExpr:
    """Formal sum of center-polynomial multiples of basis derivations."""

    __slots__ = ("context", "parts")

    def __init__(self, ctx: AhContext, parts=()):
        self.context = ctx
        clean = []
        for z, b in parts:
            if z.is_zero():
                continue
            if isinstance(b, BBf):
                # normalize bhat_f = t2 * D_{h'/varrho} - bhat_x
                clean.append((z.shift(1), BDg(ctx.hprime_over_varrho)))
                clean.append((-z, BBx()))
            else:
                clean.append((z, b))
        self.parts = tuple(clean)

    @classmethod
    def of(cls, ctx: AhContext, base, coeff: Optional[CenterPoly] = None) -> "DerExpr":
        if coeff is None:
            coeff = CenterPoly.one(ctx.field)
        return cls(ctx, ((coeff, base),))

    def materialize(self) -> Derivation:
        ctx = self.context
        total = Derivation(
            ctx, WeylElement.zero(ctx.field), WeylElement.zero(ctx.field)
        )
        for z, b in self.parts:
            total = total + _base_derivation(b, ctx).central_scale(z)
        return total


def _base_derivation(b, ctx: AhContext) -> Derivation:
    if isinstance(b, BDg):
        return D_g(b.g, ctx)
    if isinstance(b, BAd):
        return ad_ra_n(b.r, b.n, ctx)
    if isinstance(b, BBx):
        return bhat_x(ctx)
    raise TypeError(f"unknown base {b!r}")


def _base_res(b, ctx: AhContext) -> CenterDerivation:
    """Res of a basis derivation, as a center derivation."""
    F = ctx.field
    zero = CenterPoly.zero(F)
    if isinstance(b, BDg):
        return CenterDerivation(zero, CenterPoly.from_t1_poly(ctx.theta_p_map(b.g)))
    if isinstance(b, BAd):
        return CenterDerivation(zero, zero)
    if isinstance(b, BBx):
        # (h')^p / varrho_h = (h' / sigma)(x^p), with sigma the p-th root of varrho_h
        hp_u = ctx.h.derivative().exact_div(ctx.varrho_root)
        return CenterDerivation(
            -CenterPoly.from_t1_poly(ctx.hp_over_varrho.pth_root()),
            -CenterPoly.from_t1_poly(hp_u).shift(1),
        )
    raise TypeError(f"unknown base {b!r}")


def _core_bracket(ctx: AhContext, b1, b2) -> list:
    """Closed-form [b1, b2] of two input bases as expr parts. A pair out of
    the order D_g < bhat_x < ad_{r a_n} is swapped once, [b1, b2] = -[b2, b1],
    so each closed form below is written for one order only."""
    order = (BDg, BBx, BAd)
    if type(b1) in order and type(b2) in order and order.index(type(b1)) > order.index(type(b2)):
        return [(-z, b) for z, b in _core_bracket(ctx, b2, b1)]
    F = ctx.field
    one = CenterPoly.one(F)
    if isinstance(b1, (BDg, BBx)) and type(b2) is type(b1):  # [D_f, D_g] = [bhat_x, bhat_x] = 0
        return []
    if isinstance(b1, BDg) and isinstance(b2, BAd):
        return _ad_level(ctx, one, *_dg_ad(b1.g, b2.r, b2.n))
    if isinstance(b1, BAd) and isinstance(b2, BAd):
        return _ad_level(ctx, one, *_ad_ad(ctx, b1.r, b1.n, b2.r, b2.n))
    if isinstance(b1, BBx) and isinstance(b2, BAd):
        k, n = divmod(b2.n, ctx.p)
        if n == 0:
            inner = _core_bracket(ctx, BDg(ctx.delta0(b2.r)), BBx())
            return [(z.shift(k), b) for z, b in inner]
        zeta_n = ctx.h_over_pi_rho * ctx.delta0(b2.r) + (
            b2.r * ctx.hprime_over_varrho
        ).scale(n)
        return _ad_level(ctx, CenterPoly.t2(F, k + 1), n - 1, zeta_n)
    if isinstance(b1, BDg) and isinstance(b2, BBx):
        # b = sum_n b_n y^n lies in the normalizer, and its y-degrees n are
        # prime to p, so each b_n / (pi_h h^(n-1)) is exact: ad_b is the sum
        # of the ad_{r a_n}, kept whole (not reduced by the level rule), so
        # that the parts materialize to ad_b itself
        e, b = _dg_bx_closed_form(ctx, b1.g)
        parts = [(one, BAd(bn.exact_div(ctx.a_n_coefficient(n)), n)) for n, bn in b.items()]
        if not e.is_zero():
            parts.append((one, BDg(e)))
        return parts
    raise TypeError(f"no closed form for the bases {b1!r}, {b2!r}")


def _dg_bx_closed_form(ctx: AhContext, g: Poly):
    """[D_g, bhat_x] = D_e + ad_b: returns e and the nonzero terms {n: b_n}
    of b = sum_n b_n y^n, whose y-degrees are n = p - k for 1 <= k < p.

    With G = g h^(p-1), e varrho_h = E + h^(p-1) (h partial_p(g) -
    g partial_p(h)) for E = sum_k (-1)^(k-1)/k G^(k) h^(p-k). As G^(k) =
    k! H_k(G), h^(p-k) = (p-k)! H_(p-k)(h), and (k-1)! (p-k)! = (-1)^k by
    Wilson's theorem, E = -sum_k H_k(G) H_(p-k)(h): the cached table of h
    (`AhContext.h_hasse`) is read, and only the k >= p - deg h enter."""
    F = ctx.field
    p = ctx.p
    rho = ctx.varrho_h
    h = ctx.h
    ghp = g * ctx.h_power(p - 1)
    _, hasse = ctx.h_hasse(p)
    lo = max(1, p + 1 - len(hasse))  # H_(p-k)(h) = 0 for p - k > deg h
    e = ctx.h_power(p - 1) * (h * g.partial_p() - g * h.partial_p())
    for k, gk in enumerate(_hasse_rows(F, ghp.coeffs, lo, p), lo):
        e = e - Poly._canonical(F, gk) * Poly._canonical(F, hasse[p - k])
    e = e.exact_div(rho)
    b = {p - 1: ghp.exact_div(rho)}
    numerators = D_g(g, ctx).dy_numerators(p - 1)  # T_k = (g h^-1)^(k-1) h^k = P_(k-1)
    for k in range(2, p):
        tk = numerators[k - 1].coefficient(0)
        b[p - k] = (tk * ctx.h_power(p - k)).exact_div(rho).scale(Fraction((-1) ** k, p - k))
    return e, {n: bn for n, bn in b.items() if bn}


def bracket_charp(e1: DerExpr, e2: DerExpr) -> DerExpr:
    """Bracket of derivation expressions over the closed forms, with the
    coefficient rule [z1 b1, z2 b2] = z1 R1(z2) b2 - z2 R2(z1) b1
    + z1 z2 [b1, b2], R the restriction to the center. Every pair of input
    bases D_g, ad_{r a_n}, bhat_x (bhat_f is expanded on construction) has a
    closed form, and the output is again in these bases, so the bracket
    takes its own output as input."""
    ctx = e1.context
    if ctx is not e2.context:
        raise ValueError("expressions over different contexts")
    out = []
    for z1, b1 in e1.parts:
        r1 = _base_res(b1, ctx)
        for z2, b2 in e2.parts:
            r2 = _base_res(b2, ctx)
            dz2 = r1.apply(z2)
            if not dz2.is_zero():
                out.append((z1 * dz2, b2))
            dz1 = r2.apply(z1)
            if not dz1.is_zero():
                out.append((-(z2 * dz1), b1))
            for z, b in _core_bracket(ctx, b1, b2):
                out.append((z1 * z2 * z, b))
    return DerExpr(ctx, out)


# ---------------------------------------------------------------------------
# characteristic p: freeness and module report
# ---------------------------------------------------------------------------


class NormalizerQuotientLevel(Record):
    """N_i/(A_h + Z(A_1)) at one y-degree i, exactly: its dimension and a
    basis of polynomial coefficients."""

    __slots__ = ("y_degree", "dim", "generators")


class HH1CharPReport(Record):
    """Structure of HH^1 in characteristic p. `res_image_generators` is a
    pair of CenterDerivations, `basis_if_free` the descriptions of
    (D_qbreve, bhat_f) or None, `normalizer_quotient` a
    NormalizerQuotientLevel per y-degree."""

    __slots__ = (
        "free_over_center",
        "theta_quotient_dim",
        "res_image_generators",
        "basis_if_free",
        "freeness_certificates",
        "normalizer_quotient",
    )


def _normalizer_quotient_level(ctx: AhContext, i: int) -> NormalizerQuotientLevel:
    """N_i/(A_h + Z(A_1))_i as an F-space of polynomial coefficients.

    For p not dividing i it is spanned by x^j pi_h h^(i-1), j < deg(h/pi_h),
    so it has dim deg(h/pi_h), and is 0 when h is free (h/pi_h a unit).

    For p | i it is N_i/(h^i F[x] + F[x^p]) with N_i = {r : h^(i-1) | r'},
    and its basis is read off h^(i-1) S:

    * h^(i-p) is a p-th power, so it lies in F[x^p], and the Cartier read
      commutes with multiplication by it. So h^(i-1) s = h^(i-p) h^(p-1) s
      lies in F[x]' (the image of d/dx) iff s lies in Theta.
    * Hence r -> r'/h^(i-1) maps N_i onto Theta. Its kernel is F[x^p], and
      (h^i q)' = h^(i-1) delta(q) as p | i, so it induces an isomorphism
      N_i/(h^i F[x] + F[x^p]) -> Theta/im delta. The level has dim |S|,
      and is 0 when S is empty.
    * Theta = span S (+) im delta, and every s in S has degree
      <= deg h - 2: at degree deg h - 1 the leading coefficient of
      h^(p-1) s sits at x^(p deg h - 1), under the Cartier read. So each
      class has a representative r = integral of h^(i-1) s of degree
      <= i deg h - 1, below deg h^i, where nothing reduces mod h^i.

    Each r has no x^(kp) terms. Made monic and reduced against the earlier
    generators at their leading degrees, in order of increasing deg s, they
    are the reduced basis that row reduction of N_i modulo
    h^i F[x] + F[x^p] gives on any degree window reaching i deg h - 1.

    A level of dim 0 is returned without forming a power of h."""
    if i % ctx.p:
        dim = int(ctx.h_over_pi.degree)
        if not dim:
            return NormalizerQuotientLevel(i, 0, ())
        base = ctx.a_n_coefficient(i)
        return NormalizerQuotientLevel(i, dim, tuple(base.shift(j) for j in range(dim)))
    S = ctx.theta_complement_S()
    if not S:
        return NormalizerQuotientLevel(i, 0, ())
    hi1 = ctx.h_power(i - 1)
    gens = []
    for s in S:
        r = (hi1 * s).antiderivative()
        if isinstance(r, NotIntegrable):
            raise AssertionError(
                f"h^(i-1) * {s} has no antiderivative for h = {ctx.h}, i = {i}: "
                "an element of S lies outside Theta"
            )
        r = r.monic()
        for g in gens:
            c = r.coefficient(int(g.degree))
            if c:
                r = r - g.scale(c)
        gens.append(r)
    return NormalizerQuotientLevel(i, len(gens), tuple(gens))


def freeness_and_module_report_charp(
    ctx: AhContext, seed: int = 0, certificates: int = 10
) -> HH1CharPReport:
    """Freeness of HH^1 over the center (iff h/pi_h is a unit) plus the
    image of the restriction map and the normalizer quotient
    N/(A_h + Z(A_1)) at each y-degree up to degree_bound, each level exact
    (see `_normalizer_quotient_level`).

    In the free case, each of `certificates` random normalizer elements a,
    drawn from `seed`, is checked to lie in A_h + Z(A_1), so that ad_a is
    inner (`AhContext.ah_center_part`, which holds the proof). The check is
    direct, term by term, and runs no decomposition; the decomposer's
    `is_inner` is checked against the same membership test in
    `verify.check_extension_faithfulness`. A failing certificate raises an
    AssertionError that names the first y-degree outside A_h + Z(A_1)."""
    ctx._require_char_p()
    free = ctx.h_over_pi.is_constant()
    S = ctx.theta_complement_S()
    res_gens = (
        CenterDerivation(
            CenterPoly.from_t1_poly(ctx.hp_over_varrho.pth_root()),
            CenterPoly.zero(ctx.field),
        ),
        CenterDerivation(
            CenterPoly.zero(ctx.field), CenterPoly.from_t1_poly(ctx.hbar)
        ),
    )
    certified = 0
    if free:
        rng = random.Random(seed)
        from .verify import random_normalizer_element

        for _ in range(certificates):
            a = random_normalizer_element(rng, ctx)
            if ctx.ah_center_part(a) is None:
                degree = min(
                    i
                    for i, r in a.terms.items()
                    if ctx.ah_center_part(WeylElement.from_term(r, i)) is None
                )
                raise AssertionError(
                    f"freeness certificate failed: the y-degree {degree} term of a "
                    "normalizer element is outside A_h + Z(A_1), so its ad is not inner"
                )
            certified += 1
    levels = [_normalizer_quotient_level(ctx, i) for i in range(1, ctx.degree_bound + 1)]
    basis = ("D_qbreve", "bhat_f") if free else None
    return HH1CharPReport(
        free_over_center=free,
        theta_quotient_dim=len(S),
        res_image_generators=res_gens,
        basis_if_free=basis,
        freeness_certificates=certified,
        normalizer_quotient=tuple(levels),
    )
