"""Derivations of A_h and A_1 as first-class values.

A derivation of A_h is stored by its generator images (D(x), D(yhat)),
subject to two checks: both images lie in A_h, and the existence criterion
[D(yhat), x] + [yhat, D(x)] = d(h) holds, where d is the derivation of F[x]
with d(x) = D(x). D extends to A_1[h^-1], where W = h D(y) and D(yhat) =
W + K(D(x)), K(u) = d(h) y + d(h') the one closed form of the yhat side
(`AhContext._add_d_yhat`). W is read once per derivation, or recorded when
it is built from (D(x), W) (`_from_w`: `ad`, `bhat_x`), and the criterion,
`apply`, D(zeta) (`image_of_zeta`), the extension to A_1 and the peel of
ad_b (`_peel_ad`) all read it. `apply` works in the normal form a = sum
f_i y^i that elements are stored in, through D(y) = W / h, one route over
Q and GF(p). The automorphisms x -> x, yhat -> yhat + g read a in the
same form, through phi(y) = y + g / h, and both sum the same binomial rows
(`_binomial_sum`). With the closed form of [a, x] (`commutator` with the
operand x) no general Weyl product is made. `_binomial_sum`,
`criterion_defect` and K lift their operands once and sum every piece
into raw rows, reducing each output row once: no intermediate Weyl
element or element sum is formed.

`_binomial_sum` lists its sum as pieces, each a univariate row times an
operand sum_j r_j y^j, and `_sum_pieces` adds them up: by the row loop,
one schoolbook product per piece and operand row, below `PACKED_WORK`
multiply-adds; from there by Kronecker substitution, each row packed once
into one big integer and each of those products one big-integer product,
summed packed per output row and unpacked once. Its slot width bounds
every output value, and over Q a signed offset reads the signed values
back exactly (see `_sum_pieces`).

The module also provides: the special derivations D_g, bhat_x and bhat_f;
the A_1 derivations E_x and E_y and the extension to A_1, which are
`Derivation`s over A_1 read as A_h at h = 1 (`weyl_context`), so that
`is_inner` there decomposes Der(A_1) in characteristic 0; restriction to
the center; the direct decompositions of Der(A_h), which both peel off ad_b
with [b, x] = D(x) first; the inner-ness test `is_inner`, which decomposes
D once and returns a witness or a certificate, each carrying that
decomposition.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from .centerpoly import CenterPoly
from .context import AhContext, NotCentralizing, weyl_context
from .fields import ExactDivisionError, check_same_field
from .poly import NotIntegrable, Poly, _convolve, _pack, _unpack
from .record import Record
from .weyl import WeylElement, _accumulate, _hasse_rows, _lift_elements, commutator


class InvalidDerivationError(ValueError):
    """Raised when generator images do not define a derivation."""


class InvalidDerivation(Record):
    """Validation defect, returned as data so callers can print it: whether
    the images of x and yhat lie in A_h, and the defect (a WeylElement or
    None)."""

    __slots__ = ("x_in_ah", "yhat_in_ah", "defect")

    def describe(self) -> str:
        parts = []
        if not self.x_in_ah:
            parts.append("image of x is not in A_h")
        if not self.yhat_in_ah:
            parts.append("image of yhat is not in A_h")
        if self.defect is not None and not self.defect.is_zero():
            parts.append(f"criterion defect [v,x] + [yhat,u] - d(h) = {self.defect}")
        return "; ".join(parts) or "valid"


#: Multiply-adds of the row loop (the nonzero entries of each row, as
#: `_convolve` skips a zero one, times the summed lengths of its operand's
#: rows, over the pieces) from which `_sum_pieces` packs. Timed on the sums
#: that the four benchmark workloads and two large `verify` runs (p = 11
#: and 61) make, on a 2-CPU x86 machine under Python 3.11: below 1500 the
#: row loop is faster, packing's fixed cost being some 10 us a call; from
#: 2000 to 5000 packing is up to 1.5 times faster, above 5000 2 to 3 times,
#: and above 50000 about 10 times.
PACKED_WORK = 2000


def _sum_pieces(pieces, operands, signed: bool) -> dict:
    """{y-degree: raw row} of sum row * operands[k] y^s over the pieces
    (s, k, row), each operand the raw rows {j: r_j} of sum_j r_j y^j and
    each row univariate, raw; `signed` says a value may be negative (over
    Q).

    Below `PACKED_WORK` multiply-adds this is the row loop, one `_convolve`
    per piece and operand row. From there each row is packed once into one
    big integer (`poly._pack`, Kronecker substitution), each operand row on
    the first piece that reads it, and each product row * r_j is one
    big-integer product, added packed into the sum of its output y-degree
    s + j; each sum is unpacked once. The operand rows are packed apart,
    not as one bivariate integer: the operands of `Derivation.apply` are
    sparse in y (at p = 61 a few rows spread over 120 y-degrees), and one
    integer would hold every empty row.

    The slot width: a piece adds to each output value at most max|row|
    max|operand| min(len row, longest operand row), as one operand row
    meets it there. So M, the sum of max|row| (1 + that bound) over the
    pieces plus max|operand|, bounds every output value and every packed
    one. Over GF(p) every value is nonnegative, and a slot of nb bytes with
    M < B = 2^(8 nb) holds it. Over Q one bit more gives |value| < B/2: the
    values are packed in two's complement and each sum read back through a
    signed offset of B/2 in every slot, which is exact because each value
    plus B/2 is then a base-B digit, with no borrow (`poly._unpack`). nb is
    1, 2, 4 or 8 where one of them holds M, so that a slot is a machine
    word."""
    sizes = [sum(map(len, op.values())) for op in operands]
    if sum([(len(row) - row.count(0)) * sizes[k] for _, k, row in pieces]) < PACKED_WORK:
        rows = {}
        for s, k, row in pieces:
            for j, r in operands[k].items():
                _accumulate(rows, j + s, row, r)
        return rows
    stats = []  # per operand: longest row, largest |value|
    for op in operands:
        big = max([max(r, default=0) for r in op.values()], default=0)
        if signed:
            big = max(big, -min([min(r, default=0) for r in op.values()], default=0))
        stats.append((max(map(len, op.values()), default=0), big))
    bound = max([big for _, big in stats], default=0)
    for _, k, row in pieces:
        longest, big = stats[k]
        peak = max(max(row, default=0), -min(row, default=0)) if signed else max(row, default=0)
        bound += peak * (1 + big * min(len(row), longest))
    bits = bound.bit_length() + signed
    nb = next((n for n in (1, 2, 4, 8) if 8 * n >= bits), (bits + 7) // 8)
    packed = {}  # k -> [(j, r_j packed, len r_j)]
    sums, lengths = {}, {}
    for s, k, row in pieces:
        if k not in packed:
            packed[k] = [(j, _pack(r, nb, signed), len(r)) for j, r in operands[k].items()]
        v = _pack(row, nb, signed)
        for j, w, n in packed[k]:
            sums[s + j] = sums.get(s + j, 0) + v * w
            lengths[s + j] = max(lengths.get(s + j, 0), n + len(row) - 1)
    rows = {}
    for d, total in sums.items():
        if any(row := _unpack(total, lengths[d], nb, signed)):
            rows[d] = row
    return rows


def _binomial_sum(ctx: AhContext, a: WeylElement, images, ladder=None) -> WeylElement:
    """sum_i sum_(k <= i) C(i, k) g_i h^(i-k) T_k y^(i-k) for a = sum f_i y^i
    in A_h, with g_i = f_i / h^i, summed on raw rows and each output row
    reduced once: the shape of D(a) (`Derivation.apply`) and of phi_g(a)
    (`AhAlgebraMap.apply`).

    `images(top)` gives [T_0, ..., T_n] for the y-degree top of a, and T_k
    = 0 for k > n. The divisions f_i / h^i, in descending i, are exact iff
    a lies in A_h: they are the membership test. The sum is first listed
    as pieces (s, operand, row), each the product row * operand y^s, and
    then summed by `_sum_pieces`, packed or by the row loop:

    * for k >= 1 the row is C(i, k) g_i h^(i-k) and the operand T_k, at s =
      i - k;
    * for a derivation, `ladder` is [U_1, U_2, ...] with U_l = sum_j (j)_l
      r_j y^(j-l) for T_0 = D(x) = U_0 = sum_j r_j y^j, and the k = 0 piece
      is d(f_i) y^i = sum_l H_(l+1)(f_i) U_l y^i (`Derivation.apply`): the
      rows are the Hasse rows H_(l+1)(f_i) and the operands the U_l;
      without one, the k = 0 piece is f_i T_0.

    Over Q, g_i and the T_k are lifted over dg and den, and g_i h^s is built
    as g_i times the lifted h, s times, over dg dh^s, and enters times
    dh^(top-s). In characteristic p, Lucas skips the s with C(i, i-s) = 0,
    and g_i h^s after a gap is one product with the cached `h_power`;
    every raw value there is a residue or a product of two, nonnegative, so
    `_sum_pieces` packs it unsigned."""
    F = ctx.field
    p = F.characteristic
    gs = {i: ctx.over_h_power(a.terms[i], i) for i in sorted(a.terms, reverse=True)}
    if not gs:
        return WeylElement.zero(F)
    top = max(gs)
    elements = images(top)
    n = len(elements) - 1
    den, operands = _lift_elements(F, [*elements, *(ladder or ())])
    us = [0, *range(n + 1, len(operands))]  # the operand of each U_l
    dg, lifted = F.lift(tuple(gs.values()))
    dh, (hc,) = ctx.h_hasse(1)
    pieces = []
    for (i, g), gc in zip(gs.items(), lifted):
        t, at = gc, 0  # g h^at, raw over dg dh^at
        for k in range(min(i, n), -1, -1):
            s = i - k
            b = comb(i, k) % p if p else comb(i, k)
            if not b:
                continue
            if s == at + 1:
                step = [0] * (len(t) + len(hc) - 1)
                _convolve(step, t, hc)
                t = [c % p for c in step] if p else step
            elif s != at:  # a gap, in characteristic p only
                t = (g * ctx.h_power(s)).coeffs
            at, scale = s, b * dh ** (top - s)
            bt = t if scale == 1 else [scale * c for c in t]
            if k or ladder is None:
                pieces.append((s, k, bt))
            elif operands[0]:  # d(f_i) y^i, 0 for D(x) = 0
                hasse = _hasse_rows(F, bt, 1, len(us) + 1)
                pieces += [(i, us[l], row) for l, row in enumerate(hasse) if row]
    rows = _sum_pieces(pieces, operands, not p)
    return WeylElement._from_rows(F, rows, dg * den * dh**top)


class Derivation:
    """A derivation of A_h, stored by generator images."""

    __slots__ = ("context", "image_x", "image_yhat", "_cache")

    def __init__(self, context: AhContext, image_x: WeylElement, image_yhat: WeylElement):
        check_same_field(context.field, image_x.field)
        check_same_field(context.field, image_yhat.field)
        self.context = context
        self.image_x = image_x
        self.image_yhat = image_yhat
        self._cache = {}

    # -- validation ---------------------------------------------------------------

    def criterion_defect(self) -> WeylElement:
        """[D(yhat), x] + [yhat, D(x)] - d(h); zero iff the images define a
        derivation. It is read as

            [D(yhat), x] + [yhat, u] - d(h) = [W, x] + h u',

        with u = D(x), W = D(yhat) - K(u) = P_0 (`dy_numerators`, defined
        for any images) and ' the x-derivative of each row. Proof: d is a
        derivation of F[x] into A_1, and [f, x] = 0 gives [d(f), x] = [u,
        f]. So, as [y, x] = 1, [K(u), x] = [d(h) y + d(h'), x] = d(h) +
        [u, h] y + [u, h'], and, as [y, u] = u', [yhat, u] = [h y + h', u]
        = h u' + [h, u] y + [h', u]; their sum less d(h) is h u'. The two
        terms are summed into one set of raw rows over den dh (den lifts W
        and u, dh lifts h): [W, x] = sum_i i W_i y^(i-1) scaled by dh, and
        h u' row by row. It makes no pass of K of its own: `validate`,
        `apply` and `image_of_zeta` share the one W."""
        ctx = self.context
        F = ctx.field
        dh, (hc,) = ctx.h_hasse(1)
        den, (w, u) = _lift_elements(F, (self.dy_numerators(1)[0], self.image_x))
        rows = {}
        for i, r in w.items():
            if i:
                _accumulate(rows, i - 1, [i * dh], r)
        for j, r in u.items():
            _accumulate(rows, j, hc, [k * c for k, c in enumerate(r[1:], 1)])
        return WeylElement._from_rows(F, rows, den * dh)

    def validate(self) -> Optional[InvalidDerivation]:
        """None for a derivation, else the defect; cached, so that
        `make_derivation` and the decomposition it feeds check once."""
        key = "valid"
        if key not in self._cache:
            ctx = self.context
            mx = ctx.ah_membership(self.image_x)
            my = ctx.ah_membership(self.image_yhat)
            defect = self.criterion_defect()
            ok = mx and my and defect.is_zero()
            self._cache[key] = None if ok else InvalidDerivation(mx, my, defect)
        return self._cache[key]

    # -- linear structure ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.context is other.context
            and self.image_x == other.image_x
            and self.image_yhat == other.image_yhat
        )

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation(
            self.context, self.image_x + other.image_x, self.image_yhat + other.image_yhat
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation(
            self.context, self.image_x - other.image_x, self.image_yhat - other.image_yhat
        )

    def scale(self, c) -> "Derivation":
        return Derivation(self.context, self.image_x.scale(c), self.image_yhat.scale(c))

    def central_scale(self, z: CenterPoly) -> "Derivation":
        """z*D for central z: a |-> z * D(a), by central shifts."""
        ctx = self.context
        return Derivation(
            ctx, ctx.central_mul(z, self.image_x), ctx.central_mul(z, self.image_yhat)
        )

    def is_zero(self) -> bool:
        return self.image_x.is_zero() and self.image_yhat.is_zero()

    # -- application -------------------------------------------------------------------

    def image_of_xp(self) -> WeylElement:
        """D(x^p) = (ad x)^(p-1)(D(x)), by the p-th power identity (Jacobson,
        Lie Algebras, 1962, ch. V).

        ad x sends r y^j to -j r y^(j-1), so (ad x)^(p-1) multiplies r y^j
        by the falling factorial j (j-1) ... (j-p+2) and lowers its y-degree
        by p-1. That product of p-1 consecutive integers is 0 mod p unless
        j = -1 mod p, where it is (p-1)! = -1 (Wilson): D(x^p) keeps exactly
        the terms r y^j of D(x) with j = -1 mod p, as -r y^(j-p+1).
        """
        key = "xp"
        if key not in self._cache:
            p = self.context.p
            self._cache[key] = WeylElement(
                self.context.field,
                {j - (p - 1): -r for j, r in self.image_x.terms.items() if j % p == p - 1},
            )
        return self._cache[key]

    def dy_numerators(self, n: int) -> list:
        """[P_0, ..., P_(n-1)] (at least), cached: the numerators of
        (ad y)^l(D(y)) = P_l / h^(l+1) (see `apply`). P_0 = W = D(yhat) -
        K(D(x)), K(u) = d(h) y + d(h'), is one pass of the closed form
        `AhContext._add_d_yhat`, unless the derivation was built from W
        (`_from_w`). Each P_(l+1) = h P_l' - (l+1) h' P_l is one row core
        from the last, over dh times its lift denominator. For D_g, P_(k-1)
        = T_k = (g h^-1)^(k-1) h^k, derivatives taken in F(x)."""
        ctx = self.context
        numerators = self._cache.get("dy")
        dh, (hc, *hp) = ctx.h_hasse(2)
        if numerators is None:
            numerators = self._cache["dy"] = [ctx._add_d_yhat(self.image_yhat, self.image_x, -1)]
        while len(numerators) < n:
            scale = -len(numerators)  # -(l+1)
            dl, terms = ctx.field.lift(numerators[-1].terms)
            rows = {}
            for j, rc in terms.items():
                _accumulate(rows, j, hc, [i * c for i, c in enumerate(rc[1:], 1)])
                if hp:
                    _accumulate(rows, j, [scale * c for c in hp[0]], rc)
            numerators.append(WeylElement._from_rows(ctx.field, rows, dl * dh))
        return numerators

    def image_of_zeta(self) -> WeylElement:
        """D(zeta) for zeta = h^p y^p, cached, in closed form:

            D(zeta) = h'(x^p) D(x^p) y^p + sum_j vartheta(W_j)(x^p) y^j,

        with W = sum_j W_j y^j = h D(y) (`dy_numerators`) and vartheta the
        Cartier read (`AhContext.theta_of`).

        Over the prime field h^p = h(x^p). As x^p is central in A_1,
        D(x^(kp)) = k x^((k-1)p) D(x^p), so D(h(x^p)) = h'(x^p) D(x^p):
        the first term is D(h(x^p)) y^p. The second is h(x^p) D(y^p), and
        D(y^p) = (ad y)^(p-1)(D(y)) by the p-th power identity (Jacobson,
        Lie Algebras, 1962, ch. V) in A_1[h^-1]. There ad y is d/dx on
        each row, and h(x^p) has derivative 0, so

            (ad y)^(p-1)(W_j / h y^j) = (W_j h^(p-1) / h(x^p))^((p-1)) y^j
                                      = (W_j h^(p-1))^((p-1)) / h(x^p) y^j,

        and (W_j h^(p-1))^((p-1)) is vartheta(W_j) in x. No P_l past P_0
        is formed; `apply` on zeta gives the same element through
        P_(p-1)."""
        key = "zeta"
        if key not in self._cache:
            ctx = self.context
            w = self.dy_numerators(1)[0]
            rows = WeylElement(ctx.field, {j: ctx.theta_of(r) for j, r in w.terms.items()})
            hprime = ctx.h.derivative().substitute_xp()
            self._cache[key] = self.image_of_xp().poly_mul(hprime).shift(ctx.p) + rows
        return self._cache[key]

    def apply(self, a: WeylElement) -> WeylElement:
        """Apply to a = sum f_i y^i in A_h, in the normal form it is stored in.

        D extends to A_1[h^-1], and on yhat = y h = h y + h' it gives
        h D(y) = W = D(yhat) - D(h) y - D(h'). There ad y is d/dx, row by
        row, so c_l = (ad y)^l(D(y)) = P_l / h^(l+1) with P_0 = W and, as
        (P_l / h^(l+1))' = (h P_l' - (l+1) h' P_l) / h^(l+2),
        P_(l+1) = h P_l' - (l+1) h' P_l (`dy_numerators`). Leibniz gives
        D(y^i) = sum_{k < i} y^k c_0 y^(i-1-k), and y^k c_0 = sum_l C(k, l)
        c_l y^(k-l) (induction on k, from y c_l = c_l y + c_(l+1)); the hockey
        stick sum_{k < i} C(k, l) = C(i, l+1) then gives

            D(a) = sum_i d(f_i) y^i
                 + sum_{l < i} C(i, l+1) g_i h^(i-1-l) P_l y^(i-1-l),

        with g_i = f_i / h^i. Every term is a polynomial, as f_i c_l =
        (f_i / h^(l+1)) P_l and h^(l+1) divides f_i = g_i h^i for i > l.
        Only integer binomials enter, so this holds in characteristic p,
        where c_l = 0 for l >= p, as d^p is a derivation of F(x) that kills
        x; so there l < min(i, p). With k = l + 1 this is `_binomial_sum`
        over T_k = P_(k-1), whose k = 0 piece is d(f_i) y^i.

        For d(x) = u = sum_j r_j y^j and H_m the m-th Hasse derivative,

            d(f) = sum_(l >= 0) H_(l+1)(f) U_l,  U_l = (-ad x)^l(u) = sum_j (j)_l r_j y^(j-l):

        d(x^n) = sum_k x^k u x^(n-1-k); moving x^m to the left of u gives
        u x^m = sum_l C(m, l) x^(m-l) U_l, and sum_k C(n-1-k, l) = C(n, l+1),
        so d(x^n) = sum_l C(n, l+1) x^(n-1-l) U_l. Only integer binomials
        enter, so this holds in characteristic p too, where U_l = 0 once
        every (j)_l is 0 in F. A zero H_(l+1)(f) is no reason to stop: over
        GF(2), H_1(1 + x^2) = 0 but H_2(1 + x^2) = 1. So the pieces of the
        k = 0 term are the Hasse rows of f_i against the ladder U_l
        (`_ladder`), made once per derivation; from `PACKED_WORK`
        multiply-adds on, each product of a piece's row with an operand row
        is one big-integer product (`_sum_pieces`)."""
        p = self.context.field.characteristic

        def images(top):
            count = min(top, p) if p else top  # c_l = 0 for l >= p
            return [self.image_x, *self.dy_numerators(count)[:count]]

        return _binomial_sum(self.context, a, images, self._ladder())

    def _ladder(self) -> list:
        """[U_1, U_2, ...], cached: U_l = (-ad x)^l(D(x)) (see `apply`), each
        U_(l+1) = [U_l, x] (`_Rows._d_dv`), until one is 0."""
        ladder = self._cache.get("ladder")
        if ladder is None:
            ladder = self._cache["ladder"] = []
            u = self.image_x._d_dv()
            while u:
                ladder.append(u)
                u = u._d_dv()
        return ladder

    def bracket(self, other: "Derivation") -> "Derivation":
        """[D, E] as a derivation: images D(E(x)) - E(D(x)), same on yhat."""
        bx = self.apply(other.image_x) - other.apply(self.image_x)
        by = self.apply(other.image_yhat) - other.apply(self.image_yhat)
        return Derivation(self.context, bx, by)

    def __repr__(self):
        return f"Derivation(x -> {self.image_x}, yhat -> {self.image_yhat})"


def make_derivation(u, v, ctx: AhContext):
    """Validated Derivation with D(x) = u, D(yhat) = v, or InvalidDerivation."""
    d = Derivation(ctx, u, v)
    bad = d.validate()
    if bad is not None:
        return bad
    return d


def _require_valid(d: Derivation) -> Derivation:
    """d, once `validate` passes; else InvalidDerivationError."""
    bad = d.validate()
    if bad is not None:
        raise InvalidDerivationError(bad.describe())
    return d


def _from_w(ctx: AhContext, u: WeylElement, w: WeylElement) -> Derivation:
    """The Derivation with D(x) = u and h D(y) = w in A_1[h^-1], not
    validated: D(yhat) = w + K(u), with w recorded as P_0 (`dy_numerators`)."""
    d = Derivation(ctx, u, ctx._add_d_yhat(w, u, 1))
    d._cache["dy"] = [w]
    return d


def _h_d_dx(ctx: AhContext, a: WeylElement, sign: int) -> WeylElement:
    """sign h a' = sign h [y, a], a' the x-derivative of each row of a, on
    raw rows over the lift denominators of a and h."""
    dh, (hc,) = ctx.h_hasse(1)
    da, terms = ctx.field.lift(a.terms)
    rows = {}
    for i, r in terms.items():
        _accumulate(rows, i, hc, [sign * k * c for k, c in enumerate(r[1:], 1)])
    return WeylElement._from_rows(ctx.field, rows, da * dh)


def D_g(g: Poly, ctx: AhContext) -> Derivation:
    """The derivation with D(x) = 0 and D(yhat) = g; defined for any g in
    the centralizer of x (here g in F[x], or a central multiple thereof)."""
    return Derivation(ctx, WeylElement.zero(ctx.field), WeylElement.from_poly(g))


def ad(a: WeylElement, ctx: AhContext) -> Derivation:
    """The inner-by-normalizer derivation ad_a, for a in N(A_h).

    It is built from (D(x), W) (`_from_w`): ad_a(x) = [a, x] = sum_j j a_j
    y^(j-1), and W = h ad_a(y) = h [a, y] = -h a', as [y, a] = a' row by
    row, so ad_a(yhat) = -h a' + K([a, x]). This holds for every a in A_1;
    the normalizer test is what makes ad_a a derivation of A_h.

    In characteristic p its images of x^p and zeta are recorded as 0, so
    `restrict_to_center` reads Res(ad_a) = 0 without computing them: x^p
    and zeta = h(x^p) y^p lie in Z(A_1) = F[x^p, y^p], and ad_a(z) =
    [a, z] = 0 for every central z."""
    res = ctx.normalizer_test(a)
    if not res.ok:
        raise InvalidDerivationError(
            f"{a} is not in the normalizer of A_h: {res.reason}"
        )
    d = _from_w(ctx, commutator(a, ctx.x_elt), _h_d_dx(ctx, a, -1))
    if not ctx.field.is_char_zero:
        zero = WeylElement.zero(ctx.field)
        d._cache.update(xp=zero, zeta=zero)
    return d


def ad_ra_n(r: Poly, n: int, ctx: AhContext) -> Derivation:
    """ad of r * a_n = r pi_h h^(n-1) y^n (n >= 1)."""
    return ad(ctx.a_n_element(n).poly_mul(r), ctx)


# -- the A_1 derivations E_x and E_y --------------------------------------------------


def ex_apply(a: WeylElement) -> WeylElement:
    """E_x(a), for E_x the A_1-derivation with E_x(x) = y^(p-1), E_x(y) = 0,
    built once per field over `weyl_context`."""
    F = a.field
    ctx = weyl_context(F)
    return ctx.memo(
        "E_x", lambda: Derivation(ctx, WeylElement.y_power(F, F.p - 1), WeylElement.zero(F))
    ).apply(a)


def ey_apply(a: WeylElement) -> WeylElement:
    """E_y(a), for E_y the A_1-derivation with E_y(x) = 0, E_y(y) = x^(p-1),
    built once per field over `weyl_context`."""
    F = a.field
    ctx = weyl_context(F)
    return ctx.memo(
        "E_y", lambda: Derivation(ctx, WeylElement.zero(F), WeylElement.x_power(F, F.p - 1))
    ).apply(a)


def bhat_x(ctx: AhContext) -> Derivation:
    """bhat_x = (h^p / varrho_h) E_x, restricted to A_h; built and validated
    once per context."""
    return ctx.memo("bhat_x", lambda: _build_bhat_x(ctx))


def _build_bhat_x(ctx: AhContext) -> Derivation:
    """From (D(x), W) = ((h^p / varrho_h) y^(p-1), 0) (`_from_w`): W =
    h bhat_x(y) = 0, as E_x(y) = 0."""
    u = WeylElement.from_term(ctx.hp_over_varrho, ctx.p - 1)
    return _require_valid(_from_w(ctx, u, WeylElement.zero(ctx.field)))


def bhat_f(ctx: AhContext) -> Derivation:
    """bhat_f = zeta D_{h'/varrho_h} - bhat_x, built from this definition
    and validated once per context."""
    return ctx.memo("bhat_f", lambda: _build_bhat_f(ctx))


def _build_bhat_f(ctx: AhContext) -> Derivation:
    d = D_g(ctx.hprime_over_varrho, ctx).central_scale(CenterPoly.t2(ctx.field)) - bhat_x(ctx)
    return _require_valid(d)


# -- peeling ad_b off D(x) ------------------------------------------------------------------


def _split_ad_x(w: WeylElement):
    """(b, rest) with w = [b, x] + rest: b takes r/(i+1) y^(i+1) for each
    term r y^i of w, as [y^(i+1), x] = (i+1) y^i. In characteristic p the
    terms at y-degree i = -1 mod p have no preimage and stay in rest; over Q
    rest is 0."""
    F = w.field
    p = F.characteristic
    b, rest = {}, {}
    for i, r in w.terms.items():
        if p and i % p == p - 1:
            rest[i] = r
        else:
            b[i + 1] = r.scale(Fraction(1, i + 1))
    return WeylElement(F, b), WeylElement(F, rest)


def _peel_ad(e: Derivation):
    """(b, gs) for the derivation E: [b, x] = E(x), so E - ad_b kills x and
    sends yhat to W_E + h b', which centralizes x; gs are its coordinates
    sum_k zeta^k g_k there (`centralizer_x_coords`, F[x] over Q and Z(A_h)
    F[x] in characteristic p). This holds as W = D(yhat) - K(D(x)) is
    linear in D, ad_b has W = -h b' (`ad`) and K(0) = 0. W_E is the cached
    P_0, so a validated E makes no pass of K here."""
    ctx = e.context
    b, rest = _split_ad_x(e.image_x)
    if not rest.is_zero():
        raise InvalidDerivationError(
            "kernel remainder still moves x by a degree = -1 mod p term"
        )
    if e.image_x != commutator(b, ctx.x_elt):
        raise AssertionError("anti-integration of the kernel x-image failed")
    coords = ctx.centralizer_x_coords(e.dy_numerators(1)[0] + _h_d_dx(ctx, b, 1))
    if isinstance(coords, NotCentralizing):
        raise InvalidDerivationError(
            f"kernel remainder of yhat does not centralize x: {coords.reason}"
        )
    return b, coords


# -- extension to A_1 ----------------------------------------------------------------------


class NotExtendable(Record):
    """D(y) = W / h does not lie in A_1; carries the reason."""

    __slots__ = ("reason",)


def extend_to_A1(d: Derivation):
    """The extension of D to A_1, a `Derivation` over `weyl_context`, or
    NotExtendable. In A_1[h^-1], h D(y) = W = P_0 (`dy_numerators`), so D
    extends iff h divides every row of W, and then D(y) = W / h."""
    ctx = d.context
    w = d.dy_numerators(1)[0]
    try:
        dy = WeylElement(ctx.field, {j: r.exact_div(ctx.h) for j, r in w.terms.items()})
    except ExactDivisionError:
        return NotExtendable("h D(y) = W is not divisible by h")
    return Derivation(weyl_context(ctx.field), d.image_x, dy)


# -- restriction to the center -----------------------------------------------------------


class CenterDerivation(Record):
    """A d/dt1 + B d/dt2 on Z(A_h) = F[t1, t2], A and B CenterPolys."""

    __slots__ = ("a", "b")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def apply(self, z: CenterPoly) -> CenterPoly:
        return self.a * z.d_dt1() + self.b * z.d_dt2()

    def bracket(self, other: "CenterDerivation") -> "CenterDerivation":
        a = self.apply(other.a) - other.apply(self.a)
        b = self.apply(other.b) - other.apply(self.b)
        return CenterDerivation(a, b)

    def describe(self) -> str:
        return f"({self.a})*d/dt1 + ({self.b})*d/dt2"


def restrict_to_center(d: Derivation) -> CenterDerivation:
    """Res(D): apply D to x^p and zeta and read center coordinates."""
    ctx = d.context
    ctx._require_char_p()
    a = ctx.center_coords(d.image_of_xp())
    b = ctx.center_coords(d.image_of_zeta())
    if isinstance(a, NotCentralizing) or isinstance(b, NotCentralizing):
        raise InvalidDerivationError(
            "derivation does not map the center into itself"
        )
    return CenterDerivation(a, b)


# -- decompositions of Der(A_h) -------------------------------------------------------------


class DecompCharZero(Record):
    """D = D_g + sum_n ad_{r_n a_n} + ad_(inner witness), with deg g < deg h
    and deg r_n < deg(h/pi_h); `terms` is the tuple of the (n, r_n) with
    n >= 1 and r_n nonzero."""

    __slots__ = ("g", "terms", "inner_witness")


class DecompCharP(Record):
    """D = u D_qbreve + v bhat_f + D_s + ad_(normalizer part) + ad_(witness),
    u and v CenterPolys, s a Poly."""

    __slots__ = ("u", "v", "s", "normalizer_part", "inner_witness")


def decompose_Ah_char0(d: Derivation) -> DecompCharZero:
    """Peel ad_b off D, read D_g off the rest, and normalize the a_n
    coefficients of b by division by h/pi_h.

    `_peel_ad` gives b with [b, x] = D(x), so D - ad_b kills x and is D_g0
    with g0 = (D - ad_b)(yhat) in the centralizer F[x] of x. With g0 = q h + g,
    deg g < deg h: for c in F[x], ad_c(yhat) = [c, yhat] = -h c', so
    D_(qh) = ad_(-int q), and D = D_g + ad_(b - int q). b has no y^0 term,
    and it lies in N(A_h): with r0 the yhat^0 coefficient of D(yhat),
    D - D_r0 extends to A_1 (`extend_to_A1`), where it is ad_beta for some
    beta in N(A_h), and beta - b commutes with x, so lies in F[x]. So
    pi_h h^(n-1) divides the y^n coefficient r_n of b, and s_n = r_n /
    (pi_h h^(n-1)) = q_n (h/pi_h) + rt_n splits r_n y^n into q_n h^n y^n in
    A_h, which joins the witness, and the class component rt_n a_n."""
    ctx = d.context
    if not ctx.field.is_char_zero:
        raise ValueError("characteristic-0 decomposition")
    b, (g0,) = _peel_ad(_require_valid(d))
    q, g = divmod(g0, ctx.h)
    witness = WeylElement.from_poly((-q).antiderivative())
    terms = []
    for n, rn in sorted(b.terms.items()):
        s_n = rn.exact_div(ctx.a_n_coefficient(n))
        qn, rt = divmod(s_n, ctx.h_over_pi)
        if not qn.is_zero():
            witness = witness + WeylElement.from_term(qn * ctx.h_power(n), n)
        if not rt.is_zero():
            terms.append((n, rt))
    return DecompCharZero(g, tuple(terms), witness)


def decompose_Ah_charp(d: Derivation) -> DecompCharP:
    """Solve the center part (u, v) through Res, then peel ad_b off the
    kernel remainder E = D - u D_qbreve - v bhat_f as in characteristic 0.

    `_peel_ad` gives b with [b, x] = E(x) (E(x) has no term at y-degree -1
    mod p) and E - ad_b = sum_k zeta^k D_(g_k), read in the centralizer
    Z(A_h) F[x] of x. E kills the center, so every g_k lies in Theta. For
    k >= 1, zeta^k D_(g_k) = ad_(w_k y^(kp)) with w_k' = -g_k h^(kp-1), and
    g_0 = s + delta(c0) with s in the complement S, where D_(delta(c0)) =
    ad_(-c0)."""
    ctx = d.context
    ctx._require_char_p()
    _require_valid(d)
    F = ctx.field
    p = ctx.p
    res = restrict_to_center(d)
    try:
        v = res.a.exact_div_t1(ctx.hp_over_varrho.pth_root())
        u = res.b.exact_div_t1(ctx.hbar)
    except ExactDivisionError as e:
        raise InvalidDerivationError(
            f"restriction to the center is outside its image module: {e}"
        ) from e
    e = d
    if not u.is_zero():
        e = e - D_g(ctx.qbreve, ctx).central_scale(u)
    if not v.is_zero():
        e = e - bhat_f(ctx).central_scale(v)
    b, gs = _peel_ad(e)
    for g in gs:
        if not ctx.in_theta(g):
            raise InvalidDerivationError(
                "kernel remainder acts nontrivially on the center"
            )
    s, c0 = ctx.split_theta(gs[0] if gs else Poly.zero(F))
    c_tilde = WeylElement.zero(F)
    for k in range(1, len(gs)):
        if gs[k].is_zero():
            continue
        wk = (-(gs[k] * ctx.h_power(k * p - 1))).antiderivative()
        if isinstance(wk, NotIntegrable):
            raise AssertionError("Theta component must integrate")
        c_tilde = c_tilde + WeylElement.from_term(wk, k * p)
    normalizer_part = b + c_tilde
    return DecompCharP(u, v, s, normalizer_part, WeylElement.from_poly(-c0))


# -- inner test -------------------------------------------------------------------------------


class InnerWitness(Record):
    """D = ad_witness, with the decomposition the verdict was read from."""

    __slots__ = ("witness", "decomposition")


class NotInner(Record):
    """Certificate: the reason, the decomposition whose outer components it
    names, and in characteristic p the normalizer term outside
    A_h + Z(A_1), if that is the reason (None by default)."""

    __slots__ = ("reason", "decomposition", "residue")
    _defaults = {"residue": None}


def is_inner(d: Derivation):
    """InnerWitness(w, decomposition) with D = ad_w, or NotInner with a
    certificate; the one place that decomposes a derivation to classify it.

    In characteristic p the normalizer part must lie in A_h + Z(A_1), term
    by term, and a term r y^i does iff h^i divides r; then r y^i joins the
    witness. The other route, z = r mod h^i nonzero but in F[x^p] (central
    in A_1) at p | i, never occurs. The terms of b in the normalizer part
    sit at y-degrees prime to p, so a term at y-degree kp comes from
    c_tilde, an antiderivative, and has no x^(jp) terms. Over the prime
    field h^p = h(x^p), so h^(kp) = H(x^p) with H = h^k read in u = x^p,
    and division by H(x^p) acts on each Frobenius component r_j(x^p) x^j
    of r separately: r mod h^(kp) = sum_j (r_j mod H)(x^p) x^j. Its
    component j = 0 is then 0, so it lies in F[x^p] only when it is 0.

    In both characteristics the witness is checked once: ad_w must rebuild
    D on both generators."""
    ctx = d.context
    if ctx.field.is_char_zero:
        dec = decompose_Ah_char0(d)
        if not dec.g.is_zero() or dec.terms:
            return NotInner("nonzero class components in the D/ad_{r a_n} slots", dec)
        witness = dec.inner_witness
    else:
        dec = decompose_Ah_charp(d)
        if not (dec.u.is_zero() and dec.v.is_zero()):
            return NotInner("nonzero center coefficients", dec)
        if not dec.s.is_zero():
            return NotInner("residual D_s component outside im delta", dec)
        for i, r in sorted(dec.normalizer_part.terms.items()):
            if not ctx.h_power(i).divides(r):
                return NotInner(
                    f"normalizer part at y-degree {i} is outside A_h + Z(A_1)",
                    dec,
                    residue=WeylElement.from_term(r, i),
                )
        witness = dec.inner_witness + dec.normalizer_part
    inner = ad(witness, ctx)
    if inner.image_x != d.image_x or inner.image_yhat != d.image_yhat:
        raise AssertionError("inner witness failed to reproduce the derivation")
    return InnerWitness(witness, dec)


# -- exponential automorphisms ----------------------------------------------------------------


class AhAlgebraMap(Record):
    """The automorphism x -> x, yhat -> yhat + g (any field), g a Poly, over
    an AhContext."""

    __slots__ = ("g", "context")

    @property
    def image_x(self) -> WeylElement:
        return self.context.x_elt

    @property
    def image_yhat(self) -> WeylElement:
        return self.context.yhat + WeylElement.from_poly(self.g)

    def apply(self, a: WeylElement) -> WeylElement:
        """phi_g(a) for a = sum f_i y^i in A_h, in the normal form it is
        stored in.

        phi fixes h, so phi(y) = y + c with c = g / h in A_1[h^-1], where
        ad y is d/dx. By induction on i, (y + c)^i = sum_k C(i, k) Y_k
        y^(i-k) with Y_0 = 1 and Y_(k+1) = Y_k' + c Y_k, and Y_k = N_k / h^k
        with N_0 = 1, N_(k+1) = h N_k' - k h' N_k + g N_k. So

            phi(a) = sum_i sum_(k <= i) C(i, k) g_i h^(i-k) N_k y^(i-k),

        with g_i = f_i / h^i: `_binomial_sum` over T_k = N_k. Only integer
        binomials enter, so this holds in characteristic p too, where N_k
        need not vanish for k >= p."""
        ctx = self.context
        h, hp = ctx.h, ctx.h.derivative()

        def images(top):
            numerators = [Poly.one(ctx.field)]
            for k in range(top):
                n = numerators[-1]
                numerators.append(h * n.derivative() + (self.g - hp.scale(k)) * n)
            return [WeylElement.from_poly(n) for n in numerators]

        return _binomial_sum(ctx, a, images)
