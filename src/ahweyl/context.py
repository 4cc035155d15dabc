"""Everything attached to a fixed nonzero h: the subalgebra A_h of A_1.

A_h is generated by x and yhat = y*h inside the Weyl algebra, with
[yhat, x] = h, and decomposes as the direct sum of D*h^i*y^i over i >= 0
(D = F[x]). An AhContext bundles h with the invariants every other module
consumes:

* the squarefree decomposition h = lc prod f_m^m, computed once
  (`squarefree`): pi_h, varrho_h and the check of a factor list given by
  the user are read off it, with no factoring; the attributes `pi_h` and
  `varrho_h` are the one route to either;
* pi_h: the monic generator of {r : h | h'r}, the product of the f_m with
  p not dividing m (every f_m over Q);
* varrho_h: in characteristic p, the maximal monic divisor of h lying in
  F[x^p], prod f_m^(p floor(m/p)), and h^p / varrho_h, read off
  h(x^p) = h^p without forming a power;
* delta(f) = f'h and the twisted map delta0(r) = (r pi_h)' - r pi_h h' / h,
  realized entirely inside F[x] (no localization is ever materialized);
* in characteristic p: the central element zeta = h^p y^p, the Frobenius
  components of h^(p-1), their gcd hbar with Bezout witness qbreve, the map
  vartheta(r) = (r h^(p-1))^(p-1), read off r h^(p-1) as the Cartier
  operator, whose kernel Theta consists of the r with D_r vanishing on the
  center, and the complement S of im delta in Theta: a basis of Theta in
  degrees below deg h, with |S| = deg_u hbar, so that
  Theta = span S (+) im delta. S, like the other values built once per
  context, is kept by `memo`.

Membership and normalizer tests, the one centralizer read (coordinates in
C_{A_h}(x) = Z(A_h) F[x], of which the center coordinates are the ones in
F[x^p]) and basis conversions live here too. Elements are read only in
the y normal form a = sum f_i y^i that they are stored in. A central factor
zeta^k or z(x^p, zeta) multiplies without a Weyl product, as a polynomial
factor and a shift of the y-degrees (`zeta_mul`, `central_mul`). A
derivation's yhat side D(yhat) = h D(y) + d(h) y + d(h') has one closed
form (`_add_d_yhat`) over one cached table H_0(h), H_1(h), ... of Hasse
derivatives, grown only as far as a caller reads it (`h_hasse`). The
cached powers of h use h^p = h(x^p) over the prime field (`h_power`).

A_1 is itself the member at h = 1, where yhat = y and every element lies
in A_h: `weyl_context(field)` is that context, one per field, over which
the derivations of A_1 (E_x, E_y, the extensions of derivations of A_h)
are `Derivation`s like any other.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Optional

from .centerpoly import CenterPoly
from .fields import ExactDivisionError, check_same_field
from .linalg import relations
from .poly import NotIntegrable, Poly
from .record import Record
from .weyl import WeylElement, _accumulate, _add_reordered, _hasse_rows, _lift_elements, _reach


class MembershipError(ValueError):
    """An element failed an A_h (or centralizer/normalizer) membership check."""


class FactorListError(ValueError):
    """A user-supplied factor list does not match h's squarefree decomposition."""


class NotCentralizing(Record):
    """Why a centralizer read failed: of x (`centralizer_x_coords`), or of
    all of A_h, the center (`center_coords`); `reason` is text."""

    __slots__ = ("reason",)


class NormalizerResult(Record):
    """A normalizer membership verdict: `ok`, and when it fails the y-degree
    of the failing term and the reason, each None by default."""

    __slots__ = ("ok", "failing_y_degree", "reason")
    _defaults = {"failing_y_degree": None, "reason": None}

    def __bool__(self):
        return self.ok


def _pi_varrho(field, squarefree) -> tuple:
    """(pi_h, varrho_h) read off h = lc prod f_m^m, given as [(f_m, m)]:
    pi_h = h / gcd(h, h') is the product of the f_m with p not dividing m
    (every f_m over Q), and varrho_h = prod f_m^(p floor(m/p))."""
    p = field.characteristic
    pi = rho = Poly.one(field)
    for f, m in squarefree:
        if not p or m % p:
            pi = pi * f
        if p and m >= p:
            rho = rho * f ** (p * (m // p))
    return pi, rho


def _verify_factor_list(h: Poly, squarefree, factors) -> tuple:
    """Check [(u_i, alpha_i)] against h = lc prod f_m^m, given as
    `squarefree` = [(f_m, m)]: each u_i monic and nonconstant over the field
    of h, each alpha_i >= 1, and for every m the u_i with alpha_i = m
    multiplying to f_m. By uniqueness of the squarefree decomposition, that
    last comparison holds iff the u_i are squarefree, pairwise coprime and
    reassemble h up to its leading coefficient. Irreducibility of a u_i is
    not checked. Returns the tuple as given."""
    factors = tuple((u, int(a)) for u, a in factors)
    for u, a in factors:
        check_same_field(h.field, u.field)
        if u.is_constant() or not u.is_monic():
            raise FactorListError(f"factor {u} must be monic and nonconstant")
        if a < 1:
            raise FactorListError(f"multiplicity {a} of {u} must be >= 1")
    # degrees first, so that a list of the wrong size is refused before any product is formed
    if sum(a * u.degree for u, a in factors) != h.degree:
        raise FactorListError("factor product does not reassemble h")
    listed = {}
    for u, a in factors:
        listed[a] = listed[a] * u if a in listed else u
    parts = {m: f for f, m in squarefree}
    for m in sorted(listed.keys() | parts.keys()):
        if listed.get(m) != parts.get(m):
            raise FactorListError(
                f"the factors of multiplicity {m} do not multiply to the part of h"
                f" of multiplicity {m}"
            )
    return factors


class AhContext:
    """Immutable bundle of h and its derived invariants."""

    def __init__(self, h: Poly, factors=None, degree_bound: Optional[int] = None):
        if h.is_zero():
            raise ValueError("h must be nonzero")
        self.field = h.field
        self.h = h
        self.squarefree = tuple(h.squarefree_decomposition())  # h = lc prod f_m^m, as (f_m, m)
        self.pi_h, self.varrho_h = _pi_varrho(self.field, self.squarefree)
        self.h_over_pi = h.exact_div(self.pi_h)
        # pi_h * h' / h is exact by the defining property of pi_h
        self.pi_hprime_over_h = (self.pi_h * h.derivative()).exact_div(h)
        # h / (pi_h varrho_h): varrho_h is 1 over Q. Over GF(p), h / pi_h
        # has the factor f_m^(m-1) where p does not divide m and f_m^m where
        # it does, and varrho_h's f_m^(p floor(m/p)) divides either
        self.h_over_pi_rho = (
            self.h_over_pi.exact_div(self.varrho_h) if self.field.characteristic else self.h_over_pi
        )
        if factors is None and h.is_constant():
            factors = ()  # a unit has the (verified) empty factorization
        self.factors = (
            None if factors is None else _verify_factor_list(h, self.squarefree, factors)
        )
        self._h_powers = {0: Poly.one(self.field)}
        self._dh, (lifted,) = self.field.lift((h,))
        self._h_hasse = [lifted]  # H_0(h), H_1(h), ... over dh, grown by `h_hasse`
        self.x_elt = WeylElement.x_power(self.field, 1)
        self.yhat = WeylElement(self.field, {1: h, 0: h.derivative()})  # y h = h y + h'
        self._memo = {}
        self.degree_bound = None  # the normalizer levels read in characteristic p
        if not self.field.is_char_zero:
            self._init_char_p(degree_bound)

    # -- construction helpers ---------------------------------------------------

    def _init_char_p(self, degree_bound: Optional[int]):
        p = self.field.p
        if degree_bound is None:
            degree_bound = 3 * p
        self.degree_bound = max(degree_bound, int(self.h.degree))
        # h^p = h(x^p) over the prime field, and varrho_h = sigma(x^p) for
        # sigma its p-th root, so h^p / varrho_h = (h / sigma)(x^p); and
        # h' / varrho_h is exact, as varrho_h' = 0
        self.varrho_root = self.varrho_h.pth_root()
        self.hp_over_varrho = self.h.exact_div(self.varrho_root).substitute_xp()
        self.hprime_over_varrho = self.h.derivative().exact_div(self.varrho_h)
        F = self.field
        zero = Poly.zero(F)
        self.hbar_components = self.h_power(p - 1).frobenius_split()  # polynomials in u = x^p
        # iterated extended gcd in F[u] over the nonzero components only,
        # tracking their Bezout multipliers q_i
        (i0, c0), *rest = [(i, c) for i, c in enumerate(self.hbar_components) if c]
        g = c0.monic()
        coeffs = {i0: Poly.constant(F, F.inv(c0.leading_coefficient()))}
        for i, c in rest:
            if g.is_one():
                break
            g, s, t = g.xgcd(c)
            coeffs = {k: s * v for k, v in coeffs.items()}
            coeffs[i] = t
        self.hbar = g  # monic gcd of the hbar components, in u
        self.qbreve_multipliers = [coeffs.get(i, zero) for i in range(p)]
        # qbreve = -sum_i q_i(x^p) x^(p-1-i), assembled from the nonzero q_i
        qbreve = {}
        for i, qi in coeffs.items():
            for k, c in enumerate((-qi).coeffs):
                if c:
                    qbreve[k * p + p - 1 - i] = c
        self.qbreve = Poly.from_coeff_dict(F, qbreve)
        # Bezout witness: sum q_i hbar_i = hbar exactly
        acc = zero
        for i, qi in coeffs.items():
            acc = acc + qi * self.hbar_components[i]
        if acc != self.hbar:
            raise AssertionError("Bezout witness for hbar failed")
        self.zeta_hat_coeff = self.hbar_components[p - 1].substitute_xp()
        if self.theta_p_map(self.qbreve) != self.hbar:
            raise AssertionError("vartheta(qbreve) != hbar")

    # -- characteristic helpers -----------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    def _require_char_p(self):
        if self.field.is_char_zero:
            raise ValueError("operation requires positive characteristic")

    # -- basic elements ----------------------------------------------------------------

    def memo(self, key, build):
        """build(), computed once per context and kept under `key`: for
        values that depend on h alone, such as bhat_x, bhat_f, the a_n and S."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def h_power(self, n: int) -> Poly:
        """h^n, cached, by one route for each n.

        Over Q, and for n < p - 1 in characteristic p: h^(n-1) h. Over the
        prime field the Frobenius fixes every coefficient, so h^p = h(x^p),
        and then:

        * n = kp + r >= p: h^n = h^k(x^p) h^r, one product whose left
          factor is sparse (nonzero only at multiples of p);
        * n = p - 1: h^(p-1) = h(x^p) / h, one exact division."""
        cache = self._h_powers
        if n in cache:
            return cache[n]
        p = self.field.characteristic
        if p and n >= p:
            k, r = divmod(n, p)
            cache[n] = self.h_power(k).substitute_xp() * self.h_power(r)
        elif p and n == p - 1:
            cache[n] = self.h.substitute_xp().exact_div(self.h)
        else:
            start = n
            while start - 1 not in cache:
                start -= 1
            for m in range(start, n + 1):
                cache[m] = cache[m - 1] * self.h
        return cache[n]

    def zeta_element(self) -> WeylElement:
        """The central element h^p y^p."""
        self._require_char_p()
        p = self.p
        return WeylElement.from_term(self.h_power(p), p)

    def a_n_element(self, n: int) -> WeylElement:
        """pi_h h^(n-1) y^n for n >= 1; n = 0 is deliberately not an element
        (only delta0 realizes its adjoint action)."""
        if n < 1:
            raise ValueError(
                "a_0 is not materialized; its action is delta0, inside F[x]"
            )
        return WeylElement.from_term(self.a_n_coefficient(n), n)

    def a_n_coefficient(self, n: int) -> Poly:
        """pi_h h^(n-1), the y^n coefficient of a_n (n >= 1), cached: one
        product per n."""
        return self.memo(("a_n", n), lambda: self.pi_h * self.h_power(n - 1))

    # -- membership and coordinates -------------------------------------------------------

    def ah_membership(self, a: WeylElement) -> bool:
        """a in A_h iff h^i divides the y^i coefficient for every i."""
        check_same_field(self.field, a.field)
        return all(self.h_power(i).divides(r) for i, r in a.terms.items())

    def ah_center_part(self, a: WeylElement) -> Optional[WeylElement]:
        """The A_h part w of a, with a - w central in A_1, when a lies in
        A_h + Z(A_1); None otherwise.

        For a in the normalizer, ad_a is inner on A_h iff a lies in
        A_h + Z(A_1), and then ad_a = ad_w: C_{A_1}(A_h) = F[x^p, y^p] =
        Z(A_1), as the centralizer of x is F[x, y^p] and
        [yhat, f y^(kp)] = h f' y^(kp). Both summands are sums over y-degrees,
        so the test runs term by term. With q = r mod h^i for the y^i
        coefficient r, r y^i lies in A_h iff q = 0, and in A_h + Z(A_1) iff
        also p | i and q lies in F[x^p] (every Frobenius component past the
        first is 0): at p | i, h^i = H(x^p) over the prime field, so a
        central z(x^p) leaves the remainder (z mod H)(x^p). Then q y^i is
        central and (r - q) y^i joins w. Over Q, Z(A_1) = F lies in A_h, and
        only q = 0 passes.

        Every element `verify.random_normalizer_element` draws for a free h
        passes, which is what `analyze`'s freeness certificates check: h/pi_h
        is a unit, so pi_h h^(i-1) = h^i / lc(h), and at p | i the drawn
        coefficient d h^i + z h^(i-p), z in F[x^p], has z h^(i-p) in F[x^p],
        as h^(i-p) = H(x^p) over the prime field."""
        check_same_field(self.field, a.field)
        p = self.field.characteristic
        w = {}
        for i, r in a.terms.items():
            q = r % self.h_power(i)
            if not q:
                w[i] = r
            elif p and not i % p and not any(q.frobenius_split()[1:]):
                w[i] = r - q
            else:
                return None
        return WeylElement(self.field, w)

    def over_h_power(self, r: Poly, m: int) -> Poly:
        """r / h^m for the y^m coefficient r of an element of A_h; the
        division is exact iff r y^m lies in A_h, else MembershipError."""
        try:
            return r.exact_div(self.h_power(m))
        except ExactDivisionError as e:
            raise MembershipError(
                f"y-degree {m} coefficient not divisible by h^{m}: not in A_h"
            ) from e

    def zeta_mul(self, w: WeylElement, k: int, g: Optional[Poly] = None) -> WeylElement:
        """g zeta^k w (g = 1 if omitted), without a Weyl product: zeta^k =
        h^(pk) y^(pk) and y^(pk) is central in A_1, so this is
        (g h^(pk) w) y^(pk), one polynomial factor and a shift of the
        y-degrees. Over Q, k = 0."""
        n = self.field.characteristic * k
        if n:
            g = self.h_power(n) if g is None else g * self.h_power(n)
        return w if g is None else w.poly_mul(g).shift(n)

    def central_mul(self, z: CenterPoly, w: WeylElement) -> WeylElement:
        """z(x^p, zeta) w, as one `zeta_mul` per power of t2 in z."""
        self._require_char_p()
        out = WeylElement.zero(self.field)
        for k, c in sorted(z.terms.items()):
            out = out + self.zeta_mul(w, k, c.substitute_xp())
        return out

    def h_hasse(self, n: int):
        """(dh, [H_0(h), ..., H_(n-1)(h)]), raw over the lift denominator dh
        of h (1 over GF(p)), each row built on the first call that reads it;
        the list stops at deg h, past which H_k(h) = 0. h^(m) = m! H_m(h)."""
        table = self._h_hasse
        if len(table) < min(n, len(table[0])):
            table += _hasse_rows(self.field, table[0], len(table), n)
        return self._dh, table[:n]

    def _add_d_yhat(self, w: WeylElement, u: WeylElement, sign: int) -> WeylElement:
        """w + sign K(u), K(u) = d(h) y + d(h') for d the derivation of F[x]
        with d(x) = u: the one closed form of a derivation's yhat side. As
        yhat = h y + h', a derivation D with D(x) = u has D(yhat) = W +
        K(u), W = h D(y) in A_1[h^-1]: sign -1 reads W off D(yhat)
        (`Derivation.dy_numerators`), sign 1 builds D(yhat) from W
        (`derivations._from_w`). In one pass over raw rows,

            K(u) = h' u y + sum_j sum_(t >= 0) (j+2) (j)_t H_(t+2)(h) r_j y^(j-t)

        for u = sum_j r_j y^j. Proof: d(f) = sum_(l >= 0) H_(l+1)(f) sum_j
        (j)_l r_j y^(j-l) (see `Derivation.apply`). For f = h, times y, the
        term l = 0 is h' u y and l = t + 1 gives (j)_(t+1) H_(t+2)(h) r_j
        y^(j-t). For f = h', H_(t+1)(h') = (t+2) H_(t+2)(h), from C(t+2, 1)
        H_(t+2) = H_(t+1) H_1. So H_(t+2)(h) r_j y^(j-t) has the factor
        (j)_(t+1) + (t+2) (j)_t = (j+2) (j)_t, as (j)_(t+1) = (j-t) (j)_t. A
        term with j + 2 = 0 in F has no sum. The sum is the kernel
        `weyl._add_reordered` on the cached table H_2(h), H_3(h), ...
        (empty for deg h < 2); the rows are over den dh, den lifting w and u."""
        F = self.field
        p = F.characteristic
        den, (wt, ut) = _lift_elements(F, (w, u))
        dh, table = self.h_hasse(_reach(ut, p) + 3)
        rows = {j: [dh * c for c in r] for j, r in wt.items()}
        hp = [sign * c for c in table[1]] if len(table) > 1 else ()
        scaled = {}
        for j, r in ut.items():
            if hp:
                _accumulate(rows, j + 1, hp, r)
            if b := sign * (j + 2) % p if p else sign * (j + 2):
                scaled[j] = [b * c for c in r]
        _add_reordered(rows, scaled, table[2:], 0, p)
        return WeylElement._from_rows(F, rows, den * dh)

    def centralizer_x_coords(self, f: WeylElement, keep=None):
        """(g_0, g_1, ...) with f = sum_k g_k zeta^k, g_k in F[x], read in
        C_{A_h}(x) = Z(A_h) F[x] (F[x] over Q, read as (g_0,)), or
        NotCentralizing. g_k = r_kp / h^(kp) for the y^(kp) coefficient
        r_kp. `keep(k, g_k)`, if given, maps each nonzero g_k in turn to what
        is kept, or to a NotCentralizing, which is returned at once: every
        failure is reported in order of y-degree."""
        check_same_field(self.field, f.field)
        p = self.field.characteristic
        if not p:
            if any(i > 0 for i in f.terms):
                return NotCentralizing("positive y-degree term does not commute with x")
            return (f.coefficient(0),)
        for i in f.terms:
            if i % p:
                return NotCentralizing(f"y-degree {i} is not a multiple of {p}")
        gs = []
        for k in range(f.y_degree // p + 1 if f.y_degree >= 0 else 0):
            r = f.coefficient(k * p)
            if r.is_zero():
                gs.append(r)
                continue
            try:
                g = r.exact_div(self.h_power(k * p))
            except ExactDivisionError:
                return NotCentralizing(f"y^{k * p} coefficient not divisible by h^{k * p}")
            if keep is not None and isinstance(g := keep(k, g), NotCentralizing):
                return g
            gs.append(g)
        return tuple(gs)

    def center_coords(self, a: WeylElement):
        """a in Z(A_h) = F[t1, t2], or NotCentralizing: the centralizer
        coordinates of a, each of which must lie in F[x^p] = F[t1]."""
        self._require_char_p()
        p = self.p

        def in_fxp(k, g):
            split = g.frobenius_split()
            if any(not c.is_zero() for c in split[1:]):
                return NotCentralizing(f"y^{k * p} coordinate {g} is not in F[x^p]")
            return split[0]

        coords = self.centralizer_x_coords(a, in_fxp)
        if isinstance(coords, NotCentralizing):
            return coords
        return CenterPoly.from_t2_coefficients(self.field, coords)

    def normalizer_test(self, a: WeylElement) -> NormalizerResult:
        """Membership in the normalizer N of A_h inside A_1, with the first
        failing term diagnosed."""
        check_same_field(self.field, a.field)
        p = 0 if self.field.is_char_zero else self.p
        for i, r in sorted(a.terms.items()):
            if i == 0:
                continue
            if p == 0 or i % p:
                if not self.a_n_coefficient(i).divides(r):
                    return NormalizerResult(
                        False, i, f"pi_h * h^{i - 1} does not divide the y^{i} coefficient"
                    )
            else:
                if not self.h_power(i - 1).divides(r.derivative()):
                    return NormalizerResult(
                        False,
                        i,
                        f"h^{i - 1} does not divide the derivative of the y^{i} coefficient",
                    )
        return NormalizerResult(True)

    # -- the derivations delta and delta0 ---------------------------------------------------

    def delta(self, f: Poly) -> Poly:
        """delta(f) = f' h."""
        return f.derivative() * self.h

    def delta0(self, r: Poly) -> Poly:
        """(r pi_h)' - r (pi_h h' / h); all divisions exact in F[x]."""
        return (r * self.pi_h).derivative() - r * self.pi_hprime_over_h

    # -- characteristic-p invariants ---------------------------------------------------------

    def theta_p_map(self, r: Poly) -> Poly:
        """vartheta(r) = (r h^(p-1))^(p-1) as a polynomial in u = x^p.

        The (p-1)-th derivative of x^n is n(n-1)...(n-p+2) x^(n-p+1), which
        vanishes mod p unless n = -1 (mod p), where the product is
        (p-1)! = -1 by Wilson's theorem. So vartheta reads the coefficients
        c_(kp+p-1) of r h^(p-1) and returns -sum_k c_(kp+p-1) u^k: the
        Cartier operator. Only those coefficients are formed,
        c_t = sum_i r_i H_(t-i) for t = kp + p - 1 and H = h^(p-1), about
        1/p of the products of r H."""
        self._require_char_p()
        p = self.p
        rc = r.coeffs
        hr = self.h_power(p - 1).coeffs[::-1]  # hr[m - 1 - s] = H_s
        n, m = len(rc), len(hr)
        raw = []
        for t in range(p - 1, n + m - 1, p):
            lo, hi = max(0, t - m + 1), min(t + 1, n)
            raw.append(-sum(map(mul, rc[lo:hi], hr[m - 1 - t + lo : m - 1 - t + hi])))
        return Poly._reduced(self.field, raw)

    def theta_of(self, r: Poly) -> Poly:
        """vartheta(r), an element of F[x^p] (in x)."""
        return self.theta_p_map(r).substitute_xp()

    def in_theta(self, r: Poly) -> bool:
        """Theta = ker vartheta: exactly the r with D_r vanishing on the center."""
        return self.theta_p_map(r).is_zero()

    def im_delta_preimage(self, r: Poly):
        """g with delta(g) = r, or None (r must be h * (element of im d/dx))."""
        if r.is_zero():
            return Poly.zero(self.field)
        q, rem = divmod(r, self.h)
        if not rem.is_zero():
            return None
        g = q.antiderivative()
        if isinstance(g, NotIntegrable):
            return None
        return g

    def theta_complement_S(self) -> list:
        """Basis of the complement S of im delta inside Theta: the reduced
        kernel basis of vartheta on x^0, ..., x^(deg h - 1), one monic
        element per degree it reaches. It spans Theta in degrees below
        deg h and has deg_u hbar elements."""
        self._require_char_p()
        return list(self.memo("theta_S", self._compute_theta_S))

    def _compute_theta_S(self) -> tuple:
        """S, as a tuple. Nonzero elements of im delta = h F[x]' have
        degree >= deg h, so they meet F[x] below deg h only in 0. vartheta
        maps F[x] below deg h into hbar F[u] below deg h, of dimension
        deg h - deg_u hbar, so its kernel there has dimension at least
        deg_u hbar = dim Theta/im delta. Hence Theta = (Theta below deg h)
        (+) im delta, and the dimension count is checked as a certificate."""
        F = self.field
        images = [
            self.theta_p_map(Poly.monomial(F, 1, i)).coeffs for i in range(int(self.h.degree))
        ]
        S = tuple(Poly._canonical(F, rel) for rel in relations(F, images) if rel is not None)
        if len(S) != self.hbar.degree:
            raise AssertionError(
                f"dim Theta/im delta is deg_u hbar = {self.hbar.degree}, "
                f"but {len(S)} kernel elements lie below deg h"
            )
        return S

    def split_theta(self, g: Poly):
        """Write g in Theta as s + delta(c) with s in span S. Nonzero
        elements of im delta have degree >= deg h and S spans Theta below
        deg h, so s = g mod h; c is the preimage of g - s with constant
        term 0 and no x^(kp) terms."""
        self._require_char_p()
        if not self.in_theta(g):
            raise ValueError(f"{g} is not in Theta")
        s = g % self.h
        c = self.im_delta_preimage(g - s)
        if c is None:
            raise AssertionError(f"{g} lies in Theta but g mod h leaves no element of im delta")
        return s, c

    def __repr__(self):
        return f"AhContext(h={self.h.to_text()!r}, field={self.field})"


@cache
def weyl_context(field) -> AhContext:
    """A_1 as its member A_h at h = 1 (yhat = y), built once per field."""
    return AhContext(Poly.one(field))
