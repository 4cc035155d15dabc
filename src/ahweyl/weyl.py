"""Normal-form arithmetic in the Weyl algebra A_1 = F<x,y> / (yx - xy - 1).

Elements are finite sums sum_i r_i(x) y^i with all x-factors to the left of
all y-factors, stored as {i: r_i} with every r_i a nonzero canonical `Poly`
(no zero term is ever stored). Multiplication reorders with

    y^i * f = sum_k (i)_k H_k(f) y^(i-k),

with H_k the k-th Hasse derivative and (i)_k = i!/(i-k)! the falling
factorial, in every characteristic. One row kernel over one table H_0(f),
H_1(f), ... (`_add_reordered`, `_hasse_rows`) does this product and
d(h) y + d(h') for a derivation d of F[x]; `Derivation.apply` reads
d(f) off the same Hasse rows, against the falling-factorial ladder of d(x)
(`Derivation._ladder`). It follows the reduce-once rule of
`poly`: each output y-degree gets one row of raw coefficients, every piece
(i)_k H_k(s) r_i is accumulated into it by the shared convolution loop,
and each row is reduced once, by the polynomial kernel's own `_reduced`
(`WeylElement._from_rows`): over GF(p) the stored residues are the raw
values, and the Hasse rows and the output rows are taken mod p with p
read once per call, not through the field.
Over Q the two operands are first lifted (`FieldSpec.lift`) to integer
numerators over their common denominators da and db, so the tables and the
rows hold Python ints and each row becomes a polynomial over da * db by
one gcd. The public `WeylElement(field, terms)` validates its terms;
results of the ring operations, and `from_poly` and `from_term`, are
built by the trusted `_canonical`.

The row form {i: r_i}, with its additive structure, `scale`, `poly_mul`,
`shift`, equality and trusted constructors, is the private container
`_Rows`, which `centerpoly.CenterPoly` (rows r_j(t1) t2^j) shares.

The module also provides the commutator (in closed form when either
operand is x), the shift a * y^n, the swap anti-automorphism phi
(x <-> y), the element varpi with [E_x, E_y] = ad_varpi in characteristic
p, and the center test for A_1.

`WeylElement.to_text` prints each row r_i through the printing kernel of
its field (`Poly._terms_text`): a row with one term takes y^i as the
suffix of that term, a longer one is printed in parentheses, times y^i.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldSpec, check_same_field
from .poly import Poly, _convolve, _kernel, _monomials, _signed, _stored


class _Rows:
    """sum_i r_i(u) v^i as `terms = {i: r_i}`, every r_i a nonzero `Poly`
    over `field`: the row form of `WeylElement` and `centerpoly.CenterPoly`.
    `_check` and `==` compare the exact type, so a value never meets the
    other class. Each class names its error for a negative degree, `_negative`."""

    __slots__ = ("field", "terms")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def _canonical(cls, field: FieldSpec, terms: dict):
        """Trusted constructor: every term is a nonzero Poly over `field`."""
        out = object.__new__(cls)
        out.field = field
        out.terms = terms
        return out

    @classmethod
    def _from_rows(cls, field: FieldSpec, rows: dict, den=1):
        """Trusted constructor from {degree: raw coefficients} (see
        `_accumulate`): each row reduced once over `den`, zero rows dropped."""
        make = _kernel(field)._reduced
        terms = {}
        for deg, row in rows.items():
            if t := make(field, row, den):
                terms[deg] = t
        return cls._canonical(field, terms)

    @classmethod
    def zero(cls, field: FieldSpec):
        return cls._canonical(field, {})

    @classmethod
    def from_term(cls, r: Poly, n: int):
        if n < 0:
            raise ValueError(cls._negative)
        return cls._canonical(r.field, {n: r} if r else {})

    # -- queries -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int) -> Poly:
        return self.terms.get(i, Poly.zero(self.field))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # -- additive structure -----------------------------------------------------------

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        check_same_field(self.field, other.field)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for i, r in other.terms.items():
            if i not in out:
                out[i] = r
            elif s := out[i] + r:
                out[i] = s
            else:
                del out[i]
        return self._canonical(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._canonical(self.field, {i: -r for i, r in self.terms.items()})

    def scale(self, c):
        terms = {i: r.scale(c) for i, r in self.terms.items()}
        return self._canonical(self.field, {i: r for i, r in terms.items() if r})

    def poly_mul(self, r: Poly):
        """Multiplication by r(u); u-polynomials commute into coefficients."""
        check_same_field(self.field, r.field)
        if not r:
            return self.zero(self.field)
        return self._canonical(self.field, {i: r * s for i, s in self.terms.items()})

    def shift(self, n: int):
        """self * v^n: every degree raised by n, no arithmetic.

        In characteristic p, y^(pk) is central in A_1, so for a Weyl
        element this is also the product with y^(pk) on either side."""
        if n < 0:
            raise ValueError("negative exponent")
        return self._canonical(self.field, {i + n: r for i, r in self.terms.items()})

    def _d_dv(self):
        """d/dv, sum_i i r_i v^(i-1); a term with i = 0 in F drops out."""
        terms = {i - 1: t for i, r in self.terms.items() if i and (t := r.scale(i))}
        return self._canonical(self.field, terms)


class WeylElement(_Rows):
    """Sum_i r_i(x) y^i with every stored r_i nonzero."""

    __slots__ = ()

    _negative = "negative y-degree"

    def __init__(self, field: FieldSpec, terms=None):
        clean = {}
        if terms:
            for i, r in terms.items():
                if i < 0:
                    raise ValueError("negative y-degree")
                check_same_field(field, r.field)
                if not r.is_zero():
                    clean[i] = r
        self.field = field
        self.terms = clean

    # -- constructors ------------------------------------------------------------

    @classmethod
    def one(cls, field: FieldSpec) -> "WeylElement":
        return cls(field, {0: Poly.one(field)})

    @classmethod
    def from_poly(cls, r: Poly) -> "WeylElement":
        return cls.from_term(r, 0)

    @classmethod
    def x_power(cls, field: FieldSpec, n: int) -> "WeylElement":
        return cls(field, {0: Poly.monomial(field, 1, n)})

    @classmethod
    def y_power(cls, field: FieldSpec, n: int) -> "WeylElement":
        return cls(field, {n: Poly.one(field)})

    # -- queries -------------------------------------------------------------------

    @property
    def y_degree(self):
        return max(self.terms) if self.terms else -1

    # -- multiplication ------------------------------------------------------------------

    def __mul__(self, other):
        self._check(other)
        F = self.field
        p = F.characteristic
        da, terms = F.lift(self.terms)
        db, rhs = F.lift(other.terms)
        stop = _reach(terms, p) + 1
        rows = {}  # y-degree -> raw coefficients of its x-polynomial
        for j, s in rhs.items():
            # r y^i * s y^j = sum_k (i)_k r H_k(s) y^(i-k+j)
            _add_reordered(rows, terms, [s, *_hasse_rows(F, s, 1, stop)], j, p)
        return WeylElement._from_rows(F, rows, da * db)

    # -- structure maps ---------------------------------------------------------------------

    def apply_phi(self) -> "WeylElement":
        """Image under the anti-automorphism phi with phi(x) = y, phi(y) = x.

        phi reverses products, so phi(r(x) y^i) = x^i r(y); the result is
        already in normal form because all x-factors sit on the left.
        """
        F = self.field
        out = {}
        for i, r in self.terms.items():
            for k, c in enumerate(r.coeffs):
                if c:
                    out.setdefault(k, {})[i] = c
        return WeylElement._canonical(
            F, {k: Poly.from_coeff_dict(F, d) for k, d in out.items()}
        )

    def is_central_A1(self) -> bool:
        """Membership in Z(A_1): F*1 in characteristic 0, F[x^p, y^p] in
        characteristic p."""
        if self.field.is_char_zero:
            return all(i == 0 and r.is_constant() for i, r in self.terms.items())
        p = self.field.p
        return all(
            i % p == 0 and r.in_frobenius_base() for i, r in self.terms.items()
        )

    # -- printing ------------------------------------------------------------------------------

    def to_text(self) -> str:
        """Terms in increasing y-degree, e.g. '5 + 2*x*y + (1 + x^2)*y^3':
        the row r_0 as its terms; a row r_i y^i, i > 0, as r_i's one term
        times y^i when it has one, else r_i parenthesized, times y^i."""
        terms = self.terms
        if not terms:
            return "0"
        ys = _monomials("y", max(terms) + 1)
        out = []
        for i in sorted(terms):
            r = terms[i]
            if not i:
                out.append(r._terms_text("x"))
                continue
            values = _stored(r)[1]
            if values.count(0) == len(values) - 1:
                out.append(r._terms_text("x", ys[i]))
            else:
                out.append(f" + ({_signed(r._terms_text('x'))})*{ys[i]}")
        return _signed("".join(out))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"WeylElement({self.field}, {self.to_text()!r})"


def _accumulate(rows: dict, deg: int, u, v) -> None:
    """rows[deg] += u * v on raw coefficients, the row padded as needed."""
    row = rows.setdefault(deg, [])
    size = len(u) + len(v) - 1
    if len(row) < size:
        row += [0] * (size - len(row))
    _convolve(row, u, v)


def _lift_elements(F, elements):
    """(den, [{i: raw coefficients}, ...]): the Weyl elements lifted over one
    common denominator (`FieldSpec.lift`); over GF(p) den = 1 and the
    coefficients are the stored ones."""
    den, images = F.lift(tuple(r for w in elements for r in w.terms.values()))
    it = iter(images)
    return den, [{i: next(it) for i in w.terms} for w in elements]


def _reach(terms: dict, p: int) -> int:
    """The largest k with (i)_k nonzero in F for a y-degree i of `terms`, -1
    for none: max i, or in characteristic p max i mod p, as (i)_k has the
    factor i - (i mod p) once k > i mod p."""
    if not terms:
        return -1
    return max([i % p for i in terms]) if p else max(terms)


def _hasse_rows(F: FieldSpec, fc, start: int, stop: int) -> list:
    """[H_k(f) for start <= k < stop], as far as deg f, on the raw integer
    coefficients fc of f. H_k(f) has the coefficients C(n, k) c_n, n >= k,
    each stepped from the row before by C(n, k) = C(n, k-1) (n-k+1) / k,
    exact in Z; each row is reduced once and trimmed (H_k(f) = 0 is empty).
    Over GF(p), H_k with k >= p may be nonzero: H_p(x^p) = 1."""
    p = F.characteristic
    table, raw = [], list(fc)
    for k in range(min(stop, len(fc))):
        if k:
            raw = [c * (n - k + 1) // k for n, c in enumerate(raw[1:], k)]
        if k >= start:
            # over Q the row is raw itself: C(deg f, k) c_deg is not 0, so no pop
            row = [c % p for c in raw] if p else raw
            while row and not row[-1]:
                row.pop()
            table.append(row)
    return table


def _add_reordered(rows: dict, terms: dict, table, shift: int, p: int) -> None:
    """rows[i - k + shift] += (i)_k table[k] r for every term r y^i of
    `terms` (raw coefficients), for k = 0, 1, ... while the table lasts and
    the falling factorial (i)_k is nonzero in F (kept mod p in
    characteristic p). The reordering kernel: with table[k] = H_k(s)
    and shift j it sums a * s y^j; with table[k] = H_(k+2)(h) and the terms
    scaled by j + 2 it sums the closed form of d(h) y + d(h') for the
    derivation d of F[x] with d(x) = a (`AhContext._add_d_yhat`). A zero
    table row is skipped, not a stop: over GF(2), H_1(1 + x^2) = 0 but
    H_2(1 + x^2) = 1."""
    for i, r in terms.items():
        falling = 1
        for k, t in enumerate(table):
            if t:
                u = t if falling == 1 else [falling * c for c in t]
                _accumulate(rows, i - k + shift, u, r)
            falling = falling * (i - k) % p if p else falling * (i - k)
            if not falling:
                break


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = ab - ba. When either operand is the generator x this is the
    closed form [a, x] = sum_i i r_i y^(i-1) (`_Rows._d_dv`), from [y^i, x]
    = i y^(i-1), without a product."""
    check_same_field(a.field, b.field)
    if _is_x(b):
        return a._d_dv()
    if _is_x(a):
        return -b._d_dv()
    return a * b - b * a


def _is_x(w: WeylElement) -> bool:
    return len(w.terms) == 1 and (r := w.terms.get(0)) is not None and _stored(r) == (1, (0, 1))


def varpi(field: FieldSpec) -> WeylElement:
    """The element sum_{n=1}^{p-1} ((p-1-n)!/n) x^n y^n of A_1 whose inner
    derivation equals [E_x, E_y] in characteristic p."""
    if field.is_char_zero:
        raise ValueError("varpi requires positive characteristic")
    p = field.p
    out = {}
    fact = 1
    coeffs = {}
    # (p-1-n)! for n = p-1 down to 1
    for n in range(p - 1, 0, -1):
        coeffs[n] = fact
        fact *= p - n  # builds (p-1-(n-1))! for the next step down
    for n in range(1, p):
        c = field.coerce(Fraction(coeffs[n], n))
        if c:
            out[n] = Poly.monomial(field, c, n)
    return WeylElement(field, out)
