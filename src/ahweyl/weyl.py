"""Normal-form arithmetic in the Weyl algebra A_1 = F<x,y> / (yx - xy - 1).

Elements are finite sums sum_i r_i(x) y^i with all x-factors to the left of
all y-factors, stored as {i: r_i} with every r_i a nonzero canonical `Poly`
(no zero term is ever stored). Multiplication reorders with

    y^n * f = sum_j C(n, j) f^(j) y^(n-j),

binomials computed in Z and reduced into F. The product follows the
reduce-once rule of `poly`: each output y-degree gets one row of raw
coefficients, every piece r_i * C(i, k) s_j^(k) is accumulated into it by
the shared convolution loop, and each row is reduced once. Over Q the two
operands are first lifted (`FieldSpec.lift`) to integer numerators over
their common denominators da and db, so the derivative chains and the rows
hold Python ints and each row is divided by da * db once; the integer
images never leave the product. The public `WeylElement(field, terms)`
validates its terms; results of the ring operations are built by the
trusted `WeylElement._canonical`.

The module also provides the commutator (in closed form when either
operand is x), the shift a * y^n, the swap anti-automorphism phi
(x <-> y), the element varpi with [E_x, E_y] = ad_varpi in characteristic
p, and the center test for A_1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .fields import ExactDivisionError, FieldSpec, check_same_field
from .poly import Poly, _convolve


class WeylElement:
    """Sum_i r_i(x) y^i with every stored r_i nonzero."""

    __slots__ = ("field", "terms")

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
    def _canonical(cls, field: FieldSpec, terms: dict) -> "WeylElement":
        """Trusted constructor: every term is a nonzero Poly over `field`."""
        out = object.__new__(cls)
        out.field = field
        out.terms = terms
        return out

    @classmethod
    def _from_rows(cls, field: FieldSpec, rows: dict, den=None) -> "WeylElement":
        """Trusted constructor from {y-degree: raw coefficients} (see
        `_accumulate`): each row reduced once over `den`, zero rows dropped."""
        terms = {}
        for deg, row in rows.items():
            if t := Poly._reduced(field, row, den):
                terms[deg] = t
        return cls._canonical(field, terms)

    @classmethod
    def zero(cls, field: FieldSpec) -> "WeylElement":
        return cls(field)

    @classmethod
    def one(cls, field: FieldSpec) -> "WeylElement":
        return cls(field, {0: Poly.one(field)})

    @classmethod
    def from_poly(cls, r: Poly) -> "WeylElement":
        return cls(r.field, {0: r})

    @classmethod
    def x_power(cls, field: FieldSpec, n: int) -> "WeylElement":
        return cls(field, {0: Poly.monomial(field, 1, n)})

    @classmethod
    def y_power(cls, field: FieldSpec, n: int) -> "WeylElement":
        return cls(field, {n: Poly.one(field)})

    @classmethod
    def from_term(cls, r: Poly, n: int) -> "WeylElement":
        return cls(r.field, {n: r})

    # -- queries -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def y_degree(self):
        return max(self.terms) if self.terms else -1

    def coefficient(self, i: int) -> Poly:
        return self.terms.get(i, Poly.zero(self.field))

    def iter_terms(self):
        for i in sorted(self.terms):
            yield i, self.terms[i]

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted((i, p.coeffs) for i, p in self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # -- additive structure -----------------------------------------------------------

    def _check(self, other: "WeylElement") -> None:
        if not isinstance(other, WeylElement):
            raise TypeError(f"expected WeylElement, got {type(other).__name__}")
        check_same_field(self.field, other.field)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        out = dict(self.terms)
        for i, r in other.terms.items():
            if i not in out:
                out[i] = r
            elif s := out[i] + r:
                out[i] = s
            else:
                del out[i]
        return WeylElement._canonical(self.field, out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __neg__(self) -> "WeylElement":
        return WeylElement._canonical(self.field, {i: -r for i, r in self.terms.items()})

    def scale(self, c) -> "WeylElement":
        terms = {i: r.scale(c) for i, r in self.terms.items()}
        return WeylElement._canonical(self.field, {i: r for i, r in terms.items() if r})

    def poly_mul(self, r: Poly) -> "WeylElement":
        """Left multiplication by r(x); x-polynomials commute into coefficients."""
        check_same_field(self.field, r.field)
        if not r:
            return WeylElement.zero(self.field)
        return WeylElement._canonical(self.field, {i: r * s for i, s in self.terms.items()})

    def shift(self, n: int) -> "WeylElement":
        """self * y^n: every y-degree raised by n, no arithmetic.

        In characteristic p, y^(pk) is central, so this is also the product
        with the central factor y^(pk) on either side."""
        if n < 0:
            raise ValueError("negative exponent")
        return WeylElement._canonical(self.field, {i + n: r for i, r in self.terms.items()})

    # -- multiplication ------------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            # r_i y^i * s = sum_j C(i, j) r_i s^(j) y^(i-j)
            other = WeylElement.from_poly(other)
        self._check(other)
        F = self.field
        da, lhs = F.lift(self.terms)
        db, rhs = F.lift(other.terms)
        # C(i, k) = 0 for k > i; in characteristic p, Lucas' theorem gives
        # C(i, k) = C(i mod p, k) for k < p, and s^(k) = 0 for k >= p
        p = F.characteristic
        top = max((i % p if p else i for i in lhs), default=0)
        binomials = {i: [] for i in lhs}  # C(i, k) in F, as far as a chain has reached
        rows = {}  # y-degree -> raw coefficients of its x-polynomial
        for j, s in rhs.items():
            chain = [s]  # s^(k) for k <= top, while nonzero; shared by every i
            while len(chain) <= top and (d := chain[-1].derivative()):
                chain.append(d)
            for i, r in lhs.items():
                row = binomials[i]
                if len(row) < (n := min(i + 1, len(chain))):
                    row += F.reduce([comb(i, k) for k in range(len(row), n)])
                # r y^i * s y^j = sum_k C(i,k) r s^(k) y^(i-k+j)
                for k, (b, d) in enumerate(zip(row, chain)):
                    if b:
                        rc = r.coeffs if b == 1 else [b * c for c in r.coeffs]
                        _accumulate(rows, i - k + j, rc, d.coeffs)
        return WeylElement._from_rows(F, rows, da * db)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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

    def right_div_exact(self, h: Poly) -> "WeylElement":
        """The unique a with self = a * h, by descending y-degree elimination."""
        check_same_field(self.field, h.field)
        if h.is_zero():
            raise ZeroDivisionError("right division by zero")
        out = {}
        work = self
        while not work.is_zero():
            n = work.y_degree
            q = work.coefficient(n).exact_div(h)
            out[n] = q
            work = work - WeylElement.from_term(q, n) * h
            if not work.is_zero() and work.y_degree >= n:
                raise ExactDivisionError("right division did not reduce degree")
        return WeylElement(self.field, out)

    # -- printing ------------------------------------------------------------------------------

    def to_text(self) -> str:
        """Terms in increasing y-degree, e.g. '(1 + x^2)*y^3 + 2*x*y + 5'."""
        if self.is_zero():
            return "0"
        pieces = []
        for i, r in self.iter_terms():
            pieces.append(_weyl_term_text(r, i))
        out = ("-" + pieces[0][1]) if pieces[0][0] else pieces[0][1]
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

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


def _weyl_term_text(r: Poly, i: int):
    """(positive, text) for the term r*y^i; sign pulled out for monomials."""
    if i == 0:
        txt = r.to_text()
        if txt.startswith("-"):
            return True, txt[1:]
        return False, txt
    ymark = "y" if i == 1 else f"y^{i}"
    nonzero = [(k, c) for k, c in enumerate(r.coeffs) if c]
    if len(nonzero) == 1:
        k, c = nonzero[0]
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        parts = []
        if mag != 1:
            parts.append(str(mag))
        if k == 1:
            parts.append("x")
        elif k > 1:
            parts.append(f"x^{k}")
        parts.append(ymark)
        return neg, "*".join(parts)
    return False, f"({r.to_text()})*{ymark}"


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = ab - ba. When either operand is the generator x this is the
    closed form of [a, x], without a product."""
    check_same_field(a.field, b.field)
    if _is_x(b):
        return _bracket_x(a)
    if _is_x(a):
        return -_bracket_x(b)
    return a * b - b * a


def _is_x(w: WeylElement) -> bool:
    return len(w.terms) == 1 and (r := w.terms.get(0)) is not None and r.coeffs == (0, 1)


def _bracket_x(a: WeylElement) -> WeylElement:
    """[a, x] = sum_i i r_i y^(i-1), in closed form: [y^i, x] = i y^(i-1).
    Terms with i = 0 mod p drop out in characteristic p."""
    F = a.field
    terms = {}
    for i, r in a.terms.items():
        if i and (t := Poly._reduced(F, [i * c for c in r.coeffs])):
            terms[i - 1] = t
    return WeylElement._canonical(F, terms)


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
