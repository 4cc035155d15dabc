"""Exact univariate polynomial arithmetic over Q or GF(p).

Polynomials are dense, index = degree, with no trailing zeros; the zero
polynomial has degree -infinity. All operations are side-effect free.

The kernel is chosen once per value, by its field, when it is made: over
GF(p) a `Poly` holds `coeffs`, a tuple of residues in [0, p); over Q the
constructors make its subclass `QPoly`, which holds `num`, a tuple of ints,
over one denominator `den` (the layout of FLINT's fmpq_poly), canonical
with `den > 0` and gcd(den, *num) = 1. The zero polynomial over Q is
((), 1). So the ring and calculus operations over Q run on Python ints and
normalize each result with one `math.gcd`. `QPoly.coeffs` keeps the public
meaning, a tuple of `Fraction`s, made on its first read and kept; besides
that, a `Fraction` is made only where a scalar leaves a value
(`coefficient`, `leading_coefficient`) or enters one (`Poly(F, coeffs)`).

Reduce once: the ring operations compute each output coefficient from raw
sums and products and make the result with the trusted constructor
`_reduced` of the kernel: over GF(p) it reads p once and takes each value
mod p and trims the trailing zeros in one pass, with no call into the
field; over Q the raw integers over their denominator are divided by one
gcd with it. `+`, `-` and `*` of two GF(p) polynomials over the same
`FieldSpec` object skip the operand check. The public `Poly(field,
coeffs)` validates and coerces, as the entry point for outside input.
`_convolve` is the schoolbook product loop: `Poly.__mul__`, the Weyl
product, and the binomial sums of `Derivation.apply` and
`AhAlgebraMap.apply` below `derivations.PACKED_WORK` multiply-adds run
through it. The larger binomial sums pack each row into one big integer,
Kronecker substitution, make each row product one big-integer product,
and sum the products packed (`_pack`, `_unpack`).

Division over Q pseudo-divides the numerators (Knuth, TAOCP vol. 2, 4.6.1,
Algorithm R) with lazy scaling: with L the divisor's leading numerator, a
step is rem = L*rem - c*divisor on the window below the top, the running
scale S is multiplied by L, and a lower coefficient is multiplied by S
once, when it enters the window. The quotient and the remainder each come
out over one common denominator. Over GF(p) the division is its own loop
on residues. `%` and `divides` run either loop without a quotient
(`_pseudo_divide`, `_residue_divide`).

Besides the ring operations this module carries the characteristic-p
bookkeeping used throughout the package: the Frobenius decomposition
f = sum_j f_j(x^p) x^j (0 <= j < p), the map partial_p = d/d(x^p) applied
componentwise, exact p-th roots, antiderivatives with their integrability
obstruction, and squarefree decomposition: Yun's loop over Q, Musser's
over GF(p).

Printing has one kernel per field too, `_terms_text`, which renders a
whole row of stored coefficients, each monomial followed by an optional
suffix (y^j for a Weyl row, t2^j for a center row), so `Poly`,
`WeylElement` and `CenterPoly` all print through it. The texts of the
monomials come from a table per variable name (`_monomials`), grown by
doubling. Over GF(p) a residue is printed as it is stored; over Q a
numerator is read over `den` and put in lowest terms by one gcd.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

from .fields import ExactDivisionError, FieldSpec, check_same_field
from .record import Record

#: Degree of the zero polynomial; compares below every integer degree.
NEG_INF = float("-inf")

#: Most decimal digits in a number literal, and in the numerator or the
#: denominator of any coefficient over Q: the longest integer that Python's
#: `int()` reads from text, and `str()` writes, by default. The parser
#: refuses longer input, and the printing kernel of Q (`QPoly._terms_text`)
#: a longer computed coefficient, for `Poly`, `WeylElement` and `CenterPoly`.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS  # the least integer with more digits


class NotIntegrable(Record):
    """Failure value of `Poly.antiderivative` in characteristic p.

    `obstruction` is the unique c in F[x^p] such that f - c*x^(p-1) has an
    antiderivative; it is nonzero exactly when f itself has none.
    """

    __slots__ = ("obstruction",)


def _kernel(field: FieldSpec) -> type:
    """The class of the polynomials over `field`: `QPoly` over Q, `Poly`
    over GF(p)."""
    return Poly if field.characteristic else QPoly


class Poly:
    """Element of F[x] in canonical dense form. This class is the GF(p)
    kernel; `Poly(field, coeffs)` and the classmethod constructors make a
    `QPoly` over Q."""

    __slots__ = ("field", "coeffs")

    def __new__(cls, field: FieldSpec, coeffs=()):
        return object.__new__(Poly if field.characteristic else QPoly)  # `_kernel`, inlined

    def __init__(self, field: FieldSpec, coeffs):
        vals = [field.coerce(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _canonical(cls, field: FieldSpec, values) -> "Poly":
        """Trusted constructor: `values` are canonical scalars of `field`;
        only trailing zeros are trimmed (a tuple with none is kept as is)."""
        n = len(values)
        while n and not values[n - 1]:
            n -= 1
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(values) if n == len(values) else tuple(values[:n])
        return out

    @classmethod
    def _reduced(cls, field: FieldSpec, raw, den=1) -> "Poly":
        """Trusted constructor from raw integer sums and products of
        residues, over the denominator `den`, which is 1 over GF(p)
        (`FieldSpec.lift`): one pass takes each value mod p, then the
        trailing zeros are trimmed."""
        p = field.characteristic
        vals = [v % p for v in raw]
        while vals and not vals[-1]:
            vals.pop()
        out = object.__new__(Poly)
        out.field = field
        out.coeffs = tuple(vals)
        return out

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return _kernel(field)._canonical(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return _kernel(field)._canonical(field, (1,))

    @classmethod
    def constant(cls, field: FieldSpec, c) -> "Poly":
        return Poly(field, [c])

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return _kernel(field)._canonical(field, (0, 1))

    @classmethod
    def monomial(cls, field: FieldSpec, c, n: int) -> "Poly":
        return Poly(field, [c]).shift(n)

    @classmethod
    def from_coeff_dict(cls, field: FieldSpec, d: dict) -> "Poly":
        """sum_k d[k] x^k; the values must already be scalars of `field`
        (coefficients of other polynomials over it, say; over Q ints or
        Fractions)."""
        if not d:
            return cls.zero(field)
        coeffs = [0] * (max(d) + 1)
        for k, v in d.items():
            coeffs[k] = v
        return _kernel(field)._canonical(field, coeffs)

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self):
        """Degree; NEG_INF (not -1) for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        check_same_field(self.field, other.field)

    def __add__(self, other: "Poly") -> "Poly":
        if type(other) is not Poly or other.field is not self.field:
            self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        raw = [u + v for u, v in zip(a, b)]
        raw += a[len(b) :]
        return Poly._reduced(self.field, raw)

    def __sub__(self, other: "Poly") -> "Poly":
        if type(other) is not Poly or other.field is not self.field:
            self._check(other)
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        raw = [u - v for u, v in zip(a, b)]
        raw += a[n:]
        raw += [-v for v in b[n:]]
        return Poly._reduced(self.field, raw)

    def __neg__(self) -> "Poly":
        return Poly._reduced(self.field, [-c for c in self.coeffs])

    def scale(self, c) -> "Poly":
        F = self.field
        c = F.coerce(c)
        return Poly._reduced(F, [c * v for v in self.coeffs])

    def shift(self, n: int) -> "Poly":
        """x^n * self: n zero coefficients prepended, no arithmetic."""
        if n < 0:
            raise ValueError("negative exponent")
        return Poly._canonical(self.field, (0,) * n + self.coeffs)

    def __mul__(self, other):
        # the same kernel over the same field object needs no check
        if type(other) is not Poly or other.field is not self.field:
            self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._canonical(F, ())
        acc = [0] * (len(a) + len(b) - 1)
        _convolve(acc, a, b)
        return Poly._reduced(F, acc)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        out = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __divmod__(self, other: "Poly"):
        """(q, r) with self = q*other + r and deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        dd = len(other.coeffs) - 1
        if dd == 0:  # a nonzero constant c: the quotient is self / c
            c = other.coeffs[0]
            return (self if c == 1 else self.scale(F.inv(c))), Poly._canonical(F, ())
        if len(self.coeffs) - 1 < dd:
            return Poly._canonical(F, ()), self
        q = [0] * (len(self.coeffs) - dd)
        rem = _residue_divide(self.coeffs, other.coeffs, F.characteristic, q)
        return Poly._canonical(F, q), Poly._reduced(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        """self mod other: the division loop without a quotient."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(b) == 1:
            return Poly._canonical(self.field, ())
        if len(a) < len(b):
            return self
        return Poly._reduced(self.field, _residue_divide(a, b, self.field.characteristic))

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient of an exact division; ExactDivisionError on remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    # -- calculus ----------------------------------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        out = self
        for _ in range(order):
            out = Poly._reduced(self.field, [i * c for i, c in enumerate(out.coeffs[1:], 1)])
        return out

    def antiderivative(self):
        """Return g with g' = self (constant term 0), or NotIntegrable.

        In characteristic 0 this always succeeds (`QPoly.antiderivative`).
        In characteristic p the image of d/dx misses exactly the
        F[x^p]*x^(p-1) component: when the Frobenius component f_{p-1} is
        nonzero the result is NotIntegrable carrying that obstruction.
        """
        F = self.field
        p = F.p
        raw = [0] * (len(self.coeffs) + 1)
        obstruction = {}
        for i, c in enumerate(self.coeffs):
            if i % p == p - 1:
                if c:
                    obstruction[i - (p - 1)] = c
            else:
                raw[i + 1] = c * pow(i % p + 1, -1, p)
        if obstruction:
            return NotIntegrable(Poly.from_coeff_dict(F, obstruction))
        return Poly._reduced(F, raw)

    # -- gcd ----------------------------------------------------------------------

    def gcd_monic(self, other: "Poly") -> "Poly":
        """Monic gcd; gcd(f, 0) = monic(f); gcd(0, 0) is an error."""
        self._check(other)
        a, b = self, other
        if a.is_zero() and b.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly"):
        """(g, s, t) with s*self + t*other = g, g the monic gcd."""
        self._check(other)
        F = self.field
        if self.is_zero() and other.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        r0, r1 = self, other
        s0, s1 = Poly.one(F), Poly.zero(F)
        t0, t1 = Poly.zero(F), Poly.one(F)
        while not r1.is_zero():
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        lc = r0.leading_coefficient()
        inv = F.inv(lc)
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    # -- characteristic-p structure -------------------------------------------------

    def _require_char_p(self) -> int:
        if p := self.field.characteristic:
            return p
        raise ValueError("operation requires positive characteristic")

    def frobenius_split(self):
        """Components (f_0, ..., f_{p-1}) with f = sum_j f_j(x^p) x^j.

        Each f_j is returned as a polynomial in u = x^p (same field, new
        variable); over the prime field the coefficients carry over directly.
        The zero components are one shared zero Poly, so the cost past the
        length-p list is in the nonzero ones.
        """
        p = self._require_char_p()
        parts = {}
        for i, c in enumerate(self.coeffs):
            if c:
                parts.setdefault(i % p, {})[i // p] = c
        out = [Poly.zero(self.field)] * p
        for j, d in parts.items():
            out[j] = Poly.from_coeff_dict(self.field, d)
        return out

    @classmethod
    def frobenius_assemble(cls, field: FieldSpec, parts) -> "Poly":
        """Inverse of frobenius_split: sum_j parts[j](x^p) x^j."""
        p = field.p
        if len(parts) != p:
            raise ValueError(f"expected {p} components, got {len(parts)}")
        out = {}
        for j, part in enumerate(parts):
            for k, c in enumerate(part.coeffs):
                if c:
                    out[k * p + j] = c
        return cls.from_coeff_dict(field, out)

    def substitute_xp(self) -> "Poly":
        """Treat self as a polynomial in u and substitute u = x^p."""
        p = self._require_char_p()
        return Poly.from_coeff_dict(
            self.field,
            {i * p: c for i, c in enumerate(self.coeffs) if c},
        )

    def pth_root(self) -> "Poly":
        """Exact p-th root of an element of F[x^p] over the prime field."""
        p = self._require_char_p()
        out = {}
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i % p:
                raise ExactDivisionError(f"{self} is not a p-th power")
            out[i // p] = c
        return Poly.from_coeff_dict(self.field, out)

    def in_frobenius_base(self) -> bool:
        """True iff self lies in F[x^p]."""
        if self.field.is_char_zero:
            return self.is_constant()
        p = self.field.p
        return all(
            not c for i, c in enumerate(self.coeffs) if i % p
        )

    def partial_p(self) -> "Poly":
        """d/d(x^p) applied to each Frobenius component and reassembled.

        On monomials: x^(jp+i) -> j * x^((j-1)p+i) for 0 <= i < p.
        """
        p = self._require_char_p()
        return Poly._reduced(self.field, [(n // p) * c for n, c in enumerate(self.coeffs[p:], p)])

    # -- squarefree structure ----------------------------------------------------------

    def squarefree_decomposition(self):
        """[(f_1, e_1), ...] with self = lc * prod f_i^{e_i}, each f_i monic
        squarefree, pairwise coprime, and e_i strictly increasing."""
        if self.is_zero():
            raise ValueError("squarefree decomposition of 0")
        f = self.monic()
        if f.is_one():
            return []
        return _musser(f) if self.field.characteristic else _yun(f)

    # -- printing -----------------------------------------------------------------------

    def to_text(self, var: str = "x") -> str:
        """Render with terms in increasing degree, e.g. '1 - 2*x + x^3'."""
        return _signed(self._terms_text(var))

    def _terms_text(self, var: str, suffix: str = "") -> str:
        """The printing kernel of the field: the terms of self in increasing
        degree, each led by ' + ' or ' - ' (see `_signed`); '' for zero. A
        term is its coefficient without the sign, then '*' and its monomial
        var^i, followed by '*' and `suffix` when one is given; a coefficient
        1 before a monomial is left out. Over GF(p) a residue is never
        negative, so every term is led by ' + '."""
        cs = self.coeffs
        if not cs:
            return ""
        tail = "*" + suffix if suffix else ""
        terms = [
            m + tail if c == 1 else f"{c}*{m}{tail}"
            for c, m in zip(cs, _monomials(var, len(cs)))
            if c
        ]
        if c := cs[0]:
            terms[0] = _constant_text(str(c), suffix)
        return " + " + " + ".join(terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Poly({self.field}, {self.to_text()!r})"


# The slot that holds `coeffs` over GF(p); a QPoly keeps its Fractions there.
_COEFFS = Poly.coeffs


class QPoly(Poly):
    """Element of Q[x]: integer numerators `num` over one denominator `den`,
    canonical: no trailing zero in `num`, `den > 0`, gcd(den, *num) = 1,
    and ((), 1) for zero. Every operation of `Poly` that reads or makes
    coefficients is redefined here on `num` and `den`."""

    __slots__ = ("num", "den")

    def __init__(self, field: FieldSpec, coeffs):
        # an int or a Fraction is already canonical; `coerce` validates the rest
        vals = [c if type(c) is int or type(c) is Fraction else field.coerce(c) for c in coeffs]
        self.field = field
        self.num, self.den = _over_lcm(vals)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _make(cls, field: FieldSpec, num: tuple, den: int) -> "QPoly":
        """Trusted constructor: `num` and `den` are canonical already."""
        out = object.__new__(cls)
        out.field = field
        out.num = num
        out.den = den
        return out

    @classmethod
    def _canonical(cls, field: FieldSpec, values) -> "QPoly":
        """Trusted constructor from canonical scalars of Q, ints or Fractions
        (`_over_lcm`)."""
        return cls._make(field, *_over_lcm(values))

    @classmethod
    def _reduced(cls, field: FieldSpec, raw, den=1) -> "QPoly":
        """Trusted constructor from raw integers over the nonzero integer
        `den`: trailing zeros trimmed, then one gcd of den with the rest
        divided out, with the sign that makes den positive."""
        n = len(raw)
        while n and not raw[n - 1]:
            n -= 1
        if not n:
            return _zero(field)
        if den != 1:
            g = gcd(den, *raw)
            if den < 0:
                g = -g
            if g != 1:
                return cls._make(field, tuple([v // g for v in raw[:n]]), den // g)
        return cls._make(field, tuple(raw[:n]), den)

    # -- basic queries ----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as `Fraction`s, made on the first read and kept."""
        try:
            return _COEFFS.__get__(self)
        except AttributeError:
            den = self.den
            coeffs = tuple(Fraction(n, den) for n in self.num)
            _COEFFS.__set__(self, coeffs)
            return coeffs

    @property
    def degree(self):
        """Degree; NEG_INF (not -1) for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == 1

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def leading_coefficient(self):
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coefficient(self, n: int):
        if 0 <= n < len(self.num):
            return Fraction(self.num[n], self.den)
        return Fraction(0)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- ring operations ---------------------------------------------------------

    def _over(self, other: "QPoly"):
        """(den, a, b): the numerators of self and other over the lcm den of
        their denominators."""
        self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da == db:
            return da, a, b
        den = lcm(da, db)
        if da != den:
            m = den // da
            a = [m * v for v in a]
        if db != den:
            m = den // db
            b = [m * v for v in b]
        return den, a, b

    def __add__(self, other: "QPoly") -> "QPoly":
        den, a, b = self._over(other)
        if len(a) < len(b):
            a, b = b, a
        raw = [u + v for u, v in zip(a, b)]
        raw += a[len(b) :]
        return QPoly._reduced(self.field, raw, den)

    def __sub__(self, other: "QPoly") -> "QPoly":
        den, a, b = self._over(other)
        n = min(len(a), len(b))
        raw = [u - v for u, v in zip(a, b)]
        raw += a[n:]
        raw += [-v for v in b[n:]]
        return QPoly._reduced(self.field, raw, den)

    def __neg__(self) -> "QPoly":
        return QPoly._make(self.field, tuple([-v for v in self.num]), self.den)

    def scale(self, c) -> "QPoly":
        if type(c) is not int:
            c = self.field.coerce(c)
        n, d = c.numerator, c.denominator
        if n == d:  # c = 1
            return self
        return QPoly._reduced(self.field, [n * v for v in self.num], d * self.den)

    def shift(self, n: int) -> "QPoly":
        """x^n * self: n zero coefficients prepended, no arithmetic."""
        if n < 0:
            raise ValueError("negative exponent")
        if not n or not self.num:
            return self
        return QPoly._make(self.field, (0,) * n + self.num, self.den)

    def __mul__(self, other):
        self._check(other)
        a, b = self.num, other.num
        if not a or not b:
            return _zero(self.field)
        acc = [0] * (len(a) + len(b) - 1)
        _convolve(acc, a, b)
        return QPoly._reduced(self.field, acc, self.den * other.den)

    def __divmod__(self, other: "QPoly"):
        """(q, r) with self = q*other + r and deg r < deg other: the
        pseudo-division of the module docstring on a = self.num by b =
        other.num. With S = L^K after K steps, a step at window bottom lo
        taken after k steps gives q_lo = c db / (L^(k+1) da), so over the
        common denominator S da its numerator is c db L^(K-k-1); the
        remainder of a is rem / S, that of self rem / (S da)."""
        self._check(other)
        F = self.field
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self.num
        if len(b) == 1:  # a nonzero constant b0/db: the quotient is self * db/b0
            return QPoly._reduced(F, [other.den * v for v in a], b[0] * self.den), _zero(F)
        if len(a) < len(b):
            return _zero(F), self
        q = [0] * (len(a) - len(b) + 1)
        S, rem = _pseudo_divide(a, b, q)
        L = b[-1]
        m = other.den  # db L^(K-k-1), for the steps in order of increasing lo
        for lo, c in enumerate(q):
            if c:
                q[lo] = c * m
                m *= L
        den = S * self.den
        return QPoly._reduced(F, q, den), QPoly._reduced(F, rem, den)

    def __mod__(self, other: "QPoly") -> "QPoly":
        """self mod other: the pseudo-division without a quotient, rem / (S da)."""
        self._check(other)
        a, b = self.num, other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(b) == 1:
            return _zero(self.field)
        if len(a) < len(b):
            return self
        S, rem = _pseudo_divide(a, b)
        return QPoly._reduced(self.field, rem, S * self.den)

    def monic(self) -> "QPoly":
        num = self.num
        if not num:
            raise ValueError("cannot normalize the zero polynomial")
        if num[-1] == self.den:
            return self
        return QPoly._reduced(self.field, num, num[-1])

    # -- calculus ----------------------------------------------------------------

    def derivative(self, order: int = 1) -> "QPoly":
        if not order:
            return self
        num = self.num
        for _ in range(order):
            num = [i * c for i, c in enumerate(num[1:], 1)]
        return QPoly._reduced(self.field, num, self.den)

    def antiderivative(self) -> "QPoly":
        """g with g' = self and constant term 0: the term c x^(i-1) becomes
        c/i x^i, over the lcm L of those i (with c nonzero) times den."""
        num = self.num
        if not num:
            return self
        L = lcm(*(i for i, c in enumerate(num, 1) if c))
        raw = [0] + [c * (L // i) for i, c in enumerate(num, 1)]
        return QPoly._reduced(self.field, raw, L * self.den)

    # -- printing -----------------------------------------------------------------------

    def _terms_text(self, var: str, suffix: str = "") -> str:
        """The kernel of `Poly._terms_text` over Q: each numerator is read
        over `den` and put in lowest terms by one gcd, its sign leads the
        term, and it prints as num or num/den. A numerator or a denominator
        of more than `MAX_DIGITS` digits is a ValueError that names the
        limit."""
        den = self.den
        tail = "*" + suffix if suffix else ""
        out = []
        for n, m in zip(self.num, _monomials(var, len(self.num))):
            if n:
                d = den
                if d != 1 and (g := gcd(n, d)) != 1:
                    n //= g
                    d //= g
                sign = " + "
                if n < 0:
                    sign = " - "
                    n = -n
                if n >= _DIGITS_BOUND or d >= _DIGITS_BOUND:
                    raise ValueError(
                        f"a computed coefficient takes more than {MAX_DIGITS} digits,"
                        " the limit for printing"
                    )
                text = str(n) if d == 1 else f"{n}/{d}"
                if not m:
                    out.append(sign + _constant_text(text, suffix))
                elif text == "1":
                    out.append(sign + m + tail)
                else:
                    out.append(f"{sign}{text}*{m}{tail}")
        return "".join(out)


def _zero(field: FieldSpec) -> QPoly:
    """The zero polynomial over Q, ((), 1)."""
    return QPoly._make(field, (), 1)


def _over_lcm(values):
    """(num, den) of canonical rationals, ints or Fractions, trailing zeros
    trimmed: den the lcm of their denominators and num the values times den.
    As each value is in lowest terms, gcd(den, *num) = 1 with no gcd taken:
    for a prime q of den, the value whose denominator holds the highest
    power of q has a numerator prime to q, and den / that denominator is
    prime to q too."""
    n = len(values)
    while n and not values[n - 1]:
        n -= 1
    values = values[:n]
    den = lcm(*[c.denominator for c in values if type(c) is not int])
    if den == 1:
        return tuple([c if type(c) is int else c.numerator for c in values]), 1
    num = [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in values]
    return tuple(num), den


def _residue_divide(a, b, p: int, q=None) -> list:
    """The raw remainder of the residues a by b (deg b >= 1) over GF(p):
    the schoolbook division loop, storing the quotient's residues in q when
    given. Each step reduces only the coefficient it reads."""
    dd = len(b) - 1
    rem = list(a)  # raw values below the current index
    lc_inv = pow(b[-1], -1, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        # rem[i] is final here; reduce it (times 1/lc) before the zero test
        if f := rem[i] * lc_inv % p:
            lo = i - dd
            if q is not None:
                q[lo] = f
            rem[lo:i] = [r - f * d for r, d in zip(rem[lo:i], b)]
    return rem[:dd]


def _pseudo_divide(a, b, q=None):
    """(S, rem) for the numerators a and b (deg b >= 1): the lazily scaled
    pseudo-division of the module docstring, with S = L^K after K steps and
    S a = quotient b + rem. Each step stores its top coefficient c in q, at
    the window bottom, when q is given (`QPoly.__divmod__` scales them)."""
    dd = len(b) - 1
    rem = list(a)
    L = b[-1]
    S = 1
    for i in range(len(rem) - 1, dd - 1, -1):
        lo = i - dd
        rem[lo] *= S
        if c := rem[i]:
            if q is not None:
                q[lo] = c
            rem[lo:i] = [L * r - c * d for r, d in zip(rem[lo:i], b)]
            S *= L
    return S, rem[:dd]


def _stored(r: Poly):
    """(den, values): the stored scalars of r over their common denominator,
    (1, coeffs) over GF(p) and (den, num) over Q. For the routes that read a
    polynomial's coefficients raw: printing, and the parser's sparse form."""
    return (r.den, r.num) if type(r) is QPoly else (1, r.coeffs)


def _convolve(acc: list, a, b) -> None:
    """acc[m + n] += a[m] * b[n] on raw values, no reduction; acc must be
    long enough. The schoolbook product loop: `Poly.__mul__`, the Weyl
    product and the small binomial sums of `derivations` accumulate through
    it; the large ones are packed (`_pack`)."""
    for m, am in enumerate(a):
        if am:
            for n, bn in enumerate(b, m):
                acc[n] += am * bn


#: (unsigned, signed) typecodes of the machine words of 1, 2, 4 and 8
#: bytes, by width, for the slots of `_pack` and `_unpack` that fit one;
#: none on a big-endian machine, whose words are not little-endian slots.
_WORDS = {array(t).itemsize: (t, t.lower()) for t in "BHIQ"} if sys.byteorder == "little" else {}


def _pack(values, nb: int, signed: bool) -> int:
    """The integer sum_m values[m] B^m, B = 2^(8 nb): a row of raw values
    evaluated at x = B, Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4). The product of two packed rows
    is their product, packed, and packed products add as their rows do, as
    long as each output value fits its slot (the caller's bound); `_unpack`
    reads them back.

    Each value is written into its slot of nb bytes, a machine word where
    one is that wide (`_WORDS`). Each value is in [0, B), or with `signed`
    in [-B/2, B/2), written in two's complement: a negative value c at
    slot m then reads as c + B, with the top bit B/2 of its slot set, so
    the sum is the read less twice its top bits, 2 (B/2) B^m = B^(m+1)
    for each negative value."""
    word = _WORDS.get(nb)
    if word:
        data = array(word[1] if signed else word[0], values).tobytes()
    else:
        data = b"".join([c.to_bytes(nb, "little", signed=signed) for c in values])
    value = int.from_bytes(data, "little")
    if signed:
        value -= (value & _slot_tops(len(values), nb)) << 1
    return value


def _unpack(value: int, count: int, nb: int, signed: bool) -> list:
    """The `count` values of a packed row or sum of products (see `_pack`),
    each in [0, B), or with `signed` in [-B/2, B/2). The signed read adds
    B/2 to every slot, as one integer, which puts each value plus B/2 in
    [0, B), a base-B digit with no borrow, and flips each top bit back:
    that leaves each value in two's complement, exactly."""
    if signed:
        tops = _slot_tops(count, nb)
        value = (value + tops) ^ tops
    data = value.to_bytes(count * nb, "little")
    word = _WORDS.get(nb)
    if word:
        return array(word[1] if signed else word[0], data).tolist()
    read = int.from_bytes
    return [read(data[m : m + nb], "little", signed=signed) for m in range(0, count * nb, nb)]


def _slot_tops(count: int, nb: int) -> int:
    """The top bit of each of `count` slots of nb bytes, B/2 in each."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")


#: var -> the texts of its powers, '' for var^0 and `var` for var^1: the
#: monomial table of the printing kernels, kept per variable name
_MONOMIALS: dict = {}


def _monomials(var: str, n: int) -> list:
    """The texts of var^0, ..., var^(n-1), or more. The table grows to at
    least double its length, so printing ever longer rows, as the normalizer
    levels of one run are, rebuilds it only a logarithmic number of times."""
    table = _MONOMIALS.get(var)
    if table is None:
        table = _MONOMIALS[var] = ["", var]
    if len(table) < n:
        table += [f"{var}^{i}" for i in range(len(table), max(n, 2 * len(table)))]
    return table


def _constant_text(text: str, suffix: str) -> str:
    """A constant term c, printed as `text`, times the monomial `suffix`."""
    if not suffix:
        return text
    return suffix if text == "1" else f"{text}*{suffix}"


def _signed(terms: str) -> str:
    """A printed value from the terms a kernel writes (`Poly._terms_text`),
    each led by ' + ' or ' - ': the first becomes '' or '-', and no term
    prints as '0'."""
    if not terms:
        return "0"
    return terms[3:] if terms[1] == "+" else "-" + terms[3:]


def _yun(f: Poly):
    """Yun's squarefree decomposition of f, monic nonconstant, over Q.

    c is the product of the parts f_m with m >= k, and w = c sum (m - k)
    f_m' / f_m over them, so gcd(c, w) is f_k, and w = 0 says that c is the
    last part. Every step works on c and w, whose degrees only fall.

    Each field keeps its own loop. Over Q, Musser's loop (`_musser`) divides
    the whole cofactor gcd(f, f') at every multiplicity level, so a part of
    multiplicity m costs m gcds of large degree: (x+1)^1000 took 0.65 s by
    that loop and 5 ms by this one (2-CPU x86, Python 3.11). Over GF(p) this
    loop is wrong: f_m' / f_m counts m mod p, so the parts come grouped by m
    mod p and those with p | m are lost. Over GF(3), x^4 (x+1) gives
    [(x + x^2, 1)], where the decomposition is [(1 + x, 1), (x, 4)]."""
    d = f.derivative()
    g = f.gcd_monic(d)
    c = f.exact_div(g)
    w = d.exact_div(g) - c.derivative()
    out = []
    k = 1
    while not w.is_zero():
        a = c.gcd_monic(w)
        if not a.is_one():
            out.append((a, k))
            c = c.exact_div(a)
            w = w.exact_div(a)
        w = w - c.derivative()
        k += 1
    return out + [(c, k)]


def _musser(f: Poly):
    """Musser's squarefree decomposition of f, monic nonconstant, over
    GF(p). With c = gcd(f, f') and w = f / c, the product of the parts f_m
    with m prime to p, step k splits off f_k = w / gcd(w, c) and divides c
    by gcd(w, c). What c keeps at the end is the product of the f_m^m with
    p | m, a p-th power, whose decomposition is that of its p-th root with
    every multiplicity times p; where f' = 0, c is f itself."""
    c = f.gcd_monic(f.derivative())
    w = f.exact_div(c)
    out = []
    k = 1
    while not w.is_one():
        y = w.gcd_monic(c) if not c.is_one() else Poly.one(f.field)
        z = w.exact_div(y)
        if not z.is_one():
            out.append((z, k))
        w = y
        if not y.is_one():
            c = c.exact_div(y)
        k += 1
    if not c.is_one():
        p = f.field.characteristic
        out += [(g, m * p) for g, m in _musser(c.pth_root())]
    return sorted(out, key=lambda t: t[1])
