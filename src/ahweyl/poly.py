"""Exact univariate polynomial arithmetic over Q or GF(p).

Polynomials are dense coefficient tuples, index = degree, with no trailing
zeros; the zero polynomial has an empty tuple and degree -infinity. Every
coefficient is in the field's canonical form (see `fields`): an int in
[0, p) over GF(p), a Fraction over Q. All operations return canonical-form
results and are side-effect free.

Reduce once: the ring operations compute each output coefficient from raw
sums and products of canonical scalars, map the whole result through
`FieldSpec.reduce` once, and build it with the trusted constructor
`Poly._canonical`, which only trims trailing zeros. The public
`Poly(field, coeffs)` validates and coerces, as the entry point for outside
input. `_convolve` is the one product loop; the Weyl product shares it.

Products lift their operands first (`FieldSpec.lift`): over Q both factors
are cleared to integer numerators over one common denominator `den`, the
loop accumulates Python ints, and each output coefficient is divided by
`den**2` once, in `reduce`. Division over Q lifts the dividend and the
divisor each to integers and pseudo-divides them (Knuth, TAOCP vol. 2,
4.6.1, Algorithm R) with lazy scaling: with L the divisor's leading
integer, a step is rem = L*rem - c*divisor on the window below the top,
the running scale S is multiplied by L, and a lower coefficient is
multiplied by S once, when it enters the window. Each quotient and
remainder coefficient becomes one Fraction at the end. Over GF(p) the
division is its own loop on residues. The integer images exist only inside
the operation; every Poly that leaves it holds Fractions again.

Besides the ring operations this module carries the characteristic-p
bookkeeping used throughout the package: the Frobenius decomposition
f = sum_j f_j(x^p) x^j (0 <= j < p), the map partial_p = d/d(x^p) applied
componentwise, exact p-th roots, antiderivatives with their integrability
obstruction, and squarefree decomposition via gcd/derivative chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import ExactDivisionError, FieldSpec, check_same_field

#: Degree of the zero polynomial; compares below every integer degree.
NEG_INF = float("-inf")

#: Most decimal digits in a number literal, and in the numerator or the
#: denominator of any coefficient over Q: the longest integer that Python's
#: `int()` reads from text, and `str()` writes, by default. The parser
#: refuses longer input, and the term printer of Q (`_term_printer`) a
#: longer computed coefficient, for `Poly`, `WeylElement` and `CenterPoly`.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS  # the least integer with more digits


@dataclass(frozen=True)
class NotIntegrable:
    """Failure value of `Poly.antiderivative` in characteristic p.

    `obstruction` is the unique c in F[x^p] such that f - c*x^(p-1) has an
    antiderivative; it is nonzero exactly when f itself has none.
    """

    obstruction: "Poly"


class Poly:
    """Element of F[x] in canonical dense form."""

    __slots__ = ("field", "coeffs")

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
        only trailing zeros are trimmed."""
        n = len(values)
        while n and not values[n - 1]:
            n -= 1
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(values[:n])
        return out

    @classmethod
    def _reduced(cls, field: FieldSpec, raw, den=None) -> "Poly":
        """Trusted constructor from raw sums and products of field scalars
        (over Q with `den`: of integers over that common denominator)."""
        return cls._canonical(field, field.reduce(raw, den))

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls._canonical(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls._canonical(field, (field.one(),))

    @classmethod
    def constant(cls, field: FieldSpec, c) -> "Poly":
        return cls(field, [c])

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls._canonical(field, (field.zero(), field.one()))

    @classmethod
    def monomial(cls, field: FieldSpec, c, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        return cls._canonical(field, (field.zero(),) * n + (field.coerce(c),))

    @classmethod
    def from_coeff_dict(cls, field: FieldSpec, d: dict) -> "Poly":
        """sum_k d[k] x^k; the values must already be scalars of `field`
        (coefficients of other polynomials over it, say)."""
        if not d:
            return cls.zero(field)
        coeffs = [field.zero()] * (max(d) + 1)
        for k, v in d.items():
            coeffs[k] = v
        return cls._canonical(field, coeffs)

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
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.field.zero()

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
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        raw = [u + v for u, v in zip(a, b)]
        raw += a[len(b) :]
        return Poly._reduced(self.field, raw)

    def __sub__(self, other: "Poly") -> "Poly":
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
        return Poly._canonical(self.field, (self.field.zero(),) * n + self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        F = self.field
        if not self.coeffs or not other.coeffs:
            return Poly.zero(F)
        den, (a, b) = F.lift((self, other))
        acc = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        _convolve(acc, a.coeffs, b.coeffs)
        return Poly._reduced(F, acc, den * den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
            return (self if c == 1 else self.scale(F.inv(c))), Poly.zero(F)
        if len(self.coeffs) - 1 < dd:
            return Poly.zero(F), self
        if F.characteristic:
            p = F.p
            rem = list(self.coeffs)  # raw values below the current index
            dv = other.coeffs
            lc_inv = F.inv(dv[-1])
            q = [0] * (len(rem) - dd)
            for i in range(len(rem) - 1, dd - 1, -1):
                # rem[i] is final here; reduce it (times 1/lc) before the zero test
                if f := rem[i] * lc_inv % p:
                    lo = i - dd
                    q[lo] = f
                    rem[lo:i] = [r - f * d for r, d in zip(rem[lo:i], dv)]
            return Poly._canonical(F, q), Poly._reduced(F, rem[:dd])
        # over Q: pseudo-division of a = da*self by b = db*other (see the
        # module docstring); rem[k]/S is the remainder of a at every k that
        # has entered the window [lo, i)
        da, (a,) = F.lift((self,))
        db, (b,) = F.lift((other,))
        rem, dv = list(a.coeffs), b.coeffs
        L = dv[-1]
        num, den = [0] * (len(rem) - dd), [1] * (len(rem) - dd)
        S = 1
        for i in range(len(rem) - 1, dd - 1, -1):
            lo = i - dd
            rem[lo] *= S
            if c := rem[i]:
                # q_lo = (c/S) / (L/db) / da
                num[lo], den[lo] = c * db, S * L * da
                rem[lo:i] = [L * r - c * d for r, d in zip(rem[lo:i], dv)]
                S *= L
        q = [Fraction(n, d) for n, d in zip(num, den)]
        return Poly._canonical(F, q), Poly._reduced(F, rem[:dd], S * da)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

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

        In characteristic 0 this always succeeds. In characteristic p the
        image of d/dx misses exactly the F[x^p]*x^(p-1) component: when the
        Frobenius component f_{p-1} is nonzero the result is NotIntegrable
        carrying that obstruction.
        """
        F = self.field
        raw = [F.zero()] * (len(self.coeffs) + 1)
        if F.is_char_zero:
            raw[1:] = [c / (i + 1) for i, c in enumerate(self.coeffs)]
            return Poly._canonical(F, raw)
        p = F.p
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
        if self.field.is_char_zero:
            raise ValueError("operation requires positive characteristic")
        return self.field.p

    def frobenius_split(self):
        """Components (f_0, ..., f_{p-1}) with f = sum_j f_j(x^p) x^j.

        Each f_j is returned as a polynomial in u = x^p (same field, new
        variable); over the prime field the coefficients carry over directly.
        """
        p = self._require_char_p()
        parts = [dict() for _ in range(p)]
        for i, c in enumerate(self.coeffs):
            if c:
                parts[i % p][i // p] = c
        return [Poly.from_coeff_dict(self.field, d) for d in parts]

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
        if self.field.is_char_zero:
            return _yun(f)
        return _squarefree_char_p(f)

    # -- printing -----------------------------------------------------------------------

    def to_text(self, var: str = "x") -> str:
        """Render with terms in increasing degree, e.g. '1 - 2*x + x^3'."""
        if self.is_zero():
            return "0"
        return _join_terms(_poly_terms(self, _term_printer(self.field), var))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Poly({self.field}, {self.to_text()!r})"


def _convolve(acc: list, a, b) -> None:
    """acc[m + n] += a[m] * b[n] on raw values, no reduction; acc must be
    long enough. The one product loop of the package: `Poly.__mul__` and
    the Weyl product both accumulate through it."""
    for m, am in enumerate(a):
        if am:
            for n, bn in enumerate(b, m):
                acc[n] += am * bn


def _term_printer(field: FieldSpec):
    """The printer of a term of `field`: (c, monomial) -> (negative, text) for
    a nonzero canonical scalar c and the text of a monomial ('' for 1). The
    text is c without its sign, then '*' and the monomial; a coefficient 1
    before a monomial is left out. Chosen once per printed value: the one
    place a coefficient becomes text."""
    return _rational_term if field.is_char_zero else _residue_term


def _residue_term(c, monomial: str):
    """A residue in [0, p) is never negative and never near `MAX_DIGITS`."""
    if not monomial:
        return False, str(c)
    return False, monomial if c == 1 else f"{c}*{monomial}"


def _rational_term(c, monomial: str):
    """The sign split off, then num or num/den; a numerator or a denominator
    of more than `MAX_DIGITS` digits is a ValueError that names the limit."""
    num, den = c.numerator, c.denominator
    neg = num < 0
    if neg:
        num = -num
    if num >= _DIGITS_BOUND or den >= _DIGITS_BOUND:
        raise ValueError(
            f"a computed coefficient takes more than {MAX_DIGITS} digits, the limit for printing"
        )
    text = str(num) if den == 1 else f"{num}/{den}"
    if not monomial:
        return neg, text
    return neg, monomial if text == "1" else f"{text}*{monomial}"


def _power_text(var: str, n: int) -> str:
    """var^n as printed: '' for n = 0, var for n = 1."""
    return "" if n == 0 else var if n == 1 else f"{var}^{n}"


def _poly_terms(r: Poly, term, var: str, suffix: str = ""):
    """The printed terms of r, each monomial var^i followed by `suffix`."""
    for i, c in enumerate(r.coeffs):
        if c:
            # _power_text, inlined: this loop runs once per printed coefficient
            monomial = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            yield term(c, f"{monomial}*{suffix}" if monomial and suffix else monomial or suffix)


def _join_terms(terms) -> str:
    """'a + b - c' from printed terms (negative, text), the first one's sign
    written as a bare '-'."""
    out = []
    for neg, text in terms:
        out.append(((" - " if neg else " + ") if out else ("-" if neg else "")) + text)
    return "".join(out)


def _yun(f: Poly):
    """Yun's squarefree decomposition, characteristic 0, f monic nonconstant."""
    d = f.derivative()
    g = f.gcd_monic(d)
    c = f.exact_div(g)
    w = d.exact_div(g) - c.derivative()
    out = []
    k = 1
    while not c.is_one():
        a = c.gcd_monic(w) if not w.is_zero() else c.monic()
        if not a.is_one():
            out.append((a, k))
        c = c.exact_div(a)
        w = w.exact_div(a) - c.derivative()
        k += 1
    return out


def _squarefree_char_p(f: Poly):
    """Squarefree decomposition over GF(p), recursing on the p-th power part."""
    p = f.field.p
    out = {}
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree_char_p(f.pth_root()):
            out[m * p] = g
        return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])
    c = f.gcd_monic(d)
    w = f.exact_div(c)
    k = 1
    while not w.is_one():
        y = w.gcd_monic(c) if not c.is_one() else Poly.one(f.field)
        z = w.exact_div(y)
        if not z.is_one():
            out[k] = z
        w = y
        if not y.is_one():
            c = c.exact_div(y)
        k += 1
    if not c.is_one():
        for g, m in _squarefree_char_p(c.pth_root()):
            if m * p in out:
                out[m * p] = out[m * p] * g
            else:
                out[m * p] = g
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])
