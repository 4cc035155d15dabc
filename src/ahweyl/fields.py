"""Exact coefficient fields: the rationals and the prime fields GF(p).

A FieldSpec carries the characteristic (0 or a prime p); scalars are plain
values with exact arithmetic, and a FieldSpec only makes, inverts and
reduces them. The stored (canonical) form of a scalar is a
`fractions.Fraction` in characteristic 0 and a least nonnegative residue (a
Python int in [0, p), never a bool) in characteristic p. No floating point
is used anywhere.

Both kinds of scalar support `+`, `-` and `*` natively, so the ring loops
of `poly`, `weyl`, `centerpoly` and `linalg` compute on raw values and call
`FieldSpec.reduce` once per output coefficient: that method is the only
place they learn the characteristic. `coerce` validates outside scalars
where they enter a value class: the public constructors and `Poly.scale`.
The parser calls it only on an `a/b` literal over GF(p): it keeps every
other scalar in the field's raw form (a residue mod p; over Q an int, or a
`Fraction` from an `a/b` literal) and makes each canonical once, where a
value leaves it (see `parse`).

The product loops (`Poly.__mul__`, the Weyl product, `d_on_poly` and the
closed form `yhat_bracket`), the division `Poly.__divmod__`, and the routes
that sum raw rows across a whole computation (the binomial sum that
`Derivation.apply`, with its cached numerators of D(y), and
`AhAlgebraMap.apply` share, and `Derivation.criterion_defect`) first pass
their operands through `FieldSpec.lift`. Over Q it clears denominators: it
returns the lcm `den` of every coefficient denominator and integer
images `c.numerator * (den // c.denominator)`, so the loops run on Python
ints, and `reduce(values, den)` turns each raw integer back into
`Fraction(v, den)`, one division per output coefficient. Division
pseudo-divides the integer images and builds each quotient and remainder
coefficient as one Fraction at the end. Over GF(p) `lift` returns its
argument with `den = 1`. The integer images are transient: they never
leave the operation that made them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class FieldMismatchError(ValueError):
    """Operands belong to different coefficient fields."""


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"characteristic {n} is too large: primality is decided below {_MR_EXACT_BELOW}"
        )
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    # b witnesses that n is composite iff b^d != 1 and b^(d 2^i) != -1 for i < s
    return not any(
        pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
        for b in _MR_BASES
    )


@dataclass(frozen=True)
class FieldSpec:
    """The base field F: characteristic 0 means Q, a prime p means GF(p)."""

    characteristic: int

    def __post_init__(self):
        ch = self.characteristic
        if ch != 0 and not _is_prime(ch):
            raise ValueError(f"characteristic must be 0 or prime, got {ch}")

    @property
    def is_char_zero(self) -> bool:
        return self.characteristic == 0

    @property
    def p(self) -> int:
        """The prime p; only meaningful in positive characteristic."""
        if self.characteristic == 0:
            raise ValueError("field has characteristic 0")
        return self.characteristic

    # -- element construction -------------------------------------------------

    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def from_int(self, n: int):
        if self.characteristic == 0:
            return Fraction(n)
        return n % self.characteristic

    def coerce(self, v):
        """Coerce an int / Fraction into this field; reject floats."""
        if isinstance(v, bool) or isinstance(v, float):
            raise TypeError(f"inexact scalar {v!r} not allowed")
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction):
            if self.characteristic == 0:
                return v
            p = self.characteristic
            return v.numerator * self.inv(v.denominator % p) % p
        raise TypeError(f"cannot coerce {type(v).__name__} into {self}")

    def reduce(self, values, den=None) -> list:
        """Canonical values of raw sums and products of field scalars:
        each taken mod p in characteristic p, unchanged over Q. Over Q,
        with `den` given, the values are integers over the common
        denominator `den` (see `lift`) and map to `Fraction(v, den)`."""
        p = self.characteristic
        if p:
            return [v % p for v in values]
        if den is None:
            return list(values)
        if den == 1:  # most products over Q; Fraction(v) skips the gcd
            return [Fraction(v) for v in values]
        return [Fraction(v, den) for v in values]

    def lift(self, polys):
        """`(den, images)` for the Polys of one product operand, given as a
        tuple or as the `{i: r_i}` terms of a Weyl element.

        Over Q, `den` is the lcm of all coefficient denominators and each
        image has the integer coefficients `den * c`. Over GF(p) the
        argument itself comes back with `den = 1`, uncopied."""
        if self.characteristic:
            return 1, polys
        rs = polys.values() if isinstance(polys, dict) else polys
        den = lcm(*{c.denominator for r in rs for c in r.coeffs})

        def image(r):
            return r._canonical(self, [c.numerator * (den // c.denominator) for c in r.coeffs])

        if isinstance(polys, dict):
            return den, {i: image(r) for i, r in polys.items()}
        return den, tuple(image(r) for r in polys)

    # -- arithmetic ------------------------------------------------------------

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            return Fraction(1) / a
        return pow(a, -1, self.characteristic)

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


def check_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if not (a is b or a == b):
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
