"""Exact coefficient fields: the rationals and the prime fields GF(p).

A FieldSpec carries the characteristic (0 or a prime p); scalars are plain
values with exact arithmetic, and a FieldSpec only makes, inverts and
reduces them. A canonical scalar is a `fractions.Fraction` in
characteristic 0 and a least nonnegative residue (a Python int in [0, p),
never a bool) in characteristic p. No floating point is used anywhere.

Polynomials do not reduce their scalars through this module: the kernel
of a `poly.Poly` is chosen once per value (see `poly`), and it reduces its
own raw values, over GF(p) mod p in one pass, over Q (`poly.QPoly`, integer
numerators over one denominator) by one gcd. So this module serves the
places that still handle scalars one by one: `coerce` validates outside
scalars, ints among them, where they enter a value class (the public
constructors and `scale`); `reduce` maps raw sums and products of
canonical scalars to canonical ones (mod p over GF(p), unchanged over Q),
once per output coefficient, for `linalg` and the parser, which keeps every
scalar in the field's raw form (a residue mod p; over Q an int, or a
`Fraction` from an `a/b` literal) until a value leaves it (see `parse`).

The routes that sum raw rows across several polynomials (the Weyl and
`CenterPoly` products, `d_on_poly`, the closed form `yhat_bracket`, the binomial sum
that `Derivation.apply` and `AhAlgebraMap.apply` share, and
`Derivation.criterion_defect`) first pass their operands through
`FieldSpec.lift`, which puts them over one common denominator `den`:
over Q the lcm of the polynomials' `den`s, each image the numerators
times `den // r.den` (a polynomial already over `den` passes its
numerators uncopied); over GF(p) `den = 1` and each image is the stored
residue tuple, returned at once. The loops run on those raw integers, and
each output row is made a polynomial again by the kernel's `_reduced`:
over Q over the product of the lift denominators, by one gcd; over GF(p)
mod p.
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

    def coerce(self, v):
        """Coerce an int / Fraction into this field; reject floats."""
        if isinstance(v, bool) or isinstance(v, float):
            raise TypeError(f"inexact scalar {v!r} not allowed")
        if isinstance(v, int):
            return v % self.characteristic if self.characteristic else Fraction(v)
        if isinstance(v, Fraction):
            if self.characteristic == 0:
                return v
            p = self.characteristic
            return v.numerator * self.inv(v.denominator % p) % p
        raise TypeError(f"cannot coerce {type(v).__name__} into {self}")

    def reduce(self, values) -> list:
        """Canonical values of raw sums and products of field scalars:
        each taken mod p in characteristic p, unchanged over Q."""
        p = self.characteristic
        if p:
            return [v % p for v in values]
        return list(values)

    def lift(self, polys):
        """`(den, images)` for the Polys of one product operand, given as a
        tuple or as the `{i: r_i}` terms of a Weyl element: each image is
        the raw coefficient sequence of one Poly over the common
        denominator `den`.

        Over Q, `den` is the lcm of the denominators `r.den`, and an image
        is `r.num` times `den // r.den`, or `r.num` itself, uncopied, when
        `r.den` is `den` already. Over GF(p), `den` is 1 and each image is
        the stored `r.coeffs`."""
        is_dict = isinstance(polys, dict)
        if self.characteristic:
            if is_dict:
                return 1, {i: r.coeffs for i, r in polys.items()}
            return 1, tuple([r.coeffs for r in polys])
        rs = polys.values() if is_dict else polys
        den, images = lcm(*{r.den for r in rs}), []
        for r in rs:
            m = den // r.den
            images.append(r.num if m == 1 else [m * c for c in r.num])
        if is_dict:
            return den, dict(zip(polys, images))
        return den, tuple(images)

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
