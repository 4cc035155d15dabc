"""Two-variable polynomials over F in the center coordinates (t1, t2).

In characteristic p the center of A_h is F[t1, t2] with t1 = x^p and
t2 = zeta = h^p y^p; derivations of the center are A*d/dt1 + B*d/dt2 with
A, B in F[t1, t2]. CenterPoly is the exact coefficient container for these,
in the row form of a Weyl element: sum_j r_j(t1) t2^j stored as {j: r_j},
every r_j a nonzero `Poly` in t1. The container `weyl._Rows` gives it the
additive structure, equality and `shift` (the product by t2^n); the
product sums raw rows through the convolution loop of the Weyl product and
reduces each row once, by the polynomial kernel. It prints each row r_j
through the printing kernel of its field (`Poly._terms_text`), with t2^j
as the suffix of every term.
"""

from __future__ import annotations

from .fields import FieldSpec
from .poly import Poly, _monomials, _signed
from .weyl import _Rows, _accumulate


class CenterPoly(_Rows):
    """Element of F[t1, t2], stored as {j: r_j} for sum_j r_j(t1) t2^j."""

    __slots__ = ()

    _negative = "negative exponent"

    def __init__(self, field: FieldSpec, coeffs=None):
        """The polynomial sum c t1^i t2^j over the items ((i, j), c) of `coeffs`."""
        rows = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                rows.setdefault(j, {})[i] = field.coerce(c)
        self.field = field
        self.terms = {j: r for j, row in rows.items() if (r := Poly.from_coeff_dict(field, row))}

    @classmethod
    def one(cls, field: FieldSpec) -> "CenterPoly":
        return cls.from_term(Poly.one(field), 0)

    @classmethod
    def t1(cls, field: FieldSpec, n: int = 1) -> "CenterPoly":
        return cls.from_term(Poly.monomial(field, 1, n), 0)

    @classmethod
    def t2(cls, field: FieldSpec, n: int = 1) -> "CenterPoly":
        return cls.from_term(Poly.one(field), n)

    @classmethod
    def from_t1_poly(cls, w: Poly) -> "CenterPoly":
        """Lift a one-variable polynomial w(u) to w(t1)."""
        return cls.from_term(w, 0)

    @classmethod
    def from_t2_coefficients(cls, field: FieldSpec, parts) -> "CenterPoly":
        """sum_j parts[j](t1) t2^j."""
        return cls._canonical(field, {j: w for j, w in enumerate(parts) if w})

    def __mul__(self, other: "CenterPoly") -> "CenterPoly":
        self._check(other)
        da, a = self.field.lift(self.terms)
        db, b = self.field.lift(other.terms)
        rows = {}  # t2-degree -> raw coefficients of its t1-polynomial
        for j1, r1 in a.items():
            for j2, r2 in b.items():
                _accumulate(rows, j1 + j2, r1, r2)
        return CenterPoly._from_rows(self.field, rows, da * db)

    def d_dt1(self) -> "CenterPoly":
        terms = {j: d for j, r in self.terms.items() if (d := r.derivative())}
        return CenterPoly._canonical(self.field, terms)

    def d_dt2(self) -> "CenterPoly":
        return self._d_dv()

    def exact_div_t1(self, w: Poly) -> "CenterPoly":
        """Exact division by a polynomial in t1 alone."""
        if w.is_zero():
            raise ZeroDivisionError("division by zero")
        return CenterPoly._canonical(self.field, {j: r.exact_div(w) for j, r in self.terms.items()})

    def to_text(self) -> str:
        """Terms in increasing t2-degree, then t1-degree, e.g. '1 + t1*t2^2'."""
        terms = self.terms
        if not terms:
            return "0"
        t2 = _monomials("t2", max(terms) + 1)
        return _signed("".join(terms[j]._terms_text("t1", t2[j]) for j in sorted(terms)))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"CenterPoly({self.field}, {self.to_text()!r})"
