"""Two-variable polynomials over F in the center coordinates (t1, t2).

In characteristic p the center of A_h is F[t1, t2] with t1 = x^p and
t2 = zeta = h^p y^p; derivations of the center are A*d/dt1 + B*d/dt2 with
A, B in F[t1, t2]. CenterPoly is the exact coefficient container for these.
Coefficients are canonical field scalars and no zero one is stored; the
ring operations follow the reduce-once rule of `poly` (raw values, one
`FieldSpec.reduce` per result, the trusted `CenterPoly._canonical`).
"""

from __future__ import annotations

from .fields import FieldSpec, check_same_field
from .poly import Poly, _join_terms, _power_text, _term_printer


class CenterPoly:
    """Element of F[t1, t2], stored as {(i, j): scalar} for t1^i t2^j."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=None):
        clean = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                c = field.coerce(c)
                if c:
                    clean[(i, j)] = c
        self.field = field
        self.coeffs = clean

    @classmethod
    def _canonical(cls, field: FieldSpec, coeffs: dict) -> "CenterPoly":
        """Trusted constructor: the values are canonical scalars of `field`;
        only the zero ones are dropped."""
        out = object.__new__(cls)
        out.field = field
        out.coeffs = {k: c for k, c in coeffs.items() if c}
        return out

    @classmethod
    def _reduced(cls, field: FieldSpec, raw: dict) -> "CenterPoly":
        """Trusted constructor from raw sums and products of field scalars."""
        return cls._canonical(field, dict(zip(raw, field.reduce(raw.values()))))

    @classmethod
    def zero(cls, field: FieldSpec) -> "CenterPoly":
        return cls(field)

    @classmethod
    def one(cls, field: FieldSpec) -> "CenterPoly":
        return cls(field, {(0, 0): 1})

    @classmethod
    def t1(cls, field: FieldSpec, n: int = 1) -> "CenterPoly":
        return cls(field, {(n, 0): 1})

    @classmethod
    def t2(cls, field: FieldSpec, n: int = 1) -> "CenterPoly":
        return cls(field, {(0, n): 1})

    @classmethod
    def from_t1_poly(cls, w: Poly) -> "CenterPoly":
        """Lift a one-variable polynomial w(u) to w(t1)."""
        return cls._canonical(w.field, {(i, 0): c for i, c in enumerate(w.coeffs)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, CenterPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if not isinstance(other, CenterPoly):
            raise TypeError(f"expected CenterPoly, got {type(other).__name__}")
        check_same_field(self.field, other.field)

    def __add__(self, other: "CenterPoly") -> "CenterPoly":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return CenterPoly._reduced(self.field, out)

    def __sub__(self, other: "CenterPoly") -> "CenterPoly":
        return self + (-other)

    def __neg__(self) -> "CenterPoly":
        return CenterPoly._reduced(self.field, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "CenterPoly") -> "CenterPoly":
        self._check(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
        return CenterPoly._reduced(self.field, out)

    def d_dt1(self) -> "CenterPoly":
        raw = {(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i}
        return CenterPoly._reduced(self.field, raw)

    def d_dt2(self) -> "CenterPoly":
        raw = {(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j}
        return CenterPoly._reduced(self.field, raw)

    def t2_degree(self) -> int:
        return max((j for (_, j) in self.coeffs), default=-1)

    def t2_coefficient(self, j: int) -> Poly:
        """Coefficient of t2^j as a one-variable polynomial in t1."""
        return Poly.from_coeff_dict(
            self.field, {i: c for (i, jj), c in self.coeffs.items() if jj == j}
        )

    @classmethod
    def from_t2_coefficients(cls, field: FieldSpec, parts) -> "CenterPoly":
        out = {}
        for j, w in enumerate(parts):
            for i, c in enumerate(w.coeffs):
                out[(i, j)] = c
        return cls._canonical(field, out)

    def exact_div_t1(self, w: Poly) -> "CenterPoly":
        """Exact division by a polynomial in t1 alone."""
        if w.is_zero():
            raise ZeroDivisionError("division by zero")
        parts = []
        for j in range(self.t2_degree() + 1):
            parts.append(self.t2_coefficient(j).exact_div(w))
        return CenterPoly.from_t2_coefficients(self.field, parts)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        term = _term_printer(self.field)
        return _join_terms(
            term(c, "*".join(filter(None, (_power_text("t1", i), _power_text("t2", j)))))
            for (i, j), c in sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        )

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"CenterPoly({self.field}, {self.to_text()!r})"
