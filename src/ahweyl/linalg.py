"""Small exact linear algebra over a FieldSpec (dense row reduction).

Vectors are lists of field scalars; everything is tiny (dimensions in the
tens), so plain Gaussian elimination is plenty.
"""

from __future__ import annotations

from .fields import FieldSpec


def _pad(vec, n, zero):
    return list(vec) + [zero] * (n - len(vec))


class LinearSolver:
    """Incremental echelon basis with expression tracking.

    add(v) inserts a generator; express(w) returns coefficients c with
    w = sum c_i * generator_i, or None if w is outside the span.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = []  # (pivot index, reduced row, combination over generators)
        self.n_gens = 0
        self.width = 0

    def _reduce(self, vec, combo):
        F = self.field
        vec = list(vec)
        if len(vec) < self.width:
            vec = _pad(vec, self.width, F.zero())
        elif len(vec) > self.width:
            self.width = len(vec)
            for row in self.rows:
                row[1].extend(F.zero() for _ in range(self.width - len(row[1])))
        for pivot, row, rcombo in self.rows:
            c = vec[pivot]
            if F.is_zero(c):
                continue
            for k in range(self.width):
                vec[k] = F.sub(vec[k], F.mul(c, row[k]))
            for g, cc in rcombo.items():
                combo[g] = F.sub(combo.get(g, F.zero()), F.mul(c, cc))
        return vec, combo

    def add(self, vec) -> bool:
        """Insert a generator; returns True if it enlarged the span."""
        F = self.field
        g = self.n_gens
        self.n_gens += 1
        vec, combo = self._reduce(vec, {g: F.one()})
        pivot = next((i for i, c in enumerate(vec) if not F.is_zero(c)), None)
        if pivot is None:
            return False
        inv = F.inv(vec[pivot])
        vec = [F.mul(inv, c) for c in vec]
        combo = {k: F.mul(inv, c) for k, c in combo.items()}
        self.rows.append([pivot, vec, combo])
        self.rows.sort(key=lambda r: r[0])
        return True

    def express(self, vec):
        """Coefficients over the added generators, or None if not in span."""
        F = self.field
        vec, combo = self._reduce(list(vec), {})
        if any(not F.is_zero(c) for c in vec):
            return None
        out = [F.zero()] * self.n_gens
        for g, c in combo.items():
            out[g] = F.neg(c)
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)


def nullspace(field: FieldSpec, rows, n_cols: int):
    """Basis of the right kernel of the matrix with the given rows."""
    F = field
    # RREF of the matrix
    mat = [_pad(r, n_cols, F.zero()) for r in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        sel = next((i for i in range(r, len(mat)) if not F.is_zero(mat[i][c])), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not F.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [F.zero()] * n_cols
        v[free] = F.one()
        for row_idx, pc in enumerate(pivots):
            v[pc] = F.neg(mat[row_idx][free])
        basis.append(v)
    return basis
