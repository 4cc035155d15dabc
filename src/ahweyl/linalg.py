"""Exact linear dependencies among vectors over a FieldSpec.

One routine, `relations`, row-reduces the matrix whose columns are the
given vectors and reports, vector by vector, whether it enlarges the span
of the ones before it and, if not, the one relation expressing it over the
independent ones before it. Every linear-algebra question in the package
reads its answer off that list:

* a kernel basis of the map sending e_k to v_k is the relations that are
  not None;
* "does v enlarge the span?" is "is its relation None?";
* the coordinates of w over the earlier vectors are the negated relation
  of w, appended last.

Vectors are sequences of field scalars and may have different lengths
(missing entries are zero). Everything is small (dimensions in the tens to
a few hundred), so plain Gaussian elimination is plenty.
"""

from __future__ import annotations

from bisect import insort

from .fields import FieldSpec


def relations(field: FieldSpec, vectors) -> list:
    """Per vector v_k: None if v_k is not in the span of v_0, ..., v_(k-1),
    otherwise the list c (one entry per vector) with sum_i c_i v_i = 0,
    c_k = 1, and c_i = 0 for every i > k and every dependent i.

    The independent vectors before v_k are a basis of the span of all
    vectors before it, so that relation is unique."""
    F = field
    zero = F.zero()
    vectors = [list(v) for v in vectors]
    width = max(map(len, vectors), default=0)
    rows = []  # (pivot, row, combination), sorted by pivot; row is zero before pivot
    out = []
    for k, vec in enumerate(vectors):
        vec.extend([zero] * (width - len(vec)))
        combo = {k: F.one()}
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if F.is_zero(c):
                continue
            for m in range(pivot, width):
                if not F.is_zero(row[m]):
                    vec[m] = F.sub(vec[m], F.mul(c, row[m]))
            for g, cg in row_combo.items():
                combo[g] = F.sub(combo.get(g, zero), F.mul(c, cg))
        pivot = next((m for m, c in enumerate(vec) if not F.is_zero(c)), None)
        if pivot is None:
            relation = [zero] * len(vectors)
            for g, cg in combo.items():
                relation[g] = cg
            out.append(relation)
            continue
        inv = F.inv(vec[pivot])
        row = [F.mul(inv, c) for c in vec]
        insort(rows, (pivot, row, {g: F.mul(inv, cg) for g, cg in combo.items()}))
        out.append(None)
    return out
