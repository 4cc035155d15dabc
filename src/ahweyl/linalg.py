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
(missing entries are zero); the relations hold canonical scalars (see
`fields`). Everything is small (dimensions in the tens to a few hundred),
so plain Gaussian elimination is plenty. As in `poly`, the elimination runs
on raw values: a vector entry is reduced when it is read as a pivot entry,
and a vector and its combination once the vector is eliminated.
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
    reduce = F.reduce
    zero = F.zero()
    vectors = [list(v) for v in vectors]
    width = max(map(len, vectors), default=0)
    rows = []  # (pivot, row, combination), sorted by pivot; row is zero before pivot
    out = []
    for k, vec in enumerate(vectors):
        vec.extend([zero] * (width - len(vec)))
        combo = {k: F.one()}  # raw, like vec
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if c:  # a raw 0 is 0; any other raw value is reduced before the test
                (c,) = reduce((c,))
            if not c:
                continue
            vec[pivot:] = [v - c * r if r else v for v, r in zip(vec[pivot:], row[pivot:])]
            for g, cg in row_combo.items():
                combo[g] = combo[g] - c * cg if g in combo else -c * cg
        vec = reduce(vec)
        combo = dict(zip(combo, reduce(combo.values())))
        pivot = next((m for m, c in enumerate(vec) if c), None)
        if pivot is None:
            relation = [zero] * len(vectors)
            for g, cg in combo.items():
                relation[g] = cg
            out.append(relation)
            continue
        inv = F.inv(vec[pivot])
        row = reduce([inv * c for c in vec])
        insort(rows, (pivot, row, dict(zip(combo, reduce([inv * cg for cg in combo.values()])))))
        out.append(None)
    return out
