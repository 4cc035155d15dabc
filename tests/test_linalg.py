"""Exact linear dependencies: `relations` against sympy's rank."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF, QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from ahweyl.fields import FieldSpec, QQ
from ahweyl.linalg import relations


def sympy_rank(field, vectors):
    """Rank of the matrix whose columns are the (zero-padded) vectors."""
    width = max(map(len, vectors), default=0)
    if not vectors or not width:
        return 0
    dom = SYMPY_QQ if field.is_char_zero else GF(field.p)
    rows = [
        [dom(int(v[r])) if r < len(v) else dom(0) for v in vectors] for r in range(width)
    ]
    return DomainMatrix(rows, (width, len(vectors)), dom).rank()


def combination(field, coeffs, vectors):
    width = max(map(len, vectors), default=0)
    out = [field.zero()] * width
    for c, v in zip(coeffs, vectors):
        for r, entry in enumerate(v):
            out[r] += c * entry
    return field.reduce(out)


@given(
    p=st.sampled_from([0, 2, 3, 5, 7]),
    raw=st.lists(st.lists(st.integers(-3, 3), max_size=5), max_size=7),
)
@settings(max_examples=150, deadline=None)
def test_relations_match_sympy_rank(p, raw):
    F = FieldSpec(p)
    vectors = [[F.coerce(c) for c in v] for v in raw]
    rels = relations(F, vectors)
    assert len(rels) == len(vectors)
    assert sum(rel is not None for rel in rels) == len(vectors) - sympy_rank(F, vectors)
    dependent = {k for k, rel in enumerate(rels) if rel is not None}
    for k, rel in enumerate(rels):
        # None exactly when v_k enlarges the span of the vectors before it
        grows = sympy_rank(F, vectors[: k + 1]) > sympy_rank(F, vectors[:k])
        assert (rel is None) == grows
        if rel is None:
            continue
        assert len(rel) == len(vectors)
        assert rel[k] == F.one()
        assert not any(rel[k + 1 :])
        assert not any(rel[i] for i in dependent - {k})
        assert not any(combination(F, rel, vectors))


def test_empty_and_zero_vectors():
    assert relations(QQ, []) == []
    assert relations(QQ, [[]]) == [[1]]
    assert relations(QQ, [[], [0, 0], [1]]) == [[1, 0, 0], [0, 1, 0], None]


def test_ragged_coordinates_over_q():
    # w = 2*(1, 1) - 1/2*(0, 2, 4) + 0*(2, 2) read off the relation of w
    F = QQ
    vectors = [[1, 1], [0, 2, 4], [2, 2], [2, 1, -2]]
    vectors = [[F.coerce(c) for c in v] for v in vectors]
    rels = relations(F, vectors)
    assert rels[:2] == [None, None]
    assert rels[2] == [-2, 0, 1, 0]
    assert [-c for c in rels[3]][:3] == [2, Fraction(-1, 2), 0]
