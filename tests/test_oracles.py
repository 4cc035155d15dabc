"""Independent oracles.

The Weyl algebra acts faithfully on F[x] in characteristic 0 as differential
operators (sum r_i y^i acts by f -> sum r_i f^(i)); that action is
implemented here directly from the derivative, with no use of the package's
normal-ordering formula, so comparing module actions cross-checks the
product from the outside. Polynomial gcd and squarefree decomposition are
cross-checked against sympy.

Over Q a polynomial holds integer numerators over one denominator
(`poly.QPoly`). Its ring and calculus operations are checked against the
coefficient-wise Fraction arithmetic it replaced, on tuples of Fractions.

The package reorders y^i past a polynomial by one kernel over one Hasse
table (`weyl._add_reordered`, `weyl._hasse_rows`). The routes it replaced
are kept here as its oracles: the Weyl product over a derivative chain of
each right-hand term with cached binomials C(i, k), the closed form of
[yhat, a] over the lifted derivative chain of h with one binomial per
term (now the oracle of ad_a(yhat) = -[yhat, a], built from D(x) and
W = h D(y) by `derivations._from_w`), and d(f) over Hasse rows made of one
`math.comb` per coefficient. `d_on_poly` itself, which the package no
longer calls, is kept here as the oracle of the routes that replaced it:
the closed form K(u) = d(h) y + d(h') that reads P_0 = h D(y) off D(yhat)
and D(yhat) off P_0 (`AhContext._add_d_yhat`), and `Derivation.apply`,
whose sum is checked against the (i, k, j) row loop it replaced on both
sides of `derivations.PACKED_WORK`, and its packed sum (`_sum_pieces`)
against one multiply-add per coefficient pair.

A center polynomial is stored in the row form of a Weyl element,
{j: r_j(t1)} for sum_j r_j t2^j. The dict form {(i, j): scalar} it
replaced is kept here as its oracle (`DictCenterPoly`).
"""

import random
from fractions import Fraction
from math import comb, factorial, gcd, isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ahweyl.context import AhContext
from ahweyl import derivations
from ahweyl.derivations import AhAlgebraMap, Derivation, _from_w, _lift_elements, _sum_pieces, ad
from ahweyl.fields import ExactDivisionError, FieldSpec, QQ
from ahweyl.poly import Poly, QPoly, _pack
from ahweyl.weyl import WeylElement, _accumulate, _add_reordered, _hasse_rows, _reach, commutator

from test_poly import hasse_derivative

sympy = pytest.importorskip("sympy")


def random_poly(rng, field, max_deg=5):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(field)
    if field.is_char_zero:
        return Poly(field, [rng.randrange(-6, 7) for _ in range(deg + 1)])
    return Poly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def random_weyl(rng, field, max_ydeg=3, max_xdeg=3):
    terms = {}
    for i in range(max_ydeg + 1):
        r = random_poly(rng, field, max_xdeg)
        if not r.is_zero() and rng.random() < 0.8:
            terms[i] = r
    return WeylElement(field, terms)


def act(a: WeylElement, f: Poly) -> Poly:
    """The differential-operator action, straight from the derivative."""
    out = Poly.zero(f.field)
    for i, r in a.terms.items():
        out = out + r * f.derivative(i)
    return out


class TestDifferentialOperatorAction:
    def test_products_respect_the_action(self):
        rng = random.Random(80)
        for _ in range(40):
            a = random_weyl(rng, QQ)
            b = random_weyl(rng, QQ)
            f = random_poly(rng, QQ, 7)
            assert act(a * b, f) == act(a, act(b, f))

    def test_action_separates_low_degrees(self):
        # the defining relation through the action: (yx - xy) f = f
        rng = random.Random(81)
        yx = WeylElement.y_power(QQ, 1) * WeylElement.x_power(QQ, 1)
        xy = WeylElement.x_power(QQ, 1) * WeylElement.y_power(QQ, 1)
        for _ in range(10):
            f = random_poly(rng, QQ, 6)
            assert act(yx - xy, f) == f


def _to_sympy(f: Poly, x):
    return sum(sympy.Rational(c) * x**i for i, c in enumerate(f.coeffs))


def _from_sympy(expr, field, x):
    poly = sympy.Poly(expr, x)
    coeffs = {}
    for (i,), c in poly.terms():
        coeffs[i] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return Poly.from_coeff_dict(field, coeffs)


class TestSympyCrossChecks:
    def test_gcd_over_Q(self):
        rng = random.Random(82)
        x = sympy.Symbol("x")
        for _ in range(25):
            f = random_poly(rng, QQ, 6)
            g = random_poly(rng, QQ, 6)
            if f.is_zero() or g.is_zero():
                continue
            ours = f.gcd_monic(g)
            theirs = sympy.gcd(_to_sympy(f, x), _to_sympy(g, x), x)
            assert ours == _from_sympy(sympy.monic(theirs, x), QQ, x)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gcd_mod_p(self, p):
        rng = random.Random(83 + p)
        field = FieldSpec(p)
        x = sympy.Symbol("x")
        for _ in range(20):
            f = random_poly(rng, field, 6)
            g = random_poly(rng, field, 6)
            if f.is_zero() or g.is_zero():
                continue
            ours = f.gcd_monic(g)
            theirs = sympy.gcd(
                sympy.Poly([int(c) for c in reversed(f.coeffs)], x, modulus=p),
                sympy.Poly([int(c) for c in reversed(g.coeffs)], x, modulus=p),
            )
            their_coeffs = [int(c) % p for c in reversed(theirs.all_coeffs())]
            assert ours == Poly(field, their_coeffs).monic()

    def test_squarefree_over_Q(self):
        rng = random.Random(84)
        x = sympy.Symbol("x")
        for _ in range(15):
            f = Poly.one(QQ)
            for _ in range(rng.randrange(1, 4)):
                g = random_poly(rng, QQ, 2)
                if g.is_zero() or g.is_constant():
                    continue
                f = f * g ** rng.randrange(1, 4)
            if f.is_constant():
                continue
            ours = {m: g for g, m in f.squarefree_decomposition()}
            _, theirs = sympy.sqf_list(_to_sympy(f.monic(), x), x)
            theirs = {int(m): _from_sympy(sympy.monic(g, x), QQ, x) for g, m in theirs}
            assert ours == theirs

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_squarefree_mod_p(self, p):
        rng = random.Random(85 + p)
        field = FieldSpec(p)
        x = sympy.Symbol("x")
        for _ in range(15):
            f = Poly.one(field)
            for _ in range(rng.randrange(1, 4)):
                g = random_poly(rng, field, 2)
                if g.is_zero() or g.is_constant():
                    continue
                f = f * g ** rng.randrange(1, p + 2)
            if f.is_constant():
                continue
            ours = {m: g for g, m in f.squarefree_decomposition()}
            _, theirs = sympy.sqf_list(
                sympy.Poly([int(c) for c in reversed(f.monic().coeffs)], x, modulus=p)
            )
            got = {}
            for g, m in theirs:
                coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
                q = Poly(field, coeffs).monic()
                got[int(m)] = got[int(m)] * q if int(m) in got else q
            assert ours == got

# ---------------------------------------------------------------------------
# the reordering kernel against the routes it replaced
# ---------------------------------------------------------------------------


def lifted_chain(h):
    """(dh, (h, h', h'', ...)): the derivative chain of h while nonzero, lifted
    over one denominator dh (`FieldSpec.lift`)."""
    chain = [h]
    while d := chain[-1].derivative():
        chain.append(d)
    return h.field.lift(tuple(chain))


def raw_derivative(F, s):
    """The derivative of raw (lifted) coefficients s, reduced and trimmed."""
    row = F.reduce([i * c for i, c in enumerate(s[1:], 1)])
    while row and not row[-1]:
        row.pop()
    return row


def chain_product(a, b):
    """Oracle: a * b with y^i s = sum_k C(i, k) s^(k) y^(i-k), over one
    derivative chain of each term s of b, shared by every term of a, and
    the binomials C(i, k) in F cached per i. In characteristic p, Lucas
    gives C(i, k) = C(i mod p, k) for k < p, and s^(k) = 0 for k >= p."""
    F = a.field
    da, lhs = F.lift(a.terms)
    db, rhs = F.lift(b.terms)
    p = F.characteristic
    top = max((i % p if p else i for i in lhs), default=0)
    binomials = {i: [] for i in lhs}  # C(i, k) in F, as far as a chain has reached
    rows = {}
    for j, s in rhs.items():
        chain = [s]  # s^(k) for k <= top, while nonzero
        while len(chain) <= top and (d := raw_derivative(F, chain[-1])):
            chain.append(d)
        for i, r in lhs.items():
            row = binomials[i]
            if len(row) < (n := min(i + 1, len(chain))):
                row += F.reduce([comb(i, k) for k in range(len(row), n)])
            for k, (bk, d) in enumerate(zip(row, chain)):
                if bk:
                    rc = r if bk == 1 else [bk * c for c in r]
                    _accumulate(rows, i - k + j, rc, d)
    return WeylElement._from_rows(F, rows, da * db)


def yhat_bracket_by_chain(ctx, a):
    """Oracle: [yhat, r y^j] = (h r' + h' r) y^j - sum_{k >= 1} C(j+1, k) r
    h^(k) y^(j+1-k) over the lifted derivative chain of h; in
    characteristic p, Lucas gives C(j+1, k) = C((j+1) mod p, k)."""
    F = ctx.field
    p = F.characteristic
    dh, chain = lifted_chain(ctx.h)
    da, terms = F.lift(a.terms)
    rows = {}
    for j, rc in terms.items():
        _accumulate(rows, j, chain[0], [i * c for i, c in enumerate(rc[1:], 1)])
        if len(chain) > 1:
            _accumulate(rows, j, chain[1], rc)
        jp = (j + 1) % p if p else j + 1
        for k in range(1, min(jp, len(chain) - 1) + 1):
            _accumulate(rows, j + 1 - k, [-comb(jp, k) * c for c in chain[k]], rc)
    return WeylElement._from_rows(F, rows, da * dh)


def d_on_poly(f, u):
    """The unique derivation d of F[x] into A_1 with d(x) = u, applied to f.

    Closed form: with H_m the m-th Hasse derivative,

        d(f) = sum_{l >= 0} H_(l+1)(f) (-ad x)^l(u),
        (-ad x)^l(r y^j) = j!/(j-l)! r y^(j-l).

    Derivation: d(x^n) = sum_k x^k u x^(n-1-k). Moving x^m to the left of
    u gives u x^m = sum_l C(m, l) x^(m-l) (-ad x)^l(u), and
    sum_k C(n-1-k, l) = C(n, l+1), so d(x^n) = sum_l C(n, l+1) x^(n-1-l)
    (-ad x)^l(u). Only integer binomials enter, so this holds in
    characteristic p too. For the term r y^j the sum stops at l = j, or
    once the falling factorial j!/(j-l)! is 0 in F. A zero H_(l+1)(f) is no
    reason to stop: over GF(2), H_1(1 + x^2) = 0 but H_2(1 + x^2) = 1.

    The package reads d(f) in closed forms of its own (`Derivation.apply`,
    `AhContext._add_d_yhat`); this is their oracle on the lifted rows,
    summed by `add_d_on_poly`."""
    F = u.field
    df, (fc,) = F.lift((f,))
    du, terms = F.lift(u.terms)
    rows = {}
    add_d_on_poly(F, rows, fc, terms)
    return WeylElement._from_rows(F, rows, df * du)


def add_d_on_poly(F, rows: dict, fc, terms: dict, shift: int = 0) -> None:
    """rows += d(f) y^shift for d(x) = u, on raw coefficients: fc are those
    of f and terms the {j: coefficients} of u, lifted over Q (`d_on_poly`).
    The table H_1(f), H_2(f), ... is built as far as the falling factorials
    (j)_l of the y-degrees of u reach, and `weyl._add_reordered` sums every
    piece (j)_l H_(l+1)(f) r_j into the raw row of y-degree j - l + shift."""
    p = F.characteristic
    _add_reordered(rows, terms, _hasse_rows(F, fc, 1, _reach(terms, p) + 2), shift, p)


def binomial_sum_by_rows(ctx, a, images, derivation=False):
    """Oracle: `derivations._binomial_sum` as the row loop it replaced, one
    `_accumulate` per (i, k, j) row triple as each row is made, and for a
    derivation the k = 0 piece d(f_i) y^i by `add_d_on_poly`, with its
    Hasse table of f_i and falling factorials made again for every i."""
    F = ctx.field
    p = F.characteristic
    gs = {i: ctx.over_h_power(a.terms[i], i) for i in sorted(a.terms, reverse=True)}
    if not gs:
        return WeylElement.zero(F)
    top = max(gs)
    den, terms = _lift_elements(F, images(top))
    dg, lifted = F.lift(tuple(gs.values()))
    dh, (hc,) = ctx.h_hasse(1)
    rows = {}
    for (i, g), gc in zip(gs.items(), lifted):
        for k in range(min(i, len(terms) - 1), -1, -1):
            s = i - k
            b = comb(i, k) % p if p else comb(i, k)
            if not b:
                continue
            t = list(gc)
            for _ in range(s):
                step = [0] * (len(t) + len(hc) - 1)
                for m, c in enumerate(t):
                    for n, e in enumerate(hc, m):
                        step[n] += c * e
                t = step
            bt = [b * dh ** (top - s) * c for c in t]
            if k or not derivation:
                for j, r in terms[k].items():
                    _accumulate(rows, j + s, bt, r)
            else:
                add_d_on_poly(F, rows, bt, terms[0], i)
    return WeylElement._from_rows(F, rows, dg * den * dh**top)


def apply_by_rows(d, a):
    """Oracle: `Derivation.apply` through `binomial_sum_by_rows`, over the
    same T_k = P_(k-1) (`Derivation.dy_numerators`)."""
    p = d.context.field.characteristic

    def images(top):
        count = min(top, p) if p else top
        return [d.image_x, *d.dy_numerators(count)[:count]]

    return binomial_sum_by_rows(d.context, a, images, derivation=True)


def p0_by_d_on_poly(d):
    """Oracle: P_0 = W = D(yhat) - d(h) y - d(h') by two `d_on_poly` calls,
    a shift and two element subtractions, the route `dy_numerators`
    replaced by its closed form (`AhContext._add_d_yhat`)."""
    ctx = d.context
    w = d.image_yhat - d_on_poly(ctx.h, d.image_x).shift(1)
    return w - d_on_poly(ctx.h.derivative(), d.image_x)


def d_on_poly_by_comb(f, u):
    """Oracle: d(f) = sum_l H_(l+1)(f) (j)_l r y^(j-l) over the terms r y^j
    of u = d(x), with every Hasse coefficient C(n, l+1) c_n made by
    `math.comb`."""
    F = u.field
    p = F.characteristic
    df, (fc,) = F.lift((f,))
    du, terms = F.lift(u.terms)
    hasse = [
        F.reduce([comb(n, l + 1) * c for n, c in enumerate(fc[l + 1 :], l + 1)])
        for l in range(min(len(fc) - 1, max(terms, default=-1) + 1))
    ]
    rows = {}
    for j, r in terms.items():
        falling = 1  # (j)_l, in F
        for l, hf in enumerate(hasse[: j + 1]):
            if not falling:
                break
            if any(hf):
                _accumulate(rows, j - l, [falling * c for c in hf], r)
            falling = falling * (j - l) % p if p else falling * (j - l)
    return WeylElement._from_rows(F, rows, df * du)


FIELDS = [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)]
ALL_FIELDS = [*FIELDS, FieldSpec(7)]


@st.composite
def polys(draw, field, max_deg, min_deg=-1):
    """A Poly of degree at most max_deg; over Q with signed fractions."""
    deg = draw(st.integers(min_deg, max_deg))
    if field.is_char_zero:
        scalar = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    else:
        scalar = st.integers(0, field.p - 1)
    return Poly(field, draw(st.lists(scalar, min_size=deg + 1, max_size=deg + 1)))


@st.composite
def weyls(draw, field, max_ydeg=11, max_xdeg=5):
    """A Weyl element whose y-degrees reach past p and 2p for p <= 5."""
    degrees = draw(st.sets(st.integers(0, max_ydeg), max_size=4))
    return WeylElement(field, {j: draw(polys(field, max_xdeg)) for j in degrees})


@given(data=st.data(), field=st.sampled_from(FIELDS))
@settings(max_examples=120, deadline=None)
def test_weyl_product_matches_the_chain_oracle(data, field):
    a, b = data.draw(weyls(field)), data.draw(weyls(field))
    assert a * b == chain_product(a, b)
    assert b * a == chain_product(b, a)


@given(data=st.data(), field=st.sampled_from(ALL_FIELDS))
@settings(max_examples=120, deadline=None)
def test_yhat_bracket_matches_the_chain_oracle(data, field):
    # deg h up to 8 >= 2p for p <= 3, so H_k(h) with k >= p is in the table;
    # a is any element of A_1: ad_a(yhat) = [a, yhat] from (D(x), W) =
    # ([a, x], h [a, y]), W by a general product
    h = data.draw(polys(field, 8, 0).filter(lambda f: not f.is_zero()))
    a = data.draw(weyls(field))
    ctx = AhContext(h)
    w = WeylElement.from_poly(h) * commutator(a, WeylElement.y_power(field, 1))
    got = _from_w(ctx, commutator(a, ctx.x_elt), w)
    assert got.image_yhat == -yhat_bracket_by_chain(ctx, a)
    assert got.dy_numerators(1) == [w]


@given(data=st.data(), field=st.sampled_from(FIELDS))
@settings(max_examples=120, deadline=None)
def test_d_on_poly_matches_the_comb_oracle(data, field):
    f, u = data.draw(polys(field, 12)), data.draw(weyls(field))
    assert d_on_poly(f, u) == d_on_poly_by_comb(f, u)


def test_d_on_poly_reads_past_a_zero_hasse_row():
    # H_1(1 + x^2) = 0 but H_2(1 + x^2) = 1 over GF(2): d(x) = y^3 gives
    # d(1 + x^2) = (3)_1 H_2 y^2 = y^2
    F = FieldSpec(2)
    f, u = Poly(F, [1, 0, 1]), WeylElement.y_power(F, 3)
    assert d_on_poly(f, u) == d_on_poly_by_comb(f, u) == WeylElement.y_power(F, 2)


def sum_pieces_by_triples(pieces, operands):
    """Oracle: `derivations._sum_pieces` as a multiply-add per coefficient
    pair of each (piece, operand row), trimmed, zero rows dropped."""
    out = {}
    for s, k, row in pieces:
        for j, r in operands[k].items():
            acc = out.setdefault(j + s, {})
            for m, a in enumerate(row):
                for n, b in enumerate(r):
                    acc[m + n] = acc.get(m + n, 0) + a * b
    return trimmed({d: [acc.get(m, 0) for m in range(max(acc, default=-1) + 1)] for d, acc in out.items()})


def trimmed(rows):
    """Raw rows without trailing zeros, the zero rows dropped."""
    out = {}
    for d, row in rows.items():
        row = list(row)
        while row and not row[-1]:
            row.pop()
        if row:
            out[d] = row
    return out


@st.composite
def raw_pieces(draw):
    """(pieces, operands, signed): signed values as large as the lifted
    numerators over Q, or residues and unreduced sums and products of
    residues over GF(p); rows may be empty or all zero, operands empty."""
    signed = draw(st.booleans())
    if signed:
        value = st.integers(-9, 9) | st.integers(-(10**40), 10**40)
    else:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        value = st.integers(0, p - 1) | st.integers(0, p**3)
    row = st.lists(value, max_size=9) | st.lists(st.just(0), max_size=3)
    operands = draw(st.lists(st.dictionaries(st.integers(0, 5), row, max_size=4), min_size=1, max_size=4))
    index = st.integers(0, len(operands) - 1)
    pieces = draw(st.lists(st.tuples(st.integers(0, 5), index, row), max_size=6))
    return pieces, operands, signed


@pytest.mark.parametrize("work", [0, 10**9], ids=["packed", "row loop"])
@given(case=raw_pieces())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sum_pieces_matches_the_triple_loop(work, case, monkeypatch):
    monkeypatch.setattr(derivations, "PACKED_WORK", work)
    pieces, operands, signed = case
    assert trimmed(_sum_pieces(pieces, operands, signed)) == sum_pieces_by_triples(pieces, operands)


@pytest.mark.parametrize("signed", [False, True])
def test_sum_pieces_at_the_slot_boundaries(signed, monkeypatch):
    # outputs c^2 and 2 c^2 just under and over each power of two, where
    # a slot one bit short (the sign bit over Q) would wrap; the bound is
    # within a few c of the largest output
    monkeypatch.setattr(derivations, "PACKED_WORK", 0)
    for bits in range(1, 140):
        for c in {isqrt(2**bits - 1), isqrt(2**bits) + 1}:
            for a, b in [(c, c), (-c, c), (c, -c)] if signed else [(c, c)]:
                for pieces in ([(0, 0, [a])], [(0, 0, [a]), (1, 0, [0, a])]):
                    operands = [{0: [b], 1: [0, b]}]
                    want = sum_pieces_by_triples(pieces, operands)
                    assert trimmed(_sum_pieces(pieces, operands, signed)) == want, (bits, a, b)


@pytest.mark.parametrize("below", [True, False], ids=["below the threshold", "at the threshold"])
@pytest.mark.parametrize("signed", [False, True])
def test_sum_pieces_packs_from_the_threshold_on(below, signed, monkeypatch):
    # one piece of PACKED_WORK or PACKED_WORK - 1 multiply-adds: a row of
    # that many nonzero values times an operand of one value
    packs = []
    monkeypatch.setattr(derivations, "_pack", lambda *args: packs.append(args) or _pack(*args))
    n = derivations.PACKED_WORK - below
    row = [(-1) ** m * (m % 7 + 1) if signed else m % 7 + 1 for m in range(n)]
    pieces, operands = [(2, 0, row), (0, 1, [])], [{1: [5 if signed else 3]}, {}]
    got = _sum_pieces(pieces, operands, signed)
    assert bool(packs) != below
    assert trimmed(got) == sum_pieces_by_triples(pieces, operands)


@pytest.mark.parametrize("below", [True, False], ids=["below the threshold", "at the threshold"])
def test_sum_pieces_counts_the_nonzero_values_of_a_row(below, monkeypatch):
    # a row nonzero only at multiples of p = 5, like g h^s with s >= p, as
    # h^p = h(x^p): PACKED_WORK - 1 or PACKED_WORK nonzero values in a row
    # some 5 times longer. The row loop skips a zero value, so the nonzero
    # count, not the length, decides the route
    packs = []
    monkeypatch.setattr(derivations, "_pack", lambda *args: packs.append(args) or _pack(*args))
    n = derivations.PACKED_WORK - below
    row = [0] * (5 * n - 4)
    row[::5] = [m % 4 + 1 for m in range(n)]
    pieces, operands = [(1, 0, row)], [{2: [3]}]
    got = _sum_pieces(pieces, operands, False)
    assert bool(packs) != below
    assert trimmed(got) == sum_pieces_by_triples(pieces, operands)


@st.composite
def derivation_cases(draw):
    """(d, a): a Derivation with arbitrary images (apply and P_0 do not
    need the criterion) over h of degree 0 to 5, most often 0, 1 or 2,
    where the Hasse table of h is shorter than 3, and a in A_h."""
    field = draw(st.sampled_from(ALL_FIELDS))
    deg = draw(st.sampled_from([0, 1, 2, 2, 3, 5]))
    h = draw(polys(field, deg, deg))
    assume(not h.is_zero())
    ctx = AhContext(h)
    u, v = draw(weyls(field, 9, 4)), draw(weyls(field, 9, 4))
    rows = draw(st.dictionaries(st.integers(0, 4), polys(field, 3), max_size=3))
    a = WeylElement(field, {i: r * ctx.h_power(i) for i, r in rows.items()})
    return Derivation(ctx, u, v), a


@pytest.mark.parametrize("work", [0, 10**9], ids=["packed", "row loop"])
@given(case=derivation_cases())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_apply_matches_the_row_loop(work, case, monkeypatch):
    monkeypatch.setattr(derivations, "PACKED_WORK", work)
    d, a = case
    assert d.apply(a) == apply_by_rows(d, a)


@given(case=derivation_cases(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_aut_packed_matches_the_row_loop(case, data):
    # phi_g sums its pieces by the same two routes; tests/test_derivations.py
    # checks it against the yhat-coordinate route
    _, a = case
    ctx = case[0].context
    phi = AhAlgebraMap(data.draw(polys(ctx.field, 4)), ctx)
    saved = derivations.PACKED_WORK
    try:
        derivations.PACKED_WORK = 0
        packed = phi.apply(a)
        derivations.PACKED_WORK = 10**9
        assert packed == phi.apply(a)
    finally:
        derivations.PACKED_WORK = saved


@given(case=derivation_cases())
@settings(max_examples=150, deadline=None)
def test_p0_closed_form_matches_two_d_on_poly_calls(case):
    d, _ = case
    assert d.dy_numerators(1)[0] == p0_by_d_on_poly(d)


@pytest.mark.parametrize("work", [0, 10**9], ids=["packed", "row loop"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("deg", [0, 1, 2, 4])
def test_p0_and_apply_where_j_plus_2_vanishes(p, deg, work, monkeypatch):
    # D(x) with terms only at y-degrees j = -2 mod p, where the factor j + 2
    # of the closed form of P_0 is 0 in F, beside one term where it is not
    monkeypatch.setattr(derivations, "PACKED_WORK", work)
    F = FieldSpec(p)
    rng = random.Random(f"{p}:{deg}")
    ctx = AhContext(Poly(F, [rng.randrange(1, p) for _ in range(deg + 1)]))
    for degrees in ([p - 2, 2 * p - 2], [p - 2, 2 * p - 2, p]):
        u = WeylElement(F, {j: random_poly(rng, F, 3) for j in degrees if j >= 0})
        d = Derivation(ctx, u, random_weyl(rng, F))
        assert d.dy_numerators(1)[0] == p0_by_d_on_poly(d)
        a = WeylElement(F, {i: random_poly(rng, F, 3) * ctx.h_power(i) for i in range(4)})
        assert d.apply(a) == apply_by_rows(d, a)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hasse_table_matches_the_oracle(field):
    # over GF(p), H_k with k >= p is read too; over Q the table of a lifted
    # h is dh H_k(h), and k! H_k(f) is sympy's k-th derivative
    rng = random.Random(86 + field.characteristic)
    x = sympy.Symbol("x")
    for _ in range(20):
        f = random_poly(rng, field, 12)
        table = _hasse_rows(field, f.coeffs, 0, 14)
        assert len(table) == len(f.coeffs)
        for k, row in enumerate(table):
            assert Poly(field, row) == hasse_derivative(f, k)
            if field.is_char_zero:
                want = sympy.diff(_to_sympy(f, x), x, k) / factorial(k)
                assert Poly(field, row) == _from_sympy(want, field, x) if want else not row
        if f.is_zero():
            continue
        ctx = AhContext(f)
        dh, hasse = ctx.h_hasse(14)
        assert [Poly(field, row).scale(Fraction(1, dh)) for row in hasse] == [
            hasse_derivative(f, k) for k in range(len(f.coeffs))
        ]


def test_context_builds_no_derivative_of_h_past_h_prime():
    # analyze reads h and h' only; ad(x), with D(x) = 0 and W = -h, gives
    # D(yhat) = -h and reads no Hasse row past H_1
    h = Poly(QQ, [1] * 40)
    ctx = AhContext(h)
    assert len(ctx._h_hasse) == 1
    assert ad(ctx.x_elt, ctx).image_yhat == WeylElement.from_poly(-h)
    assert len(ctx._h_hasse) == 2


# ---------------------------------------------------------------------------
# the Q kernel against coefficient-wise Fraction arithmetic
# ---------------------------------------------------------------------------


def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def fr_add(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def fr_neg(a):
    return tuple(-c for c in a)


def fr_scale(a, c):
    return trim(c * v for v in a)


def fr_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return trim(out)


def fr_divmod(a, b):
    """Schoolbook long division, one Fraction per step."""
    if len(a) < len(b):
        return (), a
    rem, q = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + len(b) - 1] / b[-1]
        for j, d in enumerate(b):
            rem[i + j] -= c * d
    return trim(q), trim(rem[: len(b) - 1])


def fr_monic(a):
    return tuple(c / a[-1] for c in a)


def fr_gcd_monic(a, b):
    while b:
        a, b = b, fr_divmod(a, b)[1]
    return fr_monic(a)


def fr_xgcd(a, b):
    r0, r1, s0, s1, t0, t1 = a, b, (Fraction(1),), (), (), (Fraction(1),)
    while r1:
        q = fr_divmod(r0, r1)[0]
        r0, r1 = r1, fr_add(r0, fr_neg(fr_mul(q, r1)))
        s0, s1 = s1, fr_add(s0, fr_neg(fr_mul(q, s1)))
        t0, t1 = t1, fr_add(t0, fr_neg(fr_mul(q, t1)))
    inv = 1 / r0[-1]
    return fr_scale(r0, inv), fr_scale(s0, inv), fr_scale(t0, inv)


def assert_q_canonical(f):
    assert type(f) is QPoly
    assert f.den > 0 and gcd(f.den, *f.num) == 1
    assert not f.num or f.num[-1]
    assert all(type(n) is int for n in f.num)
    assert f.coeffs == tuple(Fraction(n, f.den) for n in f.num)


# signed numerators of many digits, denominators from 1 up, and the
# leading coefficients -3/2, 0 and 1
Q_SCALARS = st.one_of(
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**25)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 12])),
    st.sampled_from([Fraction(-3, 2), Fraction(0), Fraction(1)]),
)
Q_LISTS = st.lists(Q_SCALARS, max_size=6)


@given(a=Q_LISTS, b=Q_LISTS, c=Q_SCALARS)
@settings(max_examples=300, deadline=None)
def test_q_kernel_matches_fraction_tuples(a, b, c):
    f, g = Poly(QQ, a), Poly(QQ, b)
    a, b = trim(a), trim(b)
    cases = [
        (f + g, fr_add(a, b)),
        (f - g, fr_add(a, fr_neg(b))),
        (-f, fr_neg(a)),
        (f.scale(c), fr_scale(a, c)),
        (f * g, fr_mul(a, b)),
        (f.derivative(), trim(i * v for i, v in enumerate(a[1:], 1))),
        (f.antiderivative(), trim((Fraction(0),) + tuple(v / (i + 1) for i, v in enumerate(a)))),
    ]
    if b:
        q, r = divmod(f, g)
        want_q, want_r = fr_divmod(a, b)
        cases += [(q, want_q), (r, want_r), ((f * g).exact_div(g), a)]
        assert g.divides(f * g) and g.divides(f) == (not want_r)
        if want_r:
            with pytest.raises(ExactDivisionError):
                f.exact_div(g)
    if a:
        cases.append((f.monic(), fr_monic(a)))
    if a or b:
        cases.append((f.gcd_monic(g), fr_gcd_monic(a, b)))
        cases += list(zip(f.xgcd(g), fr_xgcd(a, b)))
    for got, want in cases:
        assert_q_canonical(got)
        assert got.coeffs == want


@given(a=Q_LISTS.filter(any), b=Q_LISTS.filter(any))
@settings(max_examples=100, deadline=None)
def test_q_routes_to_one_value_agree_with_hash(a, b):
    # from Fractions, as a product, as a quotient, and rescaled
    f, g = Poly(QQ, a), Poly(QQ, b)
    product = f * g
    built = Poly(QQ, fr_mul(trim(a), trim(b)))
    for one, other in [
        (product, built),
        (product.exact_div(g), f),
        (divmod(product, f)[0], g),
        (f.scale(Fraction(-7, 3)).scale(Fraction(-3, 7)), f),
        (Poly(QQ, [Fraction(n, f.den) for n in f.num]), f),
    ]:
        assert_q_canonical(one)
        assert one == other and hash(one) == hash(other)


# -- the GF(p) kernel: trusted constructors, remainders, no field dispatch ----------
#
# Over GF(p) a `Poly` reduces its own raw values, once per value, in
# `Poly._reduced` and `WeylElement._from_rows`; `%` and `divides` run the
# division loop without a quotient in both kernels. The public constructors,
# `divmod` and the generators' former bodies are the oracles.

GF_PRIMES = [2, 3, 13, 1000003]

# raw ints: negative, at least p, with trailing zeros and all-zero rows
RAW_INTS = st.one_of(st.integers(-(10**8), 10**8), st.sampled_from([0, -1, 1000003, 2 * 1000003]))
RAW_ROWS = st.one_of(
    st.lists(RAW_INTS, max_size=7),
    st.lists(RAW_INTS, max_size=4).map(lambda row: row + [0] * 3),
    st.integers(0, 4).map(lambda n: [0] * n),
)


def assert_residues(f, p):
    assert type(f) is Poly and type(f.coeffs) is tuple
    assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1]


@given(p=st.sampled_from(GF_PRIMES), raw=RAW_ROWS, rows=st.dictionaries(st.integers(0, 6), RAW_ROWS))
@settings(max_examples=200, deadline=None)
def test_gf_trusted_constructors_agree_with_the_public_ones(p, raw, rows):
    F = FieldSpec(p)
    got = Poly._reduced(F, raw)
    assert got == Poly(F, raw)
    assert_residues(got, p)
    residues = tuple(v % p for v in raw)
    assert Poly._canonical(F, residues) == got
    w = WeylElement._from_rows(F, {j: list(row) for j, row in rows.items()})
    assert w == WeylElement(F, {j: Poly(F, row) for j, row in rows.items()})
    assert all(r for r in w.terms.values())
    for r in w.terms.values():
        assert_residues(r, p)


def test_trusted_weyl_constructors_keep_their_checks():
    F = FieldSpec(5)
    r = Poly(F, [1, 2])
    assert WeylElement.from_term(r, 3) == WeylElement(F, {3: r})
    assert WeylElement.from_term(Poly.zero(F), 3).terms == {}
    assert WeylElement.from_poly(Poly.zero(F)).terms == {}
    with pytest.raises(ValueError, match="negative y-degree"):
        WeylElement.from_term(r, -1)


# divisors: constants, leading coefficients other than 1, and the dividends
# zero and below the divisor's degree
@st.composite
def gf_division_pairs(draw):
    F = FieldSpec(draw(st.sampled_from([2, 3, 13, 1000003])))
    coeff = st.integers(0, F.p - 1)
    b = Poly(F, draw(st.lists(coeff, max_size=6)) + [draw(st.integers(1, F.p - 1))])
    a = Poly(F, draw(st.lists(coeff, max_size=9)))
    return a, b


@st.composite
def q_division_pairs(draw):
    return Poly(QQ, draw(Q_LISTS)), Poly(QQ, draw(Q_LISTS.filter(lambda b: any(b))))


@given(pair=st.one_of(gf_division_pairs(), q_division_pairs()))
@settings(max_examples=300, deadline=None)
def test_remainder_path_matches_divmod(pair):
    a, b = pair
    want = divmod(a, b)[1]
    got = a % b
    assert got == want and type(got) is type(want)
    assert b.divides(a) == want.is_zero()
    assert b.divides(a * b) and b.divides(Poly.zero(a.field))
    assert (b * b).divides(b) == b.is_constant()
    if a:
        assert not Poly.zero(a.field).divides(a)
        assert a % Poly.constant(a.field, -1) == Poly.zero(a.field)


def test_remainder_path_edge_cases():
    F = FieldSpec(13)
    b = Poly(F, [1, 0, 5])  # leading coefficient 5
    for a in (Poly.zero(F), Poly(F, [4, 7]), Poly(F, [1, 2, 3, 4, 5])):
        assert a % b == divmod(a, b)[1]
    big = Poly(QQ, [Fraction(-(10**30) + 7, 3), Fraction(10**20, 7), Fraction(-5, 2)])
    d = Poly(QQ, [Fraction(-3, 2), Fraction(10**25 + 1, 11)])
    assert big % d == divmod(big, d)[1]
    for zero in (Poly.zero(F), Poly.zero(QQ)):
        with pytest.raises(ZeroDivisionError):
            zero % zero


# The generators of `ahweyl.verify` as they were written on the public
# constructors, the oracle of their trusted-constructor bodies.
def public_random_poly(rng, field, max_deg=5):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(field)
    if field.is_char_zero:
        return Poly(field, [rng.randrange(-9, 10) for _ in range(deg + 1)])
    return Poly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def public_random_weyl(rng, field, max_ydeg=3, max_xdeg=4):
    terms = {}
    for i in range(max_ydeg + 1):
        if rng.random() < 0.4:
            continue
        r = public_random_poly(rng, field, max_xdeg)
        if not r.is_zero():
            terms[i] = r
    return WeylElement(field, terms)


def public_random_normalizer_element(rng, ctx, max_ydeg=3):
    p = 0 if ctx.field.is_char_zero else ctx.field.p
    out = WeylElement(ctx.field, {0: public_random_poly(rng, ctx.field, 3)})
    for i in range(1, max_ydeg + 1):
        if rng.random() < 0.4:
            continue
        if p == 0 or i % p:
            r = public_random_poly(rng, ctx.field, 2)
            if not r.is_zero():
                out = out + WeylElement(ctx.field, {i: r * ctx.a_n_coefficient(i)})
        else:
            d = public_random_poly(rng, ctx.field, 2)
            z = public_random_poly(rng, ctx.field, 1).substitute_xp()
            w = d * ctx.h_power(i) + z * ctx.h_power(i - p)
            if not w.is_zero():
                out = out + WeylElement(ctx.field, {i: w})
    return out


@pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(13)], ids=str)
def test_verify_generators_match_their_public_constructor_oracles(field):
    from ahweyl import verify

    ctx = AhContext(Poly(field, [1, 0, 1]))
    for seed in range(25):
        rng, oracle = random.Random(seed), random.Random(seed)
        assert verify.random_poly(rng, field) == public_random_poly(oracle, field)
        assert verify.random_weyl(rng, field) == public_random_weyl(oracle, field)
        got = verify.random_normalizer_element(rng, ctx)
        assert got == public_random_normalizer_element(oracle, ctx)
        assert rng.random() == oracle.random()  # the same draws, in the same order


def test_gf_hot_path_does_not_reduce_through_the_field(monkeypatch):
    # the GF(p) kernel reduces its own values: a Weyl product, apply,
    # bracket, the closed form K of the yhat side, the criterion defect,
    # and through the center
    # polynomials Res, its bracket and is_inner run with FieldSpec.reduce
    # broken. (`coerce` stays: scaling by a Fraction goes through it.)
    from ahweyl.derivations import D_g, bhat_f, is_inner, restrict_to_center

    F = FieldSpec(5)
    h = Poly(F, [1, 3, 0, 1])
    ctx = AhContext(h)
    a = WeylElement(F, {0: Poly(F, [2, 1]), 1: Poly(F, [0, 4, 3]), 6: Poly(F, [1, 1])})
    b = WeylElement(F, {2: Poly(F, [3, 0, 1]), 5: Poly(F, [4])})
    n = WeylElement(F, {1: ctx.a_n_coefficient(1), 0: Poly(F, [0, 2])})
    d1, d2 = D_g(Poly(F, [1, 2, 3]), ctx), ad(n, ctx)
    element = WeylElement(F, {0: Poly(F, [1, 4]), 2: h * h * Poly(F, [2, 0, 1])})
    defective = Derivation(ctx, b, a)
    want = (a * b, d1.apply(element), d1.bracket(d2), _from_w(ctx, b, a).image_yhat, defective.criterion_defect())
    res = restrict_to_center(d1 + bhat_f(ctx))
    center = (res.bracket(restrict_to_center(bhat_f(ctx))), is_inner(d1).reason)

    def broken(self, values):
        raise AssertionError("FieldSpec.reduce on the GF(p) hot path")

    monkeypatch.setattr(FieldSpec, "reduce", broken)
    d1, d2 = D_g(Poly(F, [1, 2, 3]), ctx), ad(n, ctx)
    defective = Derivation(ctx, b, a)
    got = (a * b, d1.apply(element), d1.bracket(d2), _from_w(ctx, b, a).image_yhat, defective.criterion_defect())
    assert got == want
    assert not want[-1].is_zero()
    res = restrict_to_center(d1 + bhat_f(ctx))
    assert (res.bracket(restrict_to_center(bhat_f(ctx))), is_inner(d1).reason) == center
    assert not center[0].is_zero()


# -- the center polynomial against its dict form ----------------------------------------------


class DictCenterPoly:
    """F[t1, t2] as {(i, j): scalar} for c t1^i t2^j, every result reduced
    through `FieldSpec.reduce` and rebuilt: the form `CenterPoly` had
    before it shared the row form of a Weyl element."""

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = {k: c for k, c in ((k, field.coerce(c)) for k, c in coeffs.items()) if c}

    @classmethod
    def _reduced(cls, field, raw):
        return cls(field, dict(zip(raw, field.reduce(raw.values()))))

    def __eq__(self, other):
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return DictCenterPoly._reduced(self.field, out)

    def __neg__(self):
        return DictCenterPoly._reduced(self.field, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return DictCenterPoly._reduced(self.field, out)

    def d_dt1(self):
        return DictCenterPoly._reduced(self.field, {(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i})

    def d_dt2(self):
        return DictCenterPoly._reduced(self.field, {(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j})

    def exact_div_t1(self, w):
        if w.is_zero():
            raise ZeroDivisionError("division by zero")
        out = {}
        for j in {j for _, j in self.coeffs}:
            row = Poly.from_coeff_dict(self.field, {i: c for (i, jj), c in self.coeffs.items() if jj == j})
            out.update({(i, j): c for i, c in enumerate(row.exact_div(w).coeffs)})
        return DictCenterPoly(self.field, out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            t1 = "" if i == 0 else "t1" if i == 1 else f"t1^{i}"
            t2 = "" if j == 0 else "t2" if j == 1 else f"t2^{j}"
            monomial = "*".join(m for m in (t1, t2) if m)
            neg = c < 0
            mag = str(-c if neg else c)
            text = (monomial if mag == "1" else f"{mag}*{monomial}") if monomial else mag
            if pieces:
                pieces.append((" - " if neg else " + ") + text)
            else:
                pieces.append(("-" if neg else "") + text)
        return "".join(pieces)


def center_dict(z):
    """{(i, j): c} of a row-form CenterPoly."""
    return {(i, j): c for j, r in z.terms.items() for i, c in enumerate(r.coeffs) if c}


@st.composite
def center_cases(draw, fields):
    F = draw(st.sampled_from(fields))
    if F.is_char_zero:
        scalar = st.one_of(st.integers(-9, 9), Q_SCALARS)
    else:
        scalar = st.integers(-F.p, 3 * F.p)  # raw: negative, >= p and zero
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 3))
    dicts = st.dictionaries(exponents, scalar, max_size=6)
    return F, [draw(dicts) for _ in range(4)]


CENTER_PRIMES = [FieldSpec(p) for p in (2, 3, 5, 13)]


@given(case=center_cases(CENTER_PRIMES), w=st.lists(st.integers(0, 12), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_center_rows_match_the_dict_oracle(case, w):
    from ahweyl.centerpoly import CenterPoly
    from ahweyl.derivations import CenterDerivation

    F, dicts = case
    new = [CenterPoly(F, d) for d in dicts]
    old = [DictCenterPoly(F, d) for d in dicts]
    u, v, a, b = new
    U, V, A, B = old
    assert [center_dict(z) for z in new] == [Z.coeffs for Z in old]
    for got, want in [
        (u + v, U + V), (u - v, U - V), (-u, -U), (u * v, U * V), (v * u, V * U),
        (u.d_dt1(), U.d_dt1()), (u.d_dt2(), U.d_dt2()),
    ]:
        assert center_dict(got) == want.coeffs
        assert str(got) == str(want)
    assert (u == v) == (U == V)
    assert u + v - v == u and hash(u + v - v) == hash(u)
    assert CenterPoly(F, dict(reversed(dicts[0].items()))) == u
    # the exact division, and its failure on a row 1 at t2^5
    wp = Poly(F, w + [1])
    W = DictCenterPoly(F, {(i, 0): c for i, c in enumerate(wp.coeffs)})
    assert center_dict((u * CenterPoly.from_t1_poly(wp)).exact_div_t1(wp)) == (U * W).exact_div_t1(wp).coeffs
    assert (U * W).exact_div_t1(wp) == U
    if wp.degree > 0:
        for z in (u + CenterPoly.t2(F, 5), U + DictCenterPoly(F, {(0, 5): 1})):
            with pytest.raises(ExactDivisionError):
                z.exact_div_t1(wp)
    for z in (u, U):
        with pytest.raises(ZeroDivisionError):
            z.exact_div_t1(Poly.zero(F))
    # the bracket of center derivations reads only +, -, * and d/dt
    got = CenterDerivation(u, v).bracket(CenterDerivation(a, b))
    want = CenterDerivation(U, V).bracket(CenterDerivation(A, B))
    assert (center_dict(got.a), center_dict(got.b)) == (want.a.coeffs, want.b.coeffs)


@given(case=center_cases([QQ]))
@settings(max_examples=200, deadline=None)
def test_center_printer_over_q_matches_the_dict_oracle(case):
    from ahweyl.centerpoly import CenterPoly

    F, dicts = case
    u, v = (CenterPoly(F, d) for d in dicts[:2])
    U, V = (DictCenterPoly(F, d) for d in dicts[:2])
    for got, want in [(u, U), (u * v, U * V), (u - v, U - V), (u.d_dt1(), U.d_dt1())]:
        assert center_dict(got) == want.coeffs
        assert str(got) == str(want)


def test_row_form_classes_do_not_mix():
    import operator

    from ahweyl.centerpoly import CenterPoly

    F = FieldSpec(5)
    w, z = WeylElement.one(F), CenterPoly.one(F)
    assert w.terms == z.terms  # the same rows, and still never equal
    assert w != z and z != w
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(w, z)
        with pytest.raises(TypeError):
            op(z, w)
    with pytest.raises(ValueError, match="negative y-degree"):
        WeylElement.from_term(Poly.one(F), -1)
    with pytest.raises(ValueError, match="negative exponent"):
        CenterPoly(F, {(-1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        CenterPoly.t2(F, -1)
