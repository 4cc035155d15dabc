"""Coefficient field and polynomial layer: ring ops, gcd, Frobenius tools."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahweyl.fields import (
    _MR_EXACT_BELOW,
    ExactDivisionError,
    FieldMismatchError,
    FieldSpec,
    QQ,
    _is_prime,
)
from ahweyl.poly import NEG_INF, NotIntegrable, Poly, QPoly, _kernel

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def P(field, *coeffs):
    return Poly(field, coeffs)


def hasse_derivative(f, m):
    """The m-th Hasse derivative H_m(f) = sum_n C(n, m) c_n x^(n-m), the
    oracle for the Hasse table `weyl._hasse_rows` that every reordering reads.

    m! H_m(f) = f^(m), but H_m needs no division by m!: in characteristic p
    it survives where f^(m) vanishes for m >= p, e.g. H_p(x^p) = 1 over
    GF(p)."""
    if m < 0:
        raise ValueError("negative order")
    return Poly(f.field, [comb(n, m) * c for n, c in enumerate(f.coeffs[m:], m)])


def random_poly(rng, field, max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(field)
    if field.is_char_zero:
        coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
    else:
        coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
    return Poly(field, coeffs)


class TestFieldSpec:
    def test_characteristic_must_be_zero_or_prime(self):
        FieldSpec(0)
        FieldSpec(7)
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(1)

    def test_primality_matches_sympy(self):
        # strong pseudoprimes: to the bases 2..23, and to the first 12 prime
        # bases (the least one, psi_12), which base 41 exposes
        spsp = [3825123056546413051, 318665857834031151167461]
        rng = random.Random(7)
        big = [rng.randrange(2**40, _MR_EXACT_BELOW) for _ in range(300)]
        big += [sympy.nextprime(n) for n in big[:20]]
        for n in [*range(-3, 5000), 2**61 - 1, 2147483659 * 2147483693, *spsp, *big]:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_characteristic_too_large_to_decide_is_rejected(self):
        for n in (_MR_EXACT_BELOW, 2**89 - 1):
            with pytest.raises(ValueError, match="too large"):
                FieldSpec(n)

    def test_char_p_residues_reduced(self):
        assert GF3.coerce(7) == 1
        assert GF3.inv(2) == 2

    @pytest.mark.parametrize("field", [QQ, GF3], ids=["Q", "GF3"])
    @pytest.mark.parametrize("value", [0.5, True])
    def test_no_floats(self, field, value):
        with pytest.raises(TypeError):
            field.coerce(value)
        with pytest.raises(TypeError):
            Poly(field, [1, value])

    def test_reduce(self):
        assert GF5.reduce([7, -1, 0, 25]) == [2, 4, 0, 0]
        assert QQ.reduce((Fraction(7, 2), 0)) == [Fraction(7, 2), 0]

    def test_reduce_over_common_denominator(self):
        # raw integers over a common denominator: one QPoly, its gcd with
        # the denominator divided out and the sign moved to the numerators
        r = _kernel(QQ)._reduced(QQ, [3, -4, 0], 6)
        assert (r.num, r.den) == ((3, -4), 6)
        assert r.coeffs == (Fraction(1, 2), Fraction(-2, 3))
        r = _kernel(QQ)._reduced(QQ, [4, -6, 0], -8)
        assert (r.num, r.den) == ((-2, 3), 4)
        assert r.coeffs == (Fraction(-1, 2), Fraction(3, 4))
        assert _kernel(QQ)._reduced(QQ, [0, 0], 6) == Poly.zero(QQ)
        assert (Poly.zero(QQ).num, Poly.zero(QQ).den) == ((), 1)
        assert _kernel(GF5)._reduced(GF5, [7, -1, 5]).coeffs == (2, 4)
        # den == 1 over Q: ints stored, Fractions read
        got = _kernel(QQ)._reduced(QQ, [3, 0, -2])
        assert (got.num, got.den) == ((3, 0, -2), 1)
        assert got.coeffs == (3, 0, -2)
        assert all(type(c) is Fraction for c in got.coeffs)

    def test_lift_char_p_returns_its_argument(self):
        # its argument's stored residues, uncopied, over den = 1
        polys = (P(GF5, 1, 2), P(GF5, 3))
        den, images = GF5.lift(polys)
        assert den == 1 and all(im is r.coeffs for im, r in zip(images, polys, strict=True))
        terms = {0: P(GF5, 4), 2: P(GF5, 0, 1)}
        den, images = GF5.lift(terms)
        assert den == 1 and images.keys() == terms.keys()
        assert all(images[i] is r.coeffs for i, r in terms.items())

    def test_lift_q_clears_to_the_lcm(self):
        f = P(QQ, Fraction(1, 4), Fraction(-5, 6), 3)
        g = P(QQ, Fraction(7, 10), 0, Fraction(1, 4))
        den, (a, b) = QQ.lift((f, g))
        assert den == 60  # lcm(4, 6, 10); the product of the denominators is 960
        for image, poly in ((a, f), (b, g)):
            assert all(type(c) is int for c in image)
            assert [Fraction(c, den) for c in image] == list(poly.coeffs)
        den, terms = QQ.lift({0: f, 3: Poly.one(QQ)})
        assert den == 12 and set(terms) == {0, 3}
        assert [Fraction(c, den) for c in terms[0]] == list(f.coeffs)
        assert list(terms[3]) == [12]
        # a Poly already over den passes its numerators uncopied
        assert terms[0] is f.num
        one = P(QQ, 2, -3)
        den, (image,) = QQ.lift((one,))
        assert den == 1 and image is one.num and image == (2, -3)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            P(QQ, 1) + P(GF3, 1)


class TestRingOps:
    def test_factorization_identity(self):
        # (x^2 - 1) / (x - 1) = x + 1 rem 0
        f = P(QQ, -1, 0, 1)
        g = P(QQ, -1, 1)
        q, r = divmod(f, g)
        assert q == P(QQ, 1, 1)
        assert r.is_zero()

    def test_mul_by_zero(self):
        f = P(QQ, 1, 2, 3)
        assert (f * Poly.zero(QQ)).is_zero()

    def test_freshman_dream_gf2(self):
        # term-by-term oracle: (x+1)^2 = x^2 + 2x + 1 = x^2 + 1 over GF(2)
        f = P(GF2, 1, 1)
        assert f * f == P(GF2, 1, 0, 1)

    def test_zero_degree_marker(self):
        assert Poly.zero(QQ).degree == NEG_INF
        assert Poly.zero(QQ).degree < 0
        assert P(QQ, 5).degree == 0

    def test_canonical_trailing_zeros(self):
        assert P(QQ, 1, 2, 0, 0) == P(QQ, 1, 2)

    def test_exact_div_flagged_distinctly(self):
        f = P(QQ, 1, 0, 1)
        g = P(QQ, 1, 1)
        with pytest.raises(ExactDivisionError):
            f.exact_div(g)
        with pytest.raises(ZeroDivisionError):
            divmod(f, Poly.zero(QQ))

    @pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
    def test_ring_axioms_random(self, field):
        rng = random.Random(101)
        for _ in range(25):
            a, b, c = (random_poly(rng, field) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    @pytest.mark.parametrize("field", [QQ, GF3, GF5])
    def test_divmod_contract_random(self, field):
        rng = random.Random(202)
        for _ in range(40):
            f = random_poly(rng, field, 8)
            g = random_poly(rng, field, 5)
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


@pytest.mark.parametrize("field", [QQ, GF3])
def test_pow_matches_repeated_multiplication(field):
    h = Poly(field, (Fraction(1, 2), -1, 0, 2) if field is QQ else (1, 2, 0, 1))
    want = Poly.one(field)
    for n in range(10):
        assert h**n == want
        want = want * h


class TestDerivative:
    def test_power_rule(self):
        assert P(QQ, 0, 0, 0, 1).derivative() == P(QQ, 0, 0, 3)

    def test_xp_in_char_p(self):
        assert Poly.monomial(GF3, 1, 3).derivative().is_zero()

    def test_constant(self):
        assert P(QQ, 7).derivative().is_zero()


class TestHasseDerivative:
    @given(st.lists(st.integers(-20, 20), max_size=9), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_factorial_times_hasse_is_derivative_over_q(self, coeffs, m):
        f = Poly(QQ, coeffs)
        assert hasse_derivative(f, m).scale(factorial(m)) == f.derivative(m)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_hasse_p_of_xp_is_one(self, p):
        field = FieldSpec(p)
        xp = Poly.monomial(field, 1, p)
        assert xp.derivative(p).is_zero()
        assert hasse_derivative(xp, p).is_one()

    def test_zero_order_and_above_degree(self):
        f = P(GF3, 1, 2, 0, 1)
        assert hasse_derivative(f, 0) == f
        assert hasse_derivative(f, 4).is_zero()
        with pytest.raises(ValueError):
            hasse_derivative(f, -1)


class TestGcd:
    def test_monomials(self):
        assert Poly.monomial(QQ, 1, 2).gcd_monic(Poly.monomial(QQ, 1, 3)) == Poly.monomial(QQ, 1, 2)

    def test_common_factor(self):
        assert P(QQ, -1, 0, 1).gcd_monic(P(QQ, -1, 1)) == P(QQ, -1, 1)

    def test_euclid_oracle_gf3(self):
        # Euclid by hand: x^3 - x = x*(x^2 - 1), so gcd(x^3 - x, x^2 - 1) = x^2 - 1
        f = P(GF3, 0, -1, 0, 1)
        g = P(GF3, -1, 0, 1)
        assert f.gcd_monic(g) == g.monic()

    def test_gcd_with_zero(self):
        assert P(QQ, 2, 2).gcd_monic(Poly.zero(QQ)) == P(QQ, 1, 1)
        with pytest.raises(ValueError):
            Poly.zero(QQ).gcd_monic(Poly.zero(QQ))

    @pytest.mark.parametrize("field", [QQ, GF3])
    def test_gcd_divides_both(self, field):
        rng = random.Random(303)
        for _ in range(30):
            f = random_poly(rng, field, 6)
            g = random_poly(rng, field, 6)
            if f.is_zero() and g.is_zero():
                continue
            d = f.gcd_monic(g)
            assert d.is_monic()
            assert d.divides(f) and d.divides(g)

    def test_xgcd_bezout(self):
        rng = random.Random(404)
        for field in (QQ, GF5):
            for _ in range(20):
                f = random_poly(rng, field, 5)
                g = random_poly(rng, field, 5)
                if f.is_zero() and g.is_zero():
                    continue
                d, s, t = f.xgcd(g)
                assert s * f + t * g == d


class TestFrobenius:
    def test_split_p3_x4(self):
        # x^4 = (x^3) * x: component f_1(u) = u, others 0
        parts = Poly.monomial(GF3, 1, 4).frobenius_split()
        assert parts[1] == Poly.x(GF3)
        assert parts[0].is_zero() and parts[2].is_zero()

    def test_split_in_base(self):
        f = Poly.monomial(GF3, 2, 6) + P(GF3, 1)  # 2x^6 + 1 in F[x^3]
        parts = f.frobenius_split()
        assert parts[0] == P(GF3, 1, 0, 2)
        assert parts[1].is_zero() and parts[2].is_zero()

    def test_split_p2_bucketing_oracle(self):
        # exponent buckets: x^3 + x^2 + 1 -> f_0 = u + 1, f_1 = u
        f = P(GF2, 1, 0, 1, 1)
        parts = f.frobenius_split()
        assert parts[0] == P(GF2, 1, 1)
        assert parts[1] == P(GF2, 0, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reassembly_random(self, p):
        field = FieldSpec(p)
        rng = random.Random(p * 1000)
        for _ in range(25):
            f = random_poly(rng, field, 3 * p)
            assert Poly.frobenius_assemble(field, f.frobenius_split()) == f

    def test_pth_root(self):
        f = (P(GF3, 1, 1) ** 3)
        assert f.pth_root() == P(GF3, 1, 1)
        with pytest.raises(ExactDivisionError):
            Poly.x(GF3).pth_root()

    def test_char_zero_rejected(self):
        with pytest.raises(ValueError):
            P(QQ, 1).frobenius_split()


class TestPartialP:
    def test_x_cubed_p3(self):
        assert Poly.monomial(GF3, 1, 3).partial_p() == Poly.one(GF3)

    def test_x_squared_p3(self):
        assert Poly.monomial(GF3, 1, 2).partial_p().is_zero()

    def test_bucket_rule_p2(self):
        # x^6: j=3 bucket, 3*x^4 = x^4 over GF(2)
        assert Poly.monomial(GF2, 1, 6).partial_p() == Poly.monomial(GF2, 1, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_monomial_bucket_formula(self, p):
        field = FieldSpec(p)
        for n in range(4 * p + 1):
            j, i = divmod(n, p)
            got = Poly.monomial(field, 1, n).partial_p()
            if j == 0 or j % p == 0:
                assert got.is_zero()
            else:
                assert got == Poly.monomial(field, j, (j - 1) * p + i)


class TestAntiderivative:
    def test_char_zero(self):
        assert P(QQ, 0, 0, 3).antiderivative() == Poly.monomial(QQ, 1, 3)

    def test_char_zero_constant_term_zero(self):
        g = P(QQ, 5, 1).antiderivative()
        assert g.coefficient(0) == 0
        assert g.derivative() == P(QQ, 5, 1)

    def test_obstruction_p3(self):
        res = Poly.monomial(GF3, 1, 2).antiderivative()
        assert isinstance(res, NotIntegrable)
        assert res.obstruction == Poly.one(GF3)

    def test_integrable_p3(self):
        assert P(GF3, 0, 2).antiderivative() == Poly.monomial(GF3, 1, 2)

    @pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
    def test_roundtrips(self, field):
        rng = random.Random(505)
        for _ in range(30):
            f = random_poly(rng, field, 12)
            g = f.antiderivative()
            if isinstance(g, NotIntegrable):
                fixed = f - g.obstruction * Poly.monomial(field, 1, field.p - 1)
                g2 = fixed.antiderivative()
                assert not isinstance(g2, NotIntegrable)
                assert g2.derivative() == fixed
                continue
            assert g.derivative() == f
            # derivative then antiderivative recovers f minus constant term (char 0)
            if field.is_char_zero:
                back = f.derivative().antiderivative()
                assert back == f - Poly.constant(field, f.coefficient(0))


class TestSquarefree:
    @pytest.mark.parametrize(
        "field,factors",
        [
            (QQ, [((-1, 1), 1), ((1, 1), 3)]),
            (GF3, [((0, 1), 3), ((1, 1), 1)]),
            (GF3, [((0, 1), 4)]),
            (GF2, [((1, 1), 2), ((0, 1), 6)]),
            (GF5, [((1, 0, 1), 5)]),
        ],
    )
    def test_known_products(self, field, factors):
        f = Poly.one(field)
        for coeffs, mult in factors:
            f = f * (Poly(field, coeffs) ** mult)
        dec = f.squarefree_decomposition()
        prod = Poly.one(field)
        for g, m in dec:
            prod = prod * g**m
            assert g.is_monic()
            assert not g.derivative().is_zero()
            assert g.gcd_monic(g.derivative()).is_one()
        assert prod == f.monic()
        got = sorted((tuple(g.coeffs), m) for g, m in dec)
        want = sorted((tuple(Poly(field, c).coeffs), m) for c, m in factors)
        assert got == want

    @pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
    def test_random_reassembly(self, field):
        rng = random.Random(606)
        for _ in range(20):
            f = Poly.one(field)
            for _ in range(rng.randrange(1, 4)):
                g = random_poly(rng, field, 2)
                if g.is_zero() or g.is_constant():
                    continue
                f = f * g ** rng.randrange(1, 5)
            if f.is_constant():
                continue
            dec = f.squarefree_decomposition()
            prod = Poly.one(field)
            for g, m in dec:
                prod = prod * g**m
            assert prod == f.monic()
            # components pairwise coprime and squarefree (over a prime field
            # a squarefree nonconstant polynomial has nonzero derivative)
            for i, (g, _) in enumerate(dec):
                assert not g.derivative().is_zero()
                assert g.gcd_monic(g.derivative()).is_one()
                for g2, _ in dec[i + 1 :]:
                    assert g.gcd_monic(g2).is_one()


@given(
    st.lists(st.integers(-20, 20), max_size=7),
    st.lists(st.integers(-20, 20), max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_mul_commutes_hypothesis(a, b):
    f, g = Poly(QQ, a), Poly(QQ, b)
    assert f * g == g * f


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_frobenius_roundtrip_hypothesis(coeffs):
    f = Poly(GF5, coeffs)
    assert Poly.frobenius_assemble(GF5, f.frobenius_split()) == f


def test_fraction_coefficients_stay_reduced():
    f = P(QQ, Fraction(2, 4))
    assert f.coeffs == (Fraction(1, 2),)


# -- the raw-arithmetic kernel against sympy ------------------------------------

KERNEL_FIELDS = [QQ] + [FieldSpec(p) for p in (2, 3, 5, 7, 13)]
SX = sympy.Symbol("x")


def assert_canonical(f):
    """The stored form: a tuple with no trailing zero, of ints in [0, p)
    (never bools) over GF(p) and of Fractions over Q."""
    assert type(f.coeffs) is tuple
    assert not f.coeffs or f.coeffs[-1] != 0
    if f.field.is_char_zero:
        assert all(type(c) is Fraction for c in f.coeffs)
    else:
        assert all(type(c) is int and 0 <= c < f.field.p for c in f.coeffs)


def to_sympy(f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, f.coeffs)]
    if f.field.is_char_zero:
        return sympy.Poly(coeffs[::-1] or [0], SX, domain=sympy.QQ)
    return sympy.Poly(coeffs[::-1] or [0], SX, modulus=f.field.p)


def from_sympy(field, g):
    coeffs = [Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in g.all_coeffs()[::-1]]
    return Poly(field, coeffs)


def checked(f, want):
    assert_canonical(f)
    assert f == from_sympy(f.field, want)


scalars = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-6, max_value=6, max_denominator=6)
)


@st.composite
def kernel_pair(draw):
    """(f, g) over one field; g is often c - f with deg c < deg f, so that
    f + g cancels its leading terms, or -f, so that it cancels to 0."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    if not field.is_char_zero:
        # a denominator divisible by p is not a scalar of GF(p)
        values = st.integers(-3 * field.p, 3 * field.p)
    else:
        values = scalars
    a = draw(st.lists(values, max_size=9))
    shape = draw(st.sampled_from(["free", "cancel_lead", "cancel_all"]))
    if shape == "free":
        b = draw(st.lists(values, max_size=9))
    else:
        c = draw(st.lists(values, max_size=max(len(a) - 1, 0))) if shape == "cancel_lead" else []
        b = [(c[k] if k < len(c) else 0) - v for k, v in enumerate(a)]
    return Poly(field, a), Poly(field, b)


@given(kernel_pair(), scalars)
@settings(max_examples=300, deadline=None)
def test_kernel_ring_ops_match_sympy(pair, c):
    f, g = pair
    F = f.field
    if not F.is_char_zero and isinstance(c, Fraction) and c.denominator % F.p == 0:
        c = c.numerator
    sf, sg = to_sympy(f), to_sympy(g)
    checked(f + g, sf + sg)
    checked(f - g, sf - sg)
    checked(g - f, sg - sf)
    checked(-f, -sf)
    checked(f.scale(c), sf * to_sympy(Poly(F, [c])))
    checked(f * g, sf * sg)
    if g:
        q, r = divmod(f, g)
        sq, sr = sympy.div(sf, sg)
        checked(q, sq)
        checked(r, sr)


@given(kernel_pair(), st.integers(0, 4), st.integers(0, 11))
@settings(max_examples=200, deadline=None)
def test_kernel_derivatives_match_sympy(pair, order, m):
    f, _ = pair
    F = f.field
    checked(f.derivative(order), to_sympy(f).diff((SX, order)) if order else to_sympy(f))
    # H_m(f) = f^(m)/m! over Q, on an integer lift in characteristic p
    lift = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, f.coeffs[::-1])] or [0],
        SX,
        domain=sympy.QQ,
    )
    hasse = lift.diff((SX, m)) * sympy.Rational(1, factorial(m)) if m else lift
    if not F.is_char_zero:
        hasse = sympy.Poly(hasse.as_expr(), SX, modulus=F.p)
    checked(hasse_derivative(f, m), hasse)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_kernel_cancellation_explicit(field):
    f = Poly(field, [1, 2, 3, 1])
    g = Poly(field, [5, 0, -3, -1])  # f + g = 6 + 2x
    for h in (f + g, f - f, f + (-f), f * Poly.zero(field), f.scale(0)):
        assert_canonical(h)
    assert f + g == Poly(field, [6, 2])
    assert (f - f).is_zero() and (f + (-f)).is_zero()
    assert_canonical(divmod(f, f)[1])


@st.composite
def squarefree_case(draw):
    """lc * prod g_k^m_k over a sampled field: over Q with fractional
    coefficients and multiplicities up to 6; over GF(p) with a first
    multiplicity at or above p, so the decomposition recurses on a p-th
    root."""
    field = draw(st.sampled_from([QQ] + [FieldSpec(p) for p in (2, 3, 5, 7)]))
    p = field.characteristic
    values = scalars if not p else st.integers(0, p - 1)
    f = Poly.constant(field, draw(values.filter(bool)))
    for k in range(draw(st.integers(1, 3))):
        g = Poly(field, [*draw(st.lists(values, min_size=1, max_size=2)), draw(values.filter(bool))])
        f = f * g ** draw(st.integers(p if p and not k else 1, 2 * p + 1 if p else 6))
    return f


def musser_over_q(f):
    """Second oracle over Q: Musser's loop on f, monic nonconstant. With c =
    gcd(f, f') and w = f / c, step k splits off f_k = w / gcd(w, c) and
    divides c by gcd(w, c); over Q c ends at 1."""
    c = f.gcd_monic(f.derivative())
    w = f.exact_div(c)
    out = []
    k = 1
    while not w.is_one():
        y = w.gcd_monic(c)
        z = w.exact_div(y)
        if not z.is_one():
            out.append((z, k))
        w, c = y, c.exact_div(y)
        k += 1
    return out


def q_power_product(*parts):
    """prod g^m over Q, each g given by its coefficients from degree 0."""
    f = Poly.one(QQ)
    for coeffs, m in parts:
        f = f * Poly(QQ, coeffs) ** m
    return f


@given(squarefree_case())
@example(q_power_product(([1, 1], 300)))
@example(q_power_product(([Fraction(-1, 2), 1], 101), ([3, 0, 1], 250), ([0, 1], 7)))
@example(q_power_product(([2, 1], 1), ([-1, 1], 199), ([1, Fraction(2, 3), 5], 200)).scale(7))
@settings(max_examples=150, deadline=None)
def test_squarefree_decomposition_matches_sympy(f):
    # the ordered list (f_m, m), f_m monic, the parts of one multiplicity
    # that sympy lists apart multiplied together; over Q Musser's loop is
    # a second oracle, and the examples reach multiplicities in the hundreds
    _, theirs = sympy.sqf_list(to_sympy(f))
    parts = {}
    for g, m in theirs:
        g = from_sympy(f.field, g).monic()
        parts[int(m)] = parts[int(m)] * g if int(m) in parts else g
    expected = [(parts[m], m) for m in sorted(parts)]
    assert f.squarefree_decomposition() == expected
    if f.field.is_char_zero:
        assert musser_over_q(f.monic()) == expected


# -- division over Q: the integer pseudo-division against sympy and Fractions -------------


def divmod_by_fractions(f, g):
    """Oracle: long division on Fractions, one multiply and subtract per step."""
    rem, dv = list(f.coeffs), g.coeffs
    dd = len(dv) - 1
    if len(rem) - 1 < dd:
        return Poly.zero(QQ), f
    q = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] / dv[-1]
        if c:
            lo = i - dd
            q[lo] = c
            rem[lo:i] = [r - c * d for r, d in zip(rem[lo:i], dv)]
    return Poly(QQ, q), Poly(QQ, rem[:dd])


def check_q_division(f, g):
    q, r = divmod(f, g)
    assert_canonical(q)
    assert_canonical(r)
    sq, sr = sympy.div(to_sympy(f), to_sympy(g))
    assert q == from_sympy(QQ, sq) and r == from_sympy(QQ, sr)
    assert (q, r) == divmod_by_fractions(f, g)


# leading coefficients of the divisor: negative, fractional, both
DIVISOR_LEADS = [Fraction(-3), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def q_division_pair(draw):
    """(f, g) over Q. "gappy" builds f = q g + r from a quotient q with zero
    coefficients below its top, so a division step has c = 0 after earlier
    steps have grown the scale S; "short" has deg f < deg g."""
    g = Poly(QQ, draw(st.lists(scalars, max_size=4)) + [draw(st.sampled_from(DIVISOR_LEADS))])
    shape = draw(st.sampled_from(["free", "gappy", "short", "zero"]))
    if shape == "free":
        f = Poly(QQ, draw(st.lists(scalars, max_size=14)))
    elif shape == "gappy":
        q = draw(st.lists(st.sampled_from([0, 0, 0, 1, -2, Fraction(1, 3)]), min_size=1, max_size=8))
        q.append(draw(st.sampled_from(DIVISOR_LEADS)))
        r = Poly(QQ, draw(st.lists(scalars, max_size=g.degree)))
        f = Poly(QQ, q) * g + r
    elif shape == "short":
        f = Poly(QQ, draw(st.lists(scalars, max_size=g.degree)))
    else:
        f = Poly.zero(QQ)
    return f, g


@given(q_division_pair())
@settings(max_examples=300, deadline=None)
def test_q_division_matches_sympy_and_fractions(pair):
    check_q_division(*pair)


def test_q_division_zero_step_under_scaling():
    # g has integer image 2g = -3x^2 + 2x, so L = -3; the quotient's zero
    # x^3 and x^2 coefficients are steps with c = 0 at S = -3 and S = 9
    g = P(QQ, 0, 1, Fraction(-3, 2))
    q = P(QQ, Fraction(1, 3), 5, 0, 0, -2)
    r = P(QQ, Fraction(-1, 7), 4)
    f = q * g + r
    assert divmod(f, g) == (q, r)
    check_q_division(f, g)


def test_q_division_long_dividend_by_a_power():
    # deg 60 by (-3/2 x^2 + x)^5, L = (-3)^5: 51 steps bound the growth of S
    rng = random.Random(60)
    g = P(QQ, 0, 1, Fraction(-3, 2)) ** 5
    f = Poly(QQ, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(60)] + [1])
    check_q_division(f, g)
    q = Poly(QQ, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(50)] + [3])
    assert divmod(q * g, g) == (q, Poly.zero(QQ))


def divmod_mod_p(f, g):
    """Oracle: long division over GF(p) on residues, one step per degree."""
    F = f.field
    p = F.p
    rem, dv = list(f.coeffs), g.coeffs
    dd = len(dv) - 1
    if len(rem) - 1 < dd:
        return Poly.zero(F), f
    inv = pow(dv[-1], -1, p)
    q = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * inv % p
        lo = i - dd
        q[lo] = c
        rem[lo:i] = [(r - c * d) % p for r, d in zip(rem[lo:i], dv)]
    return Poly(F, q), Poly(F, rem[:dd])


@given(
    st.sampled_from([QQ, GF2, GF5, FieldSpec(7)]),
    st.lists(st.integers(-40, 40), max_size=12),
    st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-7, 3)]),
)
@settings(max_examples=200, deadline=None)
def test_division_by_a_constant_matches_long_division(field, coeffs, c):
    # a nonzero constant divisor takes the scaling path, not the loop
    if not field.is_char_zero:
        c = Fraction(c).numerator % field.p or 1
    f, g = Poly(field, coeffs), Poly.constant(field, field.coerce(c))
    q, r = divmod(f, g)
    assert_canonical(q)
    assert r.is_zero()
    assert q * g == f
    oracle = divmod_by_fractions(f, g) if field.is_char_zero else divmod_mod_p(f, g)
    assert (q, r) == oracle
    assert g.divides(f) and f.exact_div(g) == q


def test_the_kernel_is_chosen_once_by_the_field():
    # over Q every constructor makes a QPoly; the GF(p) Poly keeps its two
    # slots and has no __getattr__, which would slow every attribute read
    for f in (
        Poly(QQ, [1, Fraction(1, 2)]),
        Poly.zero(QQ),
        Poly.one(QQ),
        Poly.x(QQ),
        Poly.constant(QQ, 3),
        Poly.monomial(QQ, Fraction(-3, 2), 4),
        Poly.from_coeff_dict(QQ, {2: Fraction(1, 3), 0: 5}),
    ):
        assert type(f) is QPoly is _kernel(f.field)
    assert Poly.monomial(QQ, Fraction(-3, 2), 4).coeffs == (0, 0, 0, 0, Fraction(-3, 2))
    for f in (Poly(GF5, [1, 2]), Poly.zero(GF5), Poly.x(GF5), Poly.monomial(GF5, 3, 2)):
        assert type(f) is Poly is _kernel(f.field)
    assert Poly.__slots__ == ("field", "coeffs")
    assert not hasattr(Poly, "__getattr__") and not hasattr(QPoly, "__getattr__")
