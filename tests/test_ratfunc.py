import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.ratfunc import (
    CycloQ,
    DivisionByZero,
    IntLaurent,
    ONE,
    PoleError,
    Q,
    QPoly,
    RatFuncQ,
    ZERO,
    cyclotomic,
    format_fraction,
    over_cyclotomics,
    poly_gcd,
    qpow,
    w_factor,
)


def test_factorization_identity():
    assert (ONE - qpow(-4)) / (ONE - qpow(-2)) == ONE + qpow(-2)


def test_additive_identity():
    x = (Q + ONE) / (Q**2 - ONE)
    assert x + ZERO == x


def test_w2_expansion():
    w2 = w_factor(2, qpow(-2))
    assert w2 == ONE - qpow(-2) - qpow(-4) + qpow(-6)


def test_division_by_zero_is_distinct():
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_eval_examples():
    assert (ONE + qpow(-1)).eval_at(3) == Fraction(4, 3)
    assert w_factor(1, -qpow(-1)).eval_at(3) == Fraction(4, 3)
    assert (qpow(4) * w_factor(1, qpow(-4))).eval_at(3) == 80


def test_eval_pole():
    f = ONE / (Q - RatFuncQ.const(3))
    with pytest.raises(PoleError):
        f.eval_at(3)


def test_gcd_examples():
    q2m1 = QPoly((-1, 0, 1))
    qm1 = QPoly((-1, 1))
    assert poly_gcd(q2m1, qm1) == qm1
    f = QPoly((2, 4))
    assert poly_gcd(f, QPoly()) == f.monic()
    assert poly_gcd(QPoly(), QPoly()) == QPoly()
    q4m1 = QPoly((-1, 0, 0, 0, 1))
    assert poly_gcd(q2m1, q4m1) == q2m1


def test_canonical_form_unique():
    a = RatFuncQ(QPoly((0, 2)), QPoly((0, 0, 4)))     # 2q / 4q^2
    b = RatFuncQ(QPoly((1,)), QPoly((0, 2)))          # 1 / 2q
    assert a == b
    assert a.den.leading() == 1


def test_serialization():
    num, den = ((ONE + qpow(-1)) / (ONE - qpow(-1))).as_coeff_arrays()
    assert num == ["1", "1"] and den == ["-1", "1"]
    assert format_fraction(Fraction(32, 27)) == "32/27"
    assert format_fraction(Fraction(4)) == "4"


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(small_fracs, min_size=0, max_size=4))
    den = draw(st.lists(small_fracs, min_size=1, max_size=3))
    denp = QPoly(den)
    if not denp:
        denp = QPoly((1,))
    return RatFuncQ(QPoly(num), denp)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - a) == ZERO
    if b:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_eval_is_ring_homomorphism(a, b):
    q0 = Fraction(7)
    try:
        va, vb = a.eval_at(q0), b.eval_at(q0)
        vab = (a * b).eval_at(q0)
        vsum = (a + b).eval_at(q0)
    except PoleError:
        return
    assert vab == va * vb
    assert vsum == va + vb


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fracs, max_size=5), st.lists(small_fracs, max_size=5))
def test_poly_gcd_divides(ca, cb):
    a, b = QPoly(ca), QPoly(cb)
    g = poly_gcd(a, b)
    if not g:
        assert not a and not b
        return
    for f in (a, b):
        _, r = f.divmod(g)
        assert not r


def test_canonical_form_against_sympy_cancel():
    """Canonical forms equal sympy.cancel, normalised to a monic denominator."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def coeffs(expr):
        cs = sympy.Poly(expr, q, domain="QQ").all_coeffs()[::-1]
        return [Fraction(int(c.p), int(c.q)) for c in cs]

    atoms = [
        (Q + ONE, q + 1),
        (ONE - qpow(-2), 1 - q**-2),
        ((Q**2 - ONE) / (Q**3 + 2 * Q), (q**2 - 1) / (q**3 + 2 * q)),
        (Fraction(3, 4) * Q**2 - Fraction(1, 2), sympy.Rational(3, 4) * q**2 - q**0 / 2),
        (w_factor(2, qpow(-1)), (1 - q**-1) * (1 - q**-2)),
    ]
    cases = []
    for (a, ea), (b, eb) in itertools.product(atoms, repeat=2):
        cases += [(a + b, ea + eb), (a * b, ea * eb), (a / b, ea / eb)]
    for got, expr in cases:
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        lead = sympy.Poly(den, q, domain="QQ").LC()
        assert list(got.num.coeffs) == coeffs(num / lead)
        assert list(got.den.coeffs) == coeffs(den / lead)


# -- Z[q^+-1] and cyclotomic reduction -------------------------------------------------


def test_int_laurent_normal_form():
    assert IntLaurent([0, 0, 3, 0], -1) == IntLaurent([3], 1)
    assert IntLaurent([0, 0]) == IntLaurent() and not IntLaurent([0])
    assert IntLaurent.from_terms({-2: 1, 0: -1, 5: 0}) == IntLaurent([1, 0, -1], -2)
    assert IntLaurent([1, 1], -1) - IntLaurent([1], -1) == IntLaurent([1])
    assert IntLaurent([1, 1]) * IntLaurent([-1, 1]) == IntLaurent([-1, 0, 1])
    assert IntLaurent([2, 3], -2).to_ratfunc() == 2 * qpow(-2) + 3 * qpow(-1)
    assert str(IntLaurent([2, 3], 1)) == str(2 * Q + 3 * Q**2)


def int_laurents():
    return st.builds(IntLaurent, st.lists(st.integers(-4, 4), max_size=5),
                     st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(int_laurents(), int_laurents(), st.integers(-3, 3))
def test_int_laurent_matches_ratfunc(a, b, k):
    assert (a + b).to_ratfunc() == a.to_ratfunc() + b.to_ratfunc()
    assert (a - b).to_ratfunc() == a.to_ratfunc() - b.to_ratfunc()
    assert (a * b).to_ratfunc() == a.to_ratfunc() * b.to_ratfunc()
    assert (a * k).to_ratfunc() == a.to_ratfunc() * k


def test_cyclotomic_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    for d in range(1, 31):
        want = sympy.Poly(sympy.cyclotomic_poly(d, q), q).all_coeffs()[::-1]
        assert list(cyclotomic(d)) == want, d


@settings(max_examples=60, deadline=None)
@given(int_laurents(), st.lists(st.sampled_from([3, 4, 6, 8]), max_size=3),
       st.lists(st.sampled_from([3, 4, 5, 6, 8, 10]), max_size=4),
       st.integers(0, 2), st.integers(-3, 3))
def test_over_cyclotomics_is_the_reduced_quotient(c, factors, orders, k, e):
    """Trial division gives the canonical form that Euclid's gcd gives."""
    for d in factors:            # make common factors likely
        c = c * IntLaurent(cyclotomic(d))
    cofactor = IntLaurent([1], e)
    for _ in range(k):
        cofactor = cofactor * IntLaurent([-1, 1])
    den = ONE
    for d in orders:
        den = den * RatFuncQ(QPoly(cyclotomic(d)))
    want = c.to_ratfunc() * cofactor.to_ratfunc() / den
    got = over_cyclotomics(c, orders, cofactor)
    assert (got.num, got.den) == (want.num, want.den)


# -- Q(q) with cyclotomic denominators ----------------------------------------------


def _refused(divisor, sympy, q):
    """A CycloQ division may refuse only a numerator with a factor other than
    q and the Phi_d."""
    num, _ = sympy.fraction(sympy.cancel(sympy.together(divisor)))
    factors = sympy.factor_list(sympy.Poly(num, q))[1]
    assert not all(f.is_cyclotomic or f.as_expr() == q for f, _ in factors)


def _random_expr(rng, depth, sympy, q):
    """A random expression over +-q^k, 1 - q^a and small ints, as a triple
    (CycloQ, RatFuncQ, sympy expression)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            k, sign = rng.randint(-3, 3), rng.choice((1, -1))
            return sign * CycloQ(IntLaurent([1], k)), sign * qpow(k), sign * q**k
        if kind == 1:
            a = rng.randint(1, 6)
            return 1 - CycloQ(IntLaurent([1], a)), ONE - qpow(a), 1 - q**a
        n = rng.randint(-3, 3)
        return CycloQ(IntLaurent([n])), RatFuncQ.const(n), sympy.Integer(n)
    a = _random_expr(rng, depth - 1, sympy, q)
    op = rng.choice("+-*/^")
    if op == "^":
        e = rng.randint(-2, 3)
        if e < 0 and not a[1]:
            e = -e
        try:
            return a[0] ** e, a[1] ** e, a[2] ** e
        except ArithmeticError:
            _refused(a[2], sympy, q)
            return a
    b = _random_expr(rng, depth - 1, sympy, q)
    if op == "+":
        return a[0] + b[0], a[1] + b[1], a[2] + b[2]
    if op == "-":
        return a[0] - b[0], a[1] - b[1], a[2] - b[2]
    if op == "*":
        return a[0] * b[0], a[1] * b[1], a[2] * b[2]
    if not b[1]:
        return a
    try:
        return a[0] / b[0], a[1] / b[1], a[2] / b[2]
    except ArithmeticError:
        _refused(b[2], sympy, q)
        return a


@pytest.mark.parametrize("seed", range(12))
def test_cyclo_matches_euclid_and_sympy(seed):
    """CycloQ agrees with RatFuncQ's Euclid path and with sympy.cancel."""
    import random

    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rng = random.Random(seed)
    exprs = [_random_expr(rng, 4, sympy, q) for _ in range(6)]
    for (c, r, e), (c2, r2, _) in zip(exprs, exprs[1:] + exprs[:1]):
        got = c.to_ratfunc()
        assert (got.num, got.den) == (r.num, r.den) and str(got) == str(r)
        assert (c == c2) == (r == r2)
        assert CycloQ.from_ratfunc(r) == c
        num, den = sympy.fraction(sympy.cancel(sympy.together(e)))
        lead = sympy.Poly(den, q, domain="QQ").LC()
        for part, want in ((num, got.num), (den, got.den)):
            cs = sympy.Poly(part / lead, q, domain="QQ").all_coeffs()[::-1]
            assert [Fraction(int(x.p), int(x.q)) for x in cs] == list(want.coeffs)


def test_cyclo_canonical_form():
    q = CycloQ(IntLaurent([1], 1))
    x = (1 - q**4) / (2 - 2 * q)
    assert (x.num, x.orders, x.content) == (IntLaurent([1, 1, 1, 1]), (), 2)
    y = 3 * q**-2 / ((1 + q**2) * (1 - q**3))
    assert (y.num, y.orders, y.content) == (IntLaurent([-3], -2), (1, 3, 4), 1)
    assert y * (1 - q**3) == 3 * q**-2 / (1 + q**2)
    assert y.to_ratfunc() == 3 * qpow(-2) / ((ONE + Q**2) * (ONE - Q**3))
    assert CycloQ(IntLaurent([-1, 0, 1]), (2, 1), 4) == CycloQ(IntLaurent([1]), (), 4)
    assert not (q - q) and (q - q) == 0 and CycloQ(IntLaurent([-2]), (), 6) == Fraction(-1, 3)


def test_cyclo_refuses_non_cyclotomic_divisors():
    q = CycloQ(IntLaurent([1], 1))
    for divisor in (2 * q + 1, q**2 + 3 * q + 1, q**2 - 2, 1 - q + q**2 + q**4):
        with pytest.raises(ArithmeticError):
            1 / divisor
    with pytest.raises(ArithmeticError):
        CycloQ.from_ratfunc(ONE / (Q**2 - RatFuncQ.const(2)))
    with pytest.raises(DivisionByZero):
        q / (q - q)
