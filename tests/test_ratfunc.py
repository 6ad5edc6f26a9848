import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.ratfunc import (
    DivisionByZero,
    ONE,
    PoleError,
    Q,
    QPoly,
    RatFuncQ,
    ZERO,
    format_fraction,
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
