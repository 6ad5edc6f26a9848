import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.ratfunc import (
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
    f = ONE / (Q - ONE)
    with pytest.raises(PoleError):
        f.eval_at(1)


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
    # 2q (q^2 - 1) / (4 q^2 Phi_1 Phi_2 Phi_4) and 1 / (2q Phi_4)
    a = RatFuncQ(IntLaurent([-2, 0, 2], -1), (4, 2, 1), 4)
    b = RatFuncQ(IntLaurent([1], -1), (4,), 2)
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.orders, a.content) == (IntLaurent([1], -1), (4,), 2)
    assert a.as_coeff_arrays() == (["1/2"], ["0", "1", "0", "1"])


def test_serialization():
    num, den = ((ONE + qpow(-1)) / (ONE - qpow(-1))).as_coeff_arrays()
    assert num == ["1", "1"] and den == ["-1", "1"]
    assert format_fraction(Fraction(32, 27)) == "32/27"
    assert format_fraction(Fraction(4)) == "4"


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


ORDERS = [1, 2, 3, 4, 5, 6, 8, 10]


@st.composite
def ratfuncs(draw):
    """c * num / prod(Phi_d for d in orders): a nonzero Fraction c, cyclotomic
    orders (the denominators of every value in Q(q)) and a random IntLaurent
    num, or an invertible one, q^k times a product of Phi_d."""
    lo = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        num = IntLaurent(draw(st.lists(st.integers(-4, 4), max_size=5)), lo)
    else:
        num = IntLaurent([1], lo)
        for d in draw(st.lists(st.sampled_from(ORDERS), max_size=3)):
            num = num * IntLaurent(cyclotomic(d))
    c = draw(small_fracs.filter(bool))
    orders = draw(st.lists(st.sampled_from(ORDERS), max_size=3))
    return RatFuncQ(num * c.numerator, orders, c.denominator)


def _has_non_cyclotomic_factor(x: RatFuncQ) -> bool:
    """Whether sympy finds a factor other than q and the Phi_d in x's numerator."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    poly = sympy.Poly(list(reversed(x.num.coeffs)), q)
    return not all(f.is_cyclotomic or f.as_expr() == q for f, _ in sympy.factor_list(poly)[1])


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - a) == ZERO
    if b:
        try:
            quotient = a / b
        except ArithmeticError:
            # only a numerator with a non-cyclotomic factor is not invertible
            assert _has_non_cyclotomic_factor(b)
        else:
            assert quotient * b == a


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


def _sympy_arrays(expr, sympy, q):
    """sympy.cancel's reduced fraction with a monic denominator, as the
    coefficient strings of as_coeff_arrays."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.Poly(den, q, domain="QQ").LC()
    return tuple([format_fraction(Fraction(int(c.p), int(c.q)))
                  for c in sympy.Poly(part / lead, q, domain="QQ").all_coeffs()[::-1]]
                 for part in (num, den))


def test_canonical_form_against_sympy_cancel():
    """Canonical forms equal sympy.cancel, normalised to a monic denominator."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    atoms = [
        (Q + ONE, q + 1),
        (ONE - qpow(-2), 1 - q**-2),
        ((Q**2 - ONE) / (Q**3 + Q), (q**2 - 1) / (q**3 + q)),
        (Fraction(3, 4) * Q**2 - Fraction(1, 2), sympy.Rational(3, 4) * q**2 - q**0 / 2),
        (w_factor(2, qpow(-1)), (1 - q**-1) * (1 - q**-2)),
    ]
    cases = []
    for (a, ea), (b, eb) in itertools.product(atoms, repeat=2):
        cases += [(a + b, ea + eb), (a * b, ea * eb)]
        try:
            cases.append((a / b, ea / eb))
        except ArithmeticError:
            _refused(eb, sympy, q)          # 3q^2/4 - 1/2 is not c * q^k * prod Phi_d
    assert len(cases) == 2 * 25 + 20
    for got, expr in cases:
        assert got.as_coeff_arrays() == _sympy_arrays(expr, sympy, q)


# -- Euclid's reduction on QPoly pairs: the reference for the cyclotomic form ------------


def _reduce(num: QPoly, den: QPoly) -> tuple:
    """num / den reduced by poly_gcd, with a monic denominator."""
    g = poly_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading()
    return num.scale(1 / lead), den.scale(1 / lead)


def _laurent_pair(x: IntLaurent) -> tuple:
    return (QPoly((0,) * max(x.lo, 0) + x.coeffs), QPoly.q_power(max(-x.lo, 0)))


def _e_add(a, b):
    return _reduce(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _e_mul(a, b):
    return _reduce(a[0] * b[0], a[1] * b[1])


def _e_pow(a, e):
    num, den = a if e >= 0 else a[::-1]
    return _reduce(num ** abs(e), den ** abs(e))


def _arrays(pair) -> tuple:
    return tuple([format_fraction(c) for c in p.coeffs] for p in pair)


def _pair_str(pair) -> str:
    num, den = pair
    return str(num) if den == QPoly.const(1) else f"({num})/({den})"


# -- Z[q^+-1] and cyclotomic reduction -------------------------------------------------


def test_int_laurent_normal_form():
    assert IntLaurent([0, 0, 3, 0], -1) == IntLaurent([3], 1)
    assert IntLaurent([0, 0]) == IntLaurent() and not IntLaurent([0])
    assert IntLaurent.from_terms({-2: 1, 0: -1, 5: 0}) == IntLaurent([1, 0, -1], -2)
    assert IntLaurent([1, 1], -1) - IntLaurent([1], -1) == IntLaurent([1])
    assert IntLaurent([1, 1]) * IntLaurent([-1, 1]) == IntLaurent([-1, 0, 1])
    assert RatFuncQ(IntLaurent([2, 3], -2)) == 2 * qpow(-2) + 3 * qpow(-1)
    assert str(IntLaurent([2, 3], 1)) == str(2 * Q + 3 * Q**2) == "2*q + 3*q^2"
    assert str(IntLaurent([2, 3], -2)) == "(2 + 3*q)/(q^2)"


def int_laurents():
    return st.builds(IntLaurent, st.lists(st.integers(-4, 4), max_size=5),
                     st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(int_laurents(), int_laurents(), st.integers(-3, 3))
def test_int_laurent_matches_ratfunc(a, b, k):
    assert RatFuncQ(a + b) == RatFuncQ(a) + RatFuncQ(b)
    assert RatFuncQ(a - b) == RatFuncQ(a) - RatFuncQ(b)
    assert RatFuncQ(a * b) == RatFuncQ(a) * RatFuncQ(b)
    assert RatFuncQ(a * k) == RatFuncQ(a) * k
    ea, eb, ek = _laurent_pair(a), _laurent_pair(b), (QPoly.const(k), QPoly.const(1))
    for got, want in ((a + b, _e_add(ea, eb)), (a - b, _e_add(ea, (-eb[0], eb[1]))),
                      (a * b, _e_mul(ea, eb)), (a * k, _e_mul(ea, ek))):
        assert RatFuncQ(got).as_coeff_arrays() == _arrays(want)


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
    """Trial division gives the canonical form that Euclid's gcd gives, for
    c * cofactor / prod Phi_d as Psi's coefficients build it."""
    for d in factors:            # make common factors likely
        c = c * IntLaurent(cyclotomic(d))
    cofactor = IntLaurent([1], e)
    for _ in range(k):
        cofactor = cofactor * IntLaurent([-1, 1])
    den = QPoly.const(1)
    for d in orders:
        den = den * QPoly(cyclotomic(d))
    want = _e_mul(_e_mul(_laurent_pair(c), _laurent_pair(cofactor)), (QPoly.const(1), den))
    got = RatFuncQ(c * cofactor, orders)
    assert got.as_coeff_arrays() == _arrays(want)
    assert str(got) == _pair_str(want)


# -- Q(q) with cyclotomic denominators ----------------------------------------------


def _refused(divisor, sympy, q):
    """A division may refuse only a numerator with a factor other than q and
    the Phi_d."""
    num, _ = sympy.fraction(sympy.cancel(sympy.together(divisor)))
    factors = sympy.factor_list(sympy.Poly(num, q))[1]
    assert not all(f.is_cyclotomic or f.as_expr() == q for f, _ in factors)


def _random_expr(rng, depth, sympy, q):
    """A random expression over +-q^k, 1 - q^a and small ints, as a triple
    (RatFuncQ, Euclid-reduced QPoly pair, sympy expression)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            k, sign = rng.randint(-3, 3), rng.choice((1, -1))
            return sign * qpow(k), _laurent_pair(IntLaurent([sign], k)), sign * q**k
        if kind == 1:
            a = rng.randint(1, 6)
            return 1 - qpow(a), (QPoly((1,) + (0,) * (a - 1) + (-1,)), QPoly.const(1)), 1 - q**a
        n = rng.randint(-3, 3)
        return RatFuncQ.const(n), (QPoly.const(n), QPoly.const(1)), sympy.Integer(n)
    a = _random_expr(rng, depth - 1, sympy, q)
    op = rng.choice("+-*/^")
    if op == "^":
        e = rng.randint(-2, 3)
        if e < 0 and not a[1][0]:
            e = -e
        try:
            return a[0] ** e, _e_pow(a[1], e), a[2] ** e
        except ArithmeticError:
            _refused(a[2], sympy, q)
            return a
    b = _random_expr(rng, depth - 1, sympy, q)
    if op == "+":
        return a[0] + b[0], _e_add(a[1], b[1]), a[2] + b[2]
    if op == "-":
        return a[0] - b[0], _e_add(a[1], (-b[1][0], b[1][1])), a[2] - b[2]
    if op == "*":
        return a[0] * b[0], _e_mul(a[1], b[1]), a[2] * b[2]
    if not b[1][0]:
        return a
    try:
        return a[0] / b[0], _e_mul(a[1], b[1][::-1]), a[2] / b[2]
    except ArithmeticError:
        _refused(b[2], sympy, q)
        return a


@pytest.mark.parametrize("seed", range(12))
def test_cyclo_matches_euclid_and_sympy(seed):
    """RatFuncQ agrees with Euclid's reduction of QPoly pairs and with sympy.cancel."""
    import random

    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rng = random.Random(seed)
    exprs = [_random_expr(rng, 4, sympy, q) for _ in range(6)]
    for (c, r, e), (c2, r2, _) in zip(exprs, exprs[1:] + exprs[:1]):
        assert c.as_coeff_arrays() == _arrays(r) and str(c) == _pair_str(r)
        assert (c == c2) == (r == r2)
        assert c.as_coeff_arrays() == _sympy_arrays(e, sympy, q)


def test_eval_at_poles_and_sympy_values():
    import random

    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    for f, pole in ((qpow(-2), 0), (ONE / (Q - ONE), 1), (ONE / (Q + ONE), -1)):
        with pytest.raises(PoleError):
            f.eval_at(pole)
    assert qpow(2).eval_at(0) == 0 and (ONE / (Q + ONE)).eval_at(1) == Fraction(1, 2)
    points = [Fraction(x) for x in (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))]
    rng = random.Random(0)
    checked = poles = 0
    for _ in range(40):
        c, _, e = _random_expr(rng, 4, sympy, q)
        reduced = sympy.cancel(sympy.together(e))
        for q0 in points:
            want = reduced.subs(q, sympy.Rational(q0.numerator, q0.denominator))
            if want.has(sympy.zoo, sympy.nan):
                with pytest.raises(PoleError):
                    c.eval_at(q0)
                poles += 1
            else:
                got = c.eval_at(q0)
                assert isinstance(got, Fraction) and got == Fraction(int(want.p), int(want.q))
                checked += 1
    assert checked > 200 and poles > 5


def test_compares_and_hashes_with_foreign_operands():
    one = RatFuncQ(IntLaurent([1]))
    assert ONE == one and one == 1 and one == Fraction(1) and one != qpow(1)
    assert (RatFuncQ.const(1) == None) is False     # noqa: E711
    assert RatFuncQ.const(1) != "x" and (RatFuncQ.const(1) == object()) is False
    assert {ONE: 1}[RatFuncQ.const(1)] == 1
    assert hash(ONE / (ONE + Q)) == hash(qpow(-1) / (qpow(-1) + ONE))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__rsub__", "__rtruediv__"):
        assert getattr(ONE, op)(IntLaurent([1])) is NotImplemented
    with pytest.raises(TypeError):
        ONE * object()
    with pytest.raises(TypeError):
        1.5 + ONE



def test_intlaurent_add_and_sub_refuse_foreign_operands():
    # IntLaurent and RatFuncQ do not mix: both orders raise TypeError, and
    # the IntLaurent side says NotImplemented as its __mul__ does
    one = IntLaurent([1])
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(one, op)(ONE) is NotImplemented
        assert getattr(one, op)(object()) is NotImplemented
    for a, b in ((one, ONE), (ONE, one)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    assert one + IntLaurent([0, 1]) == IntLaurent([1, 1])
    assert one - one == IntLaurent()

def test_cyclo_canonical_form():
    x = (1 - Q**4) / (2 - 2 * Q)
    assert (x.num, x.orders, x.content) == (IntLaurent([1, 1, 1, 1]), (), 2)
    y = 3 * Q**-2 / ((1 + Q**2) * (1 - Q**3))
    assert (y.num, y.orders, y.content) == (IntLaurent([-3], -2), (1, 3, 4), 1)
    assert y * (1 - Q**3) == 3 * Q**-2 / (1 + Q**2)
    # the monic denominator q^2 (q^3 - 1)(q^2 + 1)
    assert str(y) == "(-3)/(-q^2 - q^4 + q^5 + q^7)"
    assert y.as_coeff_arrays() == (["-3"], ["0", "0", "-1", "0", "-1", "1", "0", "1"])
    assert RatFuncQ(IntLaurent([-1, 0, 1]), (2, 1), 4) == RatFuncQ(IntLaurent([1]), (), 4)
    assert not (Q - Q) and (Q - Q) == 0 and RatFuncQ(IntLaurent([-2]), (), 6) == Fraction(-1, 3)
    assert (Q + ONE) ** 5 == (Q + ONE) * (Q + ONE) * (Q + ONE) * (Q + ONE) * (Q + ONE)
    assert (ONE - Q) ** -3 * (ONE - Q) ** 3 == ONE


def test_cyclo_refuses_non_cyclotomic_divisors():
    for divisor in (2 * Q + 1, Q**2 + 3 * Q + 1, Q**2 - 2, 1 - Q + Q**2 + Q**4):
        with pytest.raises(ArithmeticError):
            1 / divisor
    with pytest.raises(DivisionByZero):
        Q / (Q - Q)


def test_inverse_round_trips_on_symbolic_suite_values(monkeypatch):
    # the inverses one `verify --suite symbolic` takes, each through the cached
    # factorisation, and the powers of q it inverts most; with them those of
    # the residue oracle over the suite's pairings, which the suite took while
    # the pairing was a residue sum (the closed moments take fewer)
    from oracles import residue_inner
    from quatherm import plancherel, verify

    for k in range(-6, 7):
        assert qpow(k) ** -1 == qpow(-k)
    inverted = []
    real = RatFuncQ.inverse
    monkeypatch.setattr(RatFuncQ, "inverse", lambda x: inverted.append(x) or real(x))
    verify.run_suite("symbolic")
    for a in verify.PLANCHEREL_SET:
        for b in verify.PLANCHEREL_SET:
            fa, fb = plancherel.f_hat_size2(a), plancherel.f_hat_size2(b)
            if fa.x_exp == fb.x_exp:
                ya = plancherel._y_part(fa, Q, qpow(-2))
                yb = plancherel._y_part(fb, Q, qpow(-2))
                residue_inner(ya, yb, Q, qpow(-2))
    monkeypatch.undo()
    assert len(set(inverted)) >= 10
    for x in set(inverted):
        assert x.inverse() * x == ONE
        assert x.inverse() == x ** -1 and str(x.inverse()) == str(real(x))
