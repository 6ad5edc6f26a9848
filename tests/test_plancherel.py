from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    WeightW,
    residue_inner,
    residue_integral,
    weight_w,
    y_conj,
    y_mul,
    y_symmetric,
)
from quatherm.bivar import BivarPoly, BivarRat
from quatherm import ratfunc
from quatherm.plancherel import (
    TransformValue,
    UncataloguedPole,
    _y_part,
    f_hat_size2,
    h_poly,
    inversion_check,
    norm_constant,
    orbit_volume,
    plancherel_check,
    transform_pairing,
    y_inner,
    y_integral,
)
from quatherm.density import density_self_closed
from quatherm.ratfunc import ONE, Q, RatFuncQ, qpow
from quatherm.spherical import psi_explicit
from quatherm.verify import PLANCHEREL_SET, orthogonality_suite

U1 = BivarRat.u(1)
U2 = BivarRat.u(2)
ONEB = BivarRat.const(1)

PAIR_SET = [(0, 0), (2, 0), (2, 2), (1, 1), (3, 3)]


def test_bivar_equality_cross_multiplies():
    # (1 - u1^2) / (1 - u1) equals 1 + u1 without any gcd computation
    lhs = (ONEB - U1 * U1) / (ONEB - U1)
    assert lhs == ONEB + U1
    assert BivarPoly.const(0) == BivarPoly({})


def test_bivar_sum_over_a_shared_denominator():
    # equal denominators add numerators; the value is the cross-multiplied sum
    den = (ONEB - U1 * U2).num
    a, b = BivarRat(U1.num, den), BivarRat((ONEB + U2).num, den)
    got = a + b
    assert got.den == den and got.num == U1.num + (ONEB + U2).num
    assert got == BivarRat(a.num * b.den + b.num * a.den, a.den * b.den)
    assert (a - a).num == BivarPoly() and (a - a).den == den


def test_h1_value():
    h1 = h_poly(1, U1, U2)
    c = ONEB - U1 * U2
    assert set(h1) == {1, -1}
    assert h1[1] == c and h1[-1] == c


def test_h_leading_terms_and_symmetry():
    for ell in range(1, 6):
        h = h_poly(ell, U1, U2)
        assert max(h) == ell
        assert y_symmetric(h)
        if ell > 1:
            assert h[ell] == ONEB


def test_weight_mass():
    got = y_integral({0: ONEB}, U1, U2)
    assert got == ONEB / ((ONEB + U1) * (ONEB + U2) * (ONEB - U1 * U2))


def test_weight_object():
    w = weight_w(Fraction(1, 2), Fraction(1, 3))
    # invariant under W -> 1/W, vanishes at W = 1 (points away from poles)
    for pt in (Fraction(5), Fraction(5, 7), Fraction(-3)):
        assert w.value(pt) == w.value(1 / pt)
    assert w.value(Fraction(1)) == 0
    # the residue integrand is w(W)/W with the numerator cleared:
    # w(W)/W = -(1-W)^2 / ((1-u1 W)(1-u2 W)(W-u1)(W-u2))
    u1, u2 = w.u1, w.u2
    for pt in (Fraction(5), Fraction(5, 7)):
        lhs = w.value(pt) / pt
        rhs = -((1 - pt) ** 2) / ((1 - u1 * pt) * (1 - u2 * pt)
                                  * (pt - u1) * (pt - u2))
        assert lhs == rhs
    assert w.poles_inside == ("W = 0", "W = u1", "W = u2")


def test_weight_pole_guard():
    with pytest.raises(UncataloguedPole):
        y_integral({0: Fraction(1)}, Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("l", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_orthogonality_bivariate(l, m):
    got = y_inner(h_poly(l, U1, U2), h_poly(m, U1, U2), U1, U2)
    if l == m == 1:
        assert got == ONEB - U1 * U2
    elif l == m:
        assert got == ONEB
    else:
        assert got == BivarRat.const(0)


@pytest.mark.parametrize("l", range(1, 5))
def test_h_against_weight_vanishes(l):
    assert y_integral(h_poly(l, U1, U2), U1, U2) == BivarRat.const(0)


def test_orthogonality_suite_keys():
    pairs = [(1, 1), (1, 2), (3, 3)]
    got = orthogonality_suite(pairs, vanishing=(2,))
    assert got == [(("inner", 1, 1), True), (("inner", 1, 2), True),
                   (("inner", 3, 3), True), (("vanishing", 2), True),
                   (("weight-mass",), True)]


def test_parameter_swap_invariance():
    # residue bookkeeping is symmetric in the two catalogued poles
    f = y_mul(h_poly(2, U1, U2), y_conj(h_poly(2, U1, U2)))
    a = y_integral(f, U1, U2)
    g = y_mul(h_poly(2, U2, U1), y_conj(h_poly(2, U2, U1)))
    b = y_integral(g, U2, U1)
    assert a == b


def test_f_hat_cases():
    tv = f_hat_size2((2, 2))
    assert tv == TransformValue(ONE / (ONE + qpow(-2)), 3, 1)
    tv = f_hat_size2((2, 0))
    assert tv.scalar == Q * (ONE - qpow(-1)) / (ONE + qpow(-2))
    assert tv.x_exp == 2 and tv.h_index == 2
    tv = f_hat_size2((1, 1))
    assert tv == TransformValue((ONE - qpow(-2)) / (ONE + qpow(-2)), 2, None)
    tv = f_hat_size2((3, 3))
    assert tv.x_exp == 4 and tv.h_index is None


def test_orbit_volume_cases_and_density_link():
    assert orbit_volume((2, 2)) == ONE
    assert orbit_volume((4, 0)) == qpow(4) * (ONE - qpow(-1))
    assert orbit_volume((1, 1)) == qpow(-1) * (ONE + qpow(-1)) / (ONE + qpow(-2))
    # volume is q^(3|alpha|/2) / self-density, normalized at the unit orbit
    c = density_self_closed((0, 0))
    for alpha in PAIR_SET:
        expect = qpow(3 * sum(alpha) // 2) * c / density_self_closed(alpha)
        assert orbit_volume(alpha) == expect


def test_transform_matches_volume_times_psi():
    from quatherm.plancherel import _y_part

    u1, u2 = Q, qpow(-2)
    for alpha in PAIR_SET:
        tv = f_hat_size2(alpha)
        psi = psi_explicit(alpha, 2)
        vol = orbit_volume(alpha)
        regroup = {}
        for (e1, e2), cc in psi.terms.items():
            regroup.setdefault(e1 + e2, {})[e2 - e1] = cc * vol
        ypart = _y_part(tv, u1, u2)
        assert regroup == {tv.x_exp: {k: c * tv.scalar for k, c in ypart.items()}}


def test_plancherel_and_inversion():
    for a in PAIR_SET:
        for b in PAIR_SET:
            assert plancherel_check(a, b)
            assert inversion_check(a, b)


def test_plancherel_norm_chain():
    prenorm = (ONE - qpow(-1)) / (ONE + qpow(-2)) ** 2
    for alpha in PAIR_SET:
        got = transform_pairing(alpha, alpha) / norm_constant()
        assert got == orbit_volume(alpha) * prenorm


def test_cross_exponent_pairs_vanish():
    # (2,0) and (1,1) share the x-character; orthogonality comes from the
    # y-integral of the index-2 member against the constant
    assert f_hat_size2((2, 0)).x_exp == f_hat_size2((1, 1)).x_exp
    assert transform_pairing((2, 0), (1, 1)) == RatFuncQ.const(0)


# -- the pairing against the generic route over RatFuncQ ------------------------------

# size-2 labels with entries <= 8: even (2 l1, 2 l2) and odd (e, e)
GRID = [(0, 0), (2, 0), (2, 2), (1, 1), (3, 3), (4, 0), (4, 2), (4, 4), (5, 5), (6, 2),
        (8, 0), (7, 7)]


def _generic_pairing(alpha, beta):
    """The pairing with every scalar, the integral and the norm computed
    generically over RatFuncQ at u1 = Q and u2 = q^-2, apart from the library's
    transforms and norm constant."""
    def scalar_and_exp(a):
        if a[0] % 2 == 0:
            l1, l2 = a[0] // 2, a[1] // 2
            if l1 == l2:
                return ONE / (ONE + qpow(-2)), l1 + l2 + 1
            return qpow(l1 - l2) * (ONE - qpow(-1)) / (ONE + qpow(-2)), l1 + l2 + 1
        return (ONE - qpow(-2)) / (ONE + qpow(-2)), a[0] + 1

    (sa, xa), (sb, xb) = scalar_and_exp(alpha), scalar_and_exp(beta)
    if xa != xb:
        return RatFuncQ.const(0)
    u1, u2 = Q, qpow(-2)
    ya = _y_part(f_hat_size2(alpha), u1, u2)
    yb = _y_part(f_hat_size2(beta), u1, u2)
    norm = (ONE + qpow(-2)) ** 2 / (ONE - qpow(-1))
    return sa * sb * y_inner(ya, yb, u1, u2) * norm


def test_transform_pairing_matches_generic_route():
    for a in GRID:
        for b in GRID:
            got, want = transform_pairing(a, b), _generic_pairing(a, b)
            assert got == want and str(got) == str(want), (a, b)


CLI_JOBS = [
    ["spherical", "--alpha", "1,1,0,0", "--what", "psi"],
    ["spherical", "--alpha", "2,0,0,0", "--what", "main-term"],
    ["spherical", "--alpha", "4,4,4", "--what", "hl:GL"],
    ["ideal", "--n", "3", "--alpha", "0,0,0", "--q-spec", "2"],
    ["spherical", "--n", "2", "--alpha", "6,6", "--what", "omega"],
    ["spherical", "--n", "2", "--alpha", "2,0", "--what", "delta"],
    ["density", "--method", "closed", "--alpha", "4,2,0"],
    ["plancherel", "--alpha", "2,0", "--beta", "2,0", "--q", "3"],
    ["plancherel", "--alpha", "2,0", "--symbolic-u"],
]


def test_pairing_and_checks_run_no_gcd(monkeypatch, capsys):
    # no Euclid step anywhere in the library: neither poly_gcd nor QPoly.divmod
    # runs in the pairing, the checks, the symbolic suite or one CLI job of
    # each symbolic kind
    from quatherm.cli import main
    from quatherm.verify import run_suite

    calls = []
    gcd, divmod_ = ratfunc.poly_gcd, ratfunc.QPoly.divmod
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda *args: calls.append("gcd") or gcd(*args))
    monkeypatch.setattr(ratfunc.QPoly, "divmod",
                        lambda *args: calls.append("divmod") or divmod_(*args))
    for a in PLANCHEREL_SET:
        for b in PLANCHEREL_SET:
            pairing = transform_pairing(a, b)
            assert plancherel_check(a, b) and plancherel_check(a, b, pairing)
            assert inversion_check(a, b) and inversion_check(a, b, pairing)
    assert all(c.status == "pass" for c in run_suite("symbolic"))
    for argv in CLI_JOBS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    # both counters are live
    assert ratfunc.poly_gcd(ratfunc.QPoly([-1, 0, 1]), ratfunc.QPoly([1, 1]))
    assert calls == ["gcd", "divmod"]


def test_int_weight_parameters_stay_exact():
    got = y_integral({0: 1}, 2, 3)
    assert got == Fraction(-1, 60) and isinstance(got, Fraction)
    w = WeightW(2, 3)
    assert isinstance(w.value(5), Fraction)
    assert w.value(5) == w.value(Fraction(1, 5))
    with pytest.raises(TypeError):
        y_integral({0: 1}, 0.5, 3)
    with pytest.raises(TypeError):
        w.value(0.5)


def test_bivar_coefficients_are_ints(monkeypatch):
    seen = []
    init = BivarRat.__init__

    def record(self, num, den=None):
        init(self, num, den)
        seen.extend(self.num.terms.values())
        seen.extend(self.den.terms.values())

    monkeypatch.setattr(BivarRat, "__init__", record)
    pairs = [(l, m) for l in range(1, 5) for m in range(1, 5)]
    assert all(ok for _, ok in orthogonality_suite(pairs, vanishing=range(1, 5)))
    assert seen and all(type(c) is int for c in seen)


def test_bivar_division_parity():
    assert (1 / U1) * U1 == 1
    assert 2 / (ONEB + U2) == BivarRat(BivarPoly.const(2), (ONEB + U2).num)
    assert U1 / Fraction(2, 3) == U1 * Fraction(3, 2)
    assert BivarRat.const(Fraction(2, 3)) / Fraction(4, 9) == Fraction(3, 2)
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): 0.5})


# -- the closed moments against the residue oracle ------------------------------------

MOMENT_POINTS = {
    "small": (Fraction(1, 3), Fraction(1, 5)),
    "mixed": (Fraction(5, 2), Fraction(-2, 7)),
    "q": (Q, qpow(-2)),
    "bivariate": (U1, U2),
}


@pytest.mark.parametrize("point", MOMENT_POINTS)
def test_moments_match_residue_oracle(point):
    # m_k for |k| <= 12 (W^k = Y^(2k)); odd powers of Y integrate to zero
    u1, u2 = MOMENT_POINTS[point]
    one = u1**0
    for k in range(-12, 13):
        f = {2 * k: one}
        assert y_integral(f, u1, u2) == residue_integral(f, u1, u2), k
        assert y_integral({2 * k + 1: one}, u1, u2) == 0, k


def test_plancherel_set_pairings_match_residue_oracle():
    u1, u2 = Q, qpow(-2)
    for a in PLANCHEREL_SET:
        for b in PLANCHEREL_SET:
            fa, fb = f_hat_size2(a), f_hat_size2(b)
            ya, yb = _y_part(fa, u1, u2), _y_part(fb, u1, u2)
            inner = residue_inner(ya, yb, u1, u2)
            assert y_inner(ya, yb, u1, u2) == inner, (a, b)
            want = (fa.scalar * fb.scalar * inner * norm_constant()
                    if fa.x_exp == fb.x_exp else RatFuncQ.const(0))
            got = transform_pairing(a, b)
            assert got == want and str(got) == str(want), (a, b)


y_dicts = st.dictionaries(st.integers(-9, 9), st.fractions(max_denominator=12), max_size=7)
weight_parameters = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@given(f=y_dicts, g=y_dicts, u1=weight_parameters, u2=weight_parameters)
@settings(max_examples=80, deadline=None)
def test_integral_and_inner_match_residue_oracle(f, g, u1, u2):
    assume(u1 and u2 and u1 != u2 and abs(u1) != 1 and abs(u2) != 1 and u1 * u2 != 1)
    assert y_integral(f, u1, u2) == residue_integral(f, u1, u2)
    assert y_inner(f, g, u1, u2) == residue_inner(f, g, u1, u2)


POLE_CASES = [
    ("equal", Fraction(1, 3), Fraction(1, 3), UncataloguedPole),
    ("zero-u1", 0, Fraction(1, 3), UncataloguedPole),
    ("zero-u2", Fraction(1, 3), Fraction(0), UncataloguedPole),
    ("u1-one", 1, Fraction(1, 3), ZeroDivisionError),
    ("u2-minus-one", Fraction(1, 3), -1, ZeroDivisionError),
    ("product-one", Fraction(3), Fraction(1, 3), ZeroDivisionError),
    ("float", 0.5, Fraction(1, 3), TypeError),
    ("float-equal", 0.5, 0.5, TypeError),
    ("bivariate-equal", U1, U1, UncataloguedPole),
    ("bivariate-one", ONEB, U2, ZeroDivisionError),
    ("bivariate-product-one", U1, 1 / U1, ZeroDivisionError),
]


@pytest.mark.parametrize("case", POLE_CASES, ids=[c[0] for c in POLE_CASES])
def test_weight_parameter_errors(case):
    _, u1, u2, exc = case
    one = u1**0 if not isinstance(u1, float) else 1
    for integral in (y_integral, residue_integral):
        with pytest.raises(exc):
            integral({-2: one, 0: one, 4: one}, u1, u2)
    for inner in (y_inner, residue_inner):
        with pytest.raises(exc):
            inner({1: one}, {-1: one, 3: one}, u1, u2)
    if exc is not ZeroDivisionError:
        with pytest.raises(exc):
            y_integral({}, u1, u2)
    else:
        # no even power, nothing to divide: the integral is zero
        assert y_integral({1: one}, u1, u2) == residue_integral({1: one}, u1, u2) == 0
        assert y_integral({0: one - one}, u1, u2) == 0
