from fractions import Fraction

import pytest

from quatherm.bivar import BivarPoly, BivarRat
from quatherm.plancherel import (
    TransformValue,
    UncataloguedPole,
    f_hat_size2,
    h_poly,
    inversion_check,
    norm_constant,
    orbit_volume,
    plancherel_check,
    transform_pairing,
    y_conj,
    y_inner,
    y_integral,
    y_mul,
    y_symmetric,
)
from quatherm.density import density_self_closed
from quatherm.ratfunc import ONE, Q, RatFuncQ, qpow
from quatherm.spherical import psi_explicit
from quatherm.verify import orthogonality_suite

U1 = BivarRat.u(1)
U2 = BivarRat.u(2)
ONEB = BivarRat.const(1)

PAIR_SET = [(0, 0), (2, 0), (2, 2), (1, 1), (3, 3)]


def test_bivar_equality_cross_multiplies():
    # (1 - u1^2) / (1 - u1) equals 1 + u1 without any gcd computation
    lhs = (ONEB - U1 * U1) / (ONEB - U1)
    assert lhs == ONEB + U1
    assert BivarPoly.const(0) == BivarPoly({})


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
    from quatherm.plancherel import weight_w

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
