import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.laurent import (
    LaurentPoly,
    NonExactDivision,
    _blocks,
    _kostka_row,
    _normalized,
    alternant_sum,
    orbit_sum,
    sub_scaled,
    symmetric_sum,
)
from quatherm.ratfunc import ONE, Q, IntLaurent, RatFuncQ, qpow
from quatherm.spherical import _main_term_factors, main_term, psi_explicit

from oracles import elementary_symmetric


def test_ring_basics():
    x1 = LaurentPoly.variable(2, 0)
    x2 = LaurentPoly.variable(2, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert (x1 * x2).shift((-1, -1)) == LaurentPoly.constant(2, 1)
    p = LaurentPoly.binomial(2, 0, 1, Q)
    assert p.coefficient((0, 1)) == -Q
    assert (p ** 2).coefficient((1, 1)) == -2 * Q


def test_scale_by_intlaurent_in_either_order():
    one_plus_q = IntLaurent([1, 1])
    want = LaurentPoly.constant(2, RatFuncQ(one_plus_q))
    assert LaurentPoly.constant(2, 1) * one_plus_q == want
    assert one_plus_q * LaurentPoly.constant(2, 1) == want


def test_scale_by_fraction_in_either_order():
    # every operand that is not a LaurentPoly is a scalar
    half = Fraction(1, 2)
    want = LaurentPoly.constant(2, RatFuncQ.const(half))
    assert LaurentPoly.constant(2, 1) * half == want
    assert half * LaurentPoly.constant(2, 1) == want


def test_scale_keeps_intlaurent_coefficients():
    # orbit sums have IntLaurent coefficients; int and IntLaurent scalars keep
    # them, other scalars lift them to Q(q)
    p = LaurentPoly(2, {(1, 0): IntLaurent([1]), (0, 1): IntLaurent([2, -1], -1)})
    assert (p * 2).terms == {(1, 0): IntLaurent([2]), (0, 1): IntLaurent([4, -2], -1)}
    assert (3 * p).terms == (p * 3).terms and (p * 0).terms == {}
    got = (p * IntLaurent([1, 1])).terms
    assert got == {(1, 0): IntLaurent([1, 1]), (0, 1): IntLaurent([2, 1, -1], -1)}
    assert all(type(c) is IntLaurent for c in got.values())
    assert p.scale(Fraction(1, 2)).terms == {(1, 0): RatFuncQ.const(Fraction(1, 2)),
                                             (0, 1): (qpow(-1) * 2 - 1) / 2}
    assert (p * Q).terms == {(1, 0): Q, (0, 1): 2 - Q}

@pytest.mark.parametrize("unit", [1, Fraction(1), IntLaurent([1]), ONE])
def test_sub_scaled_in_place(unit):
    # (x0 + x1) - x0 * (1 + 2 x1 / x0 + x0): x0 cancels and is dropped, x1
    # is updated, x0^2 enters negated; the coefficients keep the unit's type
    a = {(1, 0): unit, (0, 1): unit}
    out = sub_scaled(a, {(0, 0): unit, (-1, 1): unit * 2, (1, 0): unit}, unit, (1, 0))
    assert out is a and a == {(0, 1): -unit, (2, 0): -unit}
    assert all(type(c) is type(unit) for c in a.values())


def test_permute_and_symmetry():
    x1 = LaurentPoly.variable(2, 0)
    x2 = LaurentPoly.variable(2, 1)
    assert (x1 + x2).is_symmetric()
    assert not x1.is_symmetric()
    assert x1.permute((1, 0)) == x2
    # sigma sends variable i to variable sigma[i]: x1^2 x2 -> x3^2 x1
    f = LaurentPoly(3, {(2, 1, 0): ONE})
    assert f.permute((2, 0, 1)) == LaurentPoly(3, {(1, 0, 2): ONE})


def test_divide_exact_binomial():
    x1 = LaurentPoly.variable(2, 0)
    x2 = LaurentPoly.variable(2, 1)
    f = (x1 + x2) * LaurentPoly.binomial(2, 0, 1, Q)
    assert f.divide_exact_binomial(0, 1, Q) == x1 + x2
    with pytest.raises(NonExactDivision):
        (x1 * x1 + x2).divide_exact_binomial(0, 1, ONE)
    # Laurent exponents
    g = LaurentPoly(2, {(-1, 0): ONE, (0, -1): ONE}) * LaurentPoly.binomial(2, 0, 1, ONE)
    assert g.divide_exact_binomial(0, 1, ONE) == LaurentPoly(
        2, {(-1, 0): ONE, (0, -1): ONE})


def test_symmetric_sum_spec_values():
    # plain orbit of a single variable: the numerator is the Vandermonde
    assert symmetric_sum(2, (1, 0), [(0, 1, ONE)]) == LaurentPoly(
        2, {(1, 0): ONE, (0, 1): ONE})
    # two-term antisymmetrization with a single numerator binomial
    got = symmetric_sum(2, (0, 0), [(0, 1, qpow(-2))])
    assert got == LaurentPoly.constant(2, ONE + qpow(-2))
    # full size-2 template at the zero label
    got = symmetric_sum(2, (0, 0), [(0, 1, Q), (0, 1, qpow(-2))])
    c = ONE - qpow(-1)
    assert got == LaurentPoly(2, {(1, 0): c, (0, 1): c})


def test_elementary_symmetric():
    e2 = elementary_symmetric(3, 2)
    assert e2 == LaurentPoly(3, {(1, 1, 0): ONE, (1, 0, 1): ONE, (0, 1, 1): ONE})
    assert elementary_symmetric(3, 0) == LaurentPoly.constant(3, 1)


@st.composite
def small_polys(draw):
    n = 2
    nterms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(-2, 3)) for _ in range(n))
        c = draw(st.integers(-3, 3))
        if c:
            terms[e] = RatFuncQ.const(c)
    return LaurentPoly(n, terms)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_mul_commutes_and_distributes(f, g):
    assert f * g == g * f
    h = LaurentPoly(2, {(1, 1): ONE})
    assert (f + g) * h == f * h + g * h


@settings(max_examples=40, deadline=None)
@given(small_polys(), st.integers(-2, 2))
def test_binomial_division_round_trip(f, k):
    d = LaurentPoly.binomial(2, 0, 1, qpow(k))
    assert (f * d).divide_exact_binomial(0, 1, qpow(k)) == f


@settings(max_examples=30, deadline=None)
@given(small_polys())
def test_symmetrization_is_symmetric(f):
    sym = f + f.permute((1, 0))
    assert sym.is_symmetric()
    got = symmetric_sum(2, (0, 0), [(0, 1, ONE)]) * sym
    assert got.is_symmetric()


def test_symmetric_sum_rejects_non_unit_constants():
    with pytest.raises(ValueError):
        symmetric_sum(2, (0, 0), [(0, 1, ONE + Q)])
    with pytest.raises(ValueError):
        symmetric_sum(2, (1, 0), [(0, 1, 2)])
    with pytest.raises(ValueError):
        symmetric_sum(2, (1, 0), [(0, 1, Q / 2)])


# -- the integer engine against LaurentPoly arithmetic and sympy ---------------------


def _orbit_sum_reference(n, mu, num, den):
    """Orbit sum over a common denominator, by LaurentPoly products and
    divide_exact_binomial over Q(q)."""
    lcm, per_sigma = {}, []
    for sigma in itertools.permutations(range(n)):
        fac, sign = {}, 1
        for i, j, c in den:
            i, j = sigma[i], sigma[j]
            if c == ONE and i > j:
                i, j, sign = j, i, -sign
            fac[(i, j, c)] = fac.get((i, j, c), 0) + 1
        per_sigma.append((sigma, fac, sign))
        for key, mult in fac.items():
            lcm[key] = max(lcm.get(key, 0), mult)
    base = LaurentPoly.monomial(n, mu, 1)
    for i, j, c in num:
        base = base * LaurentPoly.binomial(n, i, j, c)
    total = LaurentPoly.zero(n)
    for sigma, fac, sign in per_sigma:
        term = base.permute(sigma).scale(sign)
        for (i, j, c), mult in lcm.items():
            term = term * LaurentPoly.binomial(n, i, j, c) ** (mult - fac.get((i, j, c), 0))
        total = total + term
    for (i, j, c), mult in lcm.items():
        for _ in range(mult):
            total = total.divide_exact_binomial(i, j, c)
    return total


def _vandermonde(n):
    return [(i, j, ONE) for i in range(n) for j in range(i + 1, n)]


@st.composite
def templates(draw):
    # numerator-only templates; about 30 % carry the full Vandermonde, whose
    # orbit sum over the Vandermonde is the plain symmetrization
    n = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    unit = st.builds(lambda s, k: s * qpow(k), st.sampled_from([1, -1]), st.integers(-2, 2))
    binomial = st.builds(lambda ij, c: ij + (c,), st.sampled_from(pairs), unit)
    mu = tuple(draw(st.integers(-1, 2)) for _ in range(n))
    num = draw(st.lists(binomial, max_size=3))
    if draw(st.integers(0, 9)) < 3:
        num += _vandermonde(n)
    return n, mu, num


@settings(max_examples=40, deadline=None)
@given(templates())
def test_integer_engine_matches_laurentpoly_arithmetic(template):
    n, mu, num = template
    assert symmetric_sum(n, mu, num) == _orbit_sum_reference(n, mu, num, _vandermonde(n))


SYMPY_LABELS = [(0, 0), (2, 0), (1, 1), (3, 3), (-1, -1), (0, 0, 0), (2, 0, 0),
                (1, 1, 0), (2, 1, 1), (0, -1, -1)]


@pytest.mark.parametrize("alpha", SYMPY_LABELS)
def test_psi_against_sympy_symmetrization(alpha):
    """Psi(alpha) from the formula symmetrized and cancelled in sympy."""
    sympy = pytest.importorskip("sympy")
    n = len(alpha)
    q = sympy.Symbol("q")
    xs = sympy.symbols(f"x1:{n + 1}")
    lam = [(a + 1) // 2 for a in alpha]
    odd = []
    i = 0
    while i < n:
        if alpha[i] % 2:
            odd.append(i)
            i += 2
        else:
            i += 1
    main = 0
    for sigma in itertools.permutations(range(n)):
        y = [xs[s] for s in sigma]
        term = sympy.Mul(*[y[t] ** lam[t] for t in range(n)])
        for a in range(n):
            for b in range(a + 1, n):
                term *= (y[a] - q * y[b]) * (y[a] - y[b] / q**2) / (y[a] - y[b])
        for l in odd:
            term /= y[l] - q * y[l + 1]
        main += term
    z0 = [-n - 1 + 2 * t for t in range(1, n + 1)]
    c_odd = sympy.Mul(*[(1 - 1 / q) * q ** (n - 2 * (l + 1) + 1) for l in odd])
    w_n = sympy.Mul(*[1 - q ** (-2 * t) for t in range(1, n + 1)])
    pref = (1 - q**-2) ** n * c_odd * q ** sum(a * b for a, b in zip(lam, z0)) / w_n

    def to_sympy(poly):
        out = 0
        for e, c in poly.terms.items():
            num, den = (sum(sympy.Rational(v) * q**d for d, v in enumerate(part))
                        for part in c.as_coeff_arrays())
            out += num / den * sympy.Mul(*[x**k for x, k in zip(xs, e)])
        return out

    got_main = main_term(alpha, n)
    assert sympy.cancel(sympy.together(to_sympy(got_main) - main)) == 0
    assert sympy.cancel(sympy.together(to_sympy(psi_explicit(alpha, n)) - pref * main)) == 0


# -- input checks, the Kostka table and the division-free Psi path -------------------


def test_orbit_sum_rejects_degenerate_factors():
    # x_1 - x_1 = 0 and indices outside [0, n)
    with pytest.raises(ValueError):
        orbit_sum(2, (1, 0), [(0, 0, ONE)])
    with pytest.raises(ValueError):
        orbit_sum(2, (1, 0), [(0, 2, Q)])
    with pytest.raises(ValueError):
        orbit_sum(3, (1, 0, 0), [(-1, 0, Q)])


def test_orbit_sum_accepts_intlaurent_constants():
    # q, -q^-2 and 1 as IntLaurents
    got = orbit_sum(2, (0, 0), [(0, 1, IntLaurent([1], 1)), (0, 1, IntLaurent([-1], -2))])
    assert got == orbit_sum(2, (0, 0), [(0, 1, Q), (0, 1, -qpow(-2))])
    assert orbit_sum(2, (1, 0), [(0, 1, IntLaurent([1]))]) == orbit_sum(2, (1, 0), [(0, 1, ONE)])
    for bad in (IntLaurent([1, 1]), IntLaurent([2], 1), IntLaurent()):
        with pytest.raises(ValueError):
            orbit_sum(2, (0, 0), [(0, 1, bad)])


def _alternant(n, kappa):
    out = LaurentPoly.zero(n)
    for sigma in itertools.permutations(range(n)):
        sign = (-1) ** sum(sigma[a] > sigma[b] for a in range(n) for b in range(a + 1, n))
        out = out + LaurentPoly.monomial(n, kappa, sign).permute(sigma)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kostka_rows_are_bialternant_quotients(n):
    delta = tuple(range(n - 1, -1, -1))
    for lam in itertools.product(range(5), repeat=n):
        if any(a < b for a, b in zip(lam, lam[1:])):
            continue
        schur = _alternant(n, tuple(a + d for a, d in zip(lam, delta)))
        for i in range(n):
            for j in range(i + 1, n):
                schur = schur.divide_exact_binomial(i, j, ONE)
        expanded = LaurentPoly.zero(n)
        for mu, k in _kostka_row(lam):
            for x in set(itertools.permutations(mu)):
                expanded = expanded + LaurentPoly.monomial(n, x, k)
        assert expanded == schur, lam


def test_kostka_classic_value():
    # s_(2,1) = m_(2,1) + 2 m_(1,1,1) in three variables
    assert dict(_kostka_row((2, 1, 0))) == {(2, 1, 0): 1, (1, 1, 1): 2}


def test_psi_paths_never_divide(monkeypatch):
    # the Psi pipeline stays in Z[q^+-1] up to the cyclotomic prefactor: no
    # LaurentPoly division and no Euclid step in Q(q)
    from quatherm.ratfunc import QPoly, poly_gcd
    from quatherm.spherical import hl_variant, psi_elementary
    from quatherm.verify import IDEAL_LABELS

    calls = []
    for owner, name in [(LaurentPoly, "divide_exact_binomial"), (QPoly, "divmod")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, real=real: calls.append(real) or real(*args))
    for n, labels in IDEAL_LABELS.items():
        for alpha in labels:
            psi_explicit(alpha, n)
            psi_elementary(alpha, n)
            main_term(alpha, n)
    for n in (3, 4):
        for kind in ("GL", "A", "H"):
            hl_variant(kind, (2, 1) + (0,) * (n - 2), n)
    assert calls == []
    # both counters are live
    LaurentPoly.binomial(2, 0, 1, ONE).divide_exact_binomial(0, 1, ONE)
    assert poly_gcd(QPoly([-1, 0, 1]), QPoly([1, 1])) == QPoly([1, 1]) and len(set(calls)) == 2


# -- the block peel ---------------------------------------------------------------------


def _template_blocks(n, num):
    return _blocks(n, _normalized(n, num)[0])


def test_blocks_follow_the_template():
    # one variable per block for an even label; a later odd pair is one block
    # (its inner factor differs from those to earlier variables), the first
    # variable always its own; a template with no further structure leaves
    # all the rest in one block
    assert _template_blocks(4, _main_term_factors((0, 0, 0, 0), 4)) == [
        (0, 1), (1, 2), (2, 3), (3, 4)]
    assert _template_blocks(4, _main_term_factors((0, 0, -1, -1), 4)) == [
        (0, 1), (1, 2), (2, 4)]
    assert _template_blocks(5, _main_term_factors((3, 3, 1, 1, 0), 5)) == [
        (0, 1), (1, 2), (2, 4), (4, 5)]
    assert _template_blocks(4, [(0, 3, Q), (1, 2, ONE)]) == [(0, 1), (1, 4)]
    # x_j - c x_i with j > i is -c (x_i - c^-1 x_j)
    assert _normalized(2, [(1, 0, Q)]) == ({(0, 1): ((1, -1),)}, -1, 1)
    assert _normalized(2, [(1, 0, -qpow(-2))]) == ({(0, 1): ((-1, 2),)}, 1, -2)


def test_peel_matches_reference_on_hl_templates():
    for n, c in [(3, qpow(-1)), (3, -qpow(-1)), (4, qpow(-2))]:
        num = [(i, j, c) for i in range(n) for j in range(i + 1, n)]
        lam = (2, 1) + (0,) * (n - 2)
        assert len(_template_blocks(n, num)) == n
        assert symmetric_sum(n, lam, num) == _orbit_sum_reference(n, lam, num, _vandermonde(n))


def test_alternant_sum_small_values():
    # a_(2,1,0) with the sign of the sort, and nothing for a repeated exponent
    assert alternant_sum(3, (2, 1, 0), []) == {(2, 1, 0): {0: 1}}
    assert alternant_sum(3, (0, 1, 2), []) == {(2, 1, 0): {0: -1}}
    assert alternant_sum(3, (1, 1, 0), []) == {}
    # x_2 - q x_1 antisymmetrizes to -(1 + q) a_(1,0)
    assert alternant_sum(2, (0, 0), [(1, 0, Q)]) == {(1, 0): {0: -1, 1: -1}}
