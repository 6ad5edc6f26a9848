from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.elemsym import (
    NotSymmetric,
    buchberger,
    ideal_member,
    image_ideal_basis,
    schwartz_image_generators,
    to_elementary,
)
from quatherm.laurent import LaurentPoly, elementary_symmetric, symmetric_sum
from quatherm.ratfunc import ONE, Q, qpow
from quatherm.spherical import psi_explicit


def test_to_elementary_basics():
    f = LaurentPoly(2, {(2, 0): ONE, (0, 2): ONE})
    e = to_elementary(f)
    assert e.terms == {(2, 0): ONE, (0, 1): -(ONE + ONE)}
    assert to_elementary(LaurentPoly(2, {(1, 1): ONE})).terms == {(0, 1): ONE}
    g = LaurentPoly(2, {(1, 0): ONE - qpow(-1), (0, 1): ONE - qpow(-1)})
    assert to_elementary(g).terms == {(1, 0): ONE - qpow(-1)}


def test_to_elementary_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        to_elementary(LaurentPoly(2, {(1, 0): ONE}))


def test_to_elementary_negative_exponents():
    f = LaurentPoly(2, {(-1, 0): ONE, (0, -1): ONE})
    e = to_elementary(f)
    assert e.shift == 1
    assert e.expand_x() == f


@pytest.mark.parametrize("alpha,n", [
    ((0, 0), 2), ((2, 0), 2), ((1, 1), 2), ((-1, -1), 2),
    ((0, 0, 0), 3), ((2, 0, 0), 3), ((1, 1, 0), 3), ((0, -1, -1), 3),
])
def test_round_trip_on_spherical_values(alpha, n):
    psi = psi_explicit(alpha, n)
    e = to_elementary(psi)
    assert e.expand_x() == psi


@st.composite
def symmetric_polys(draw):
    n = 3
    base = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(sorted((draw(st.integers(0, 3)) for _ in range(n)), reverse=True))
        c = draw(st.integers(-3, 3))
        if c:
            base[e] = c
    # the orbit sum of x^e * Delta / Delta is the plain symmetrization of x^e
    vandermonde = [(i, j, ONE) for i in range(n) for j in range(i + 1, n)]
    f = LaurentPoly.zero(n)
    for e, c in base.items():
        f = f + symmetric_sum(n, e, vandermonde).scale(c)
    return f


@settings(max_examples=25, deadline=None)
@given(symmetric_polys())
def test_round_trip_random(f):
    assert to_elementary(f).expand_x() == f


def test_power_sum_reduction_identity():
    """Monomial symmetrizations with an exponent >= n reduce through the
    elementary generators with alternating signs."""
    n = 3
    num = []
    for i in range(n):
        for j in range(i + 1, n):
            num.append((i, j, Q))
            num.append((i, j, qpow(-2)))
    lam = (3, 0, 0)
    lhs = symmetric_sum(n, lam, num)
    rhs = LaurentPoly.zero(n)
    for i in range(1, n + 1):
        reduced = (3 - i, 0, 0)
        term = symmetric_sum(n, reduced, num) * elementary_symmetric(n, i)
        rhs = rhs + (term if i % 2 == 1 else -term)
    assert lhs == rhs


# -- Groebner engine ----------------------------------------------------------------


def _p(d):
    return {k: Fraction(v) for k, v in d.items()}


def test_buchberger_already_basis():
    gens = [_p({(1, 0): 1}), _p({(0, 1): 1})]
    gb = buchberger(gens, 2)
    assert [set(g) for g in gb.polys] == [{(0, 1)}, {(1, 0)}]


def test_buchberger_unit_ideal():
    gb = buchberger([_p({(0, 0): 2})], 2)
    assert gb.polys == [{(0, 0): Fraction(1)}]
    assert ideal_member(_p({(3, 1): 7}), gb)


def test_membership_basics():
    g = _p({(2, 0): 1, (0, 1): -3})
    gb = buchberger([g], 2)
    prod = _p({(3, 0): 1, (1, 1): -3})   # s1 * g
    assert ideal_member(prod, gb)
    assert not ideal_member(_p({(0, 0): 1}), buchberger(
        [_p({(1, 0): 1}), _p({(0, 1): 1})], 2))


def test_groebner_classic_example():
    # <x^2 - y, x^3 - x> has the reduced basis {x^2 - y, xy - x, y^2 - y}
    gens = [_p({(2, 0): 1, (0, 1): -1}), _p({(3, 0): 1, (1, 0): -1})]
    gb = buchberger(gens, 2)
    got = {tuple(sorted(g.items())) for g in gb.polys}
    expect = {
        tuple(sorted({(2, 0): Fraction(1), (0, 1): Fraction(-1)}.items())),
        tuple(sorted({(1, 1): Fraction(1), (1, 0): Fraction(-1)}.items())),
        tuple(sorted({(0, 2): Fraction(1), (0, 1): Fraction(-1)}.items())),
    }
    assert got == expect


def test_normal_form_idempotent_and_order_invariant():
    q0 = 3
    g1, g2 = (g.specialize(q0) for g in schwartz_image_generators(3))
    test_poly = to_elementary(psi_explicit((2, 0, 0), 3)).polynomial_part().specialize(q0)
    for order in ("grevlex", "lex"):
        gb = buchberger([g1, g2], 3, order=order)
        assert ideal_member(test_poly, gb)
        # reduced basis members reduce to zero against the basis
        for g in gb.polys:
            assert ideal_member(dict(g), gb)


def test_spec_generator_pair_reduces():
    q0 = 3
    gb = image_ideal_basis(3, q0)
    g1, g2 = schwartz_image_generators(3)
    assert ideal_member(g1.specialize(q0), gb)
    assert ideal_member(g2.specialize(q0), gb)


@pytest.mark.parametrize("n", [3, 4])
def test_generators_match_computed(n):
    labels = {3: [(0, 0, 0), (0, -1, -1)], 4: [(0, 0, 0, 0), (-1, -1, -1, -1)]}[n]
    computed = [to_elementary(psi_explicit(a, n)) for a in labels]
    tabulated = schwartz_image_generators(n)
    for q0 in (2, 3, 5):
        for c, g in zip(computed, tabulated):
            assert c.leading_normalized(q0) == g.leading_normalized(q0)


def test_unpaired_extra_polynomials_membership():
    """The even two-row symmetrizations with a < b also land in the ideal;
    outcomes recorded as membership facts."""
    q0 = 3
    basis = image_ideal_basis(3, q0)
    num = []
    for i in range(3):
        for j in range(i + 1, 3):
            num.append((i, j, Q))
            num.append((i, j, qpow(-2)))
    outcomes = {}
    for a in range(0, 3):
        for b in range(a + 1, 3):
            p1 = symmetric_sum(3, tuple(sorted((a, b, 0), reverse=True)), num)
            e = to_elementary(p1).polynomial_part().specialize(q0)
            outcomes[(a, b)] = ideal_member(e, basis)
    assert all(outcomes.values())


def test_ideal_verdicts_build_each_form_once(monkeypatch):
    from quatherm import spherical, verify

    built = []
    real = spherical.main_term_elementary
    monkeypatch.setattr(spherical, "main_term_elementary",
                        lambda a, n: built.append(a) or real(a, n))
    labels = [(2, 0, 0), (0, 0, 0), (2, 0, 0)]
    out = verify.ideal_verdicts(3, labels, (2, 3, 5))
    assert sorted(built) == [(0, -1, -1), (0, 0, 0), (2, 0, 0)]
    assert [q0 for q0, _, _ in out] == [2, 3, 5]
    for _, generator_ok, members in out:
        assert generator_ok == [True, True]
        assert members == [(a, True) for a in labels]


def test_ideal_verdicts_ignore_the_prefactor(monkeypatch):
    # the prefactor is a nonzero constant at every q >= 2, so the verdicts of
    # the main-term forms are those of Psi's own elementary forms
    from quatherm import spherical, verify
    from quatherm.verify import GENERATOR_LABELS, IDEAL_LABELS

    qs = (2, 3, 5, 7)
    plain = {n: verify.ideal_verdicts(n, labels, qs) for n, labels in IDEAL_LABELS.items()}
    psi = {(a, n): spherical.psi_elementary(a, n)
           for table in (GENERATOR_LABELS, IDEAL_LABELS) for n in table for a in table[n]}
    monkeypatch.setattr(spherical, "main_term_elementary", lambda a, n: psi[a, n])
    for n, labels in IDEAL_LABELS.items():
        assert verify.ideal_verdicts(n, labels, qs) == plain[n]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("q0", [2, 3, 5])
@pytest.mark.parametrize("n", [3, 4])
def test_image_ideal_basis_against_sympy(n, q0, order):
    """The reduced basis equals sympy's reduced Groebner basis over QQ."""
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols(f"s1:{n + 1}")

    def to_sympy(poly):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[x**k for x, k in zip(s, e)])
                           for e, c in poly.items()])

    def as_set(dicts):
        return {frozenset(d.items()) for d in dicts}

    gens = [to_sympy(g.specialize(q0)) for g in schwartz_image_generators(n)]
    expected = sympy.groebner(gens, *s, order=order, domain="QQ")
    expected = [{e: Fraction(int(c.p), int(c.q)) for e, c in g.as_dict().items()}
                for g in expected.polys]
    got = image_ideal_basis(n, q0, order).polys
    assert len(got) == len(expected)
    assert as_set(got) == as_set(expected)
