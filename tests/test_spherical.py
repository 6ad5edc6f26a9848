import ast
import itertools
import os
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import delta_enumeration, expand_x
from quatherm import spherical
from quatherm.counting import InfeasibleSizeError
from quatherm.density import build_gram, is_orbit_label
from quatherm.elemsym import ElemSymExpr, to_elementary
from quatherm.laurent import LaurentPoly, _kostka_row
from quatherm.quatring import QuatElem, QuatMatrix, smallest_nonresidue
from quatherm.ratfunc import (ONE, Q, IntLaurent, QPoly, RatFuncQ, format_fraction, poly_gcd,
                              qpow, w_factor)
from quatherm.spherical import (
    _schur_elementary,
    delta_closed,
    delta_oracle,
    delta_series_weights,
    gn_factor,
    hl_variant,
    lambda_alpha,
    main_term,
    main_term_elementary,
    odd_data,
    omega_series_size2,
    psi_elementary,
    psi_explicit,
    psi_prefactor,
    size2_closed,
    sz_convert,
    verify_induction,
    z_zero,
)


def test_lambda_alpha():
    assert lambda_alpha((2, 0)) == (1, 0)
    assert lambda_alpha((3, 3, 2)) == (2, 2, 1)
    assert lambda_alpha((-1, -1)) == (0, 0)


def test_odd_data():
    od = odd_data((2, 0))
    assert od.indices == () and od.c_odd == ONE
    od = odd_data((1, 1))
    assert od.indices == (1,) and od.c_odd == (ONE - qpow(-1)) * Q
    od = odd_data((3, 3, 0))
    assert od.indices == (1,) and od.c_odd == (ONE - qpow(-1)) * Q**2
    od = odd_data((-1, -1, -1, -1))
    assert od.indices == (1, 3)
    assert od.c_odd == (ONE - qpow(-1)) ** 2 * Q**2


def test_z_zero_and_gn():
    assert z_zero(2) == (-1, 1)
    assert z_zero(3) == (-2, 0, 2)
    assert gn_factor(2) == LaurentPoly(2, {(0, 1): ONE, (1, 0): -Q})


def test_psi_base_values():
    assert psi_explicit((0,), 1) == LaurentPoly.constant(1, 1)
    assert psi_explicit((-1, -1), 2) == LaurentPoly.constant(2, Q - ONE)
    c = (ONE - qpow(-1)) / (ONE + qpow(-2))
    assert psi_explicit((0, 0), 2) == LaurentPoly(2, {(1, 0): c, (0, 1): c})


def test_psi_translation():
    for alpha, n in [((0, 0), 2), ((2, 0), 2), ((1, 1, 0), 3)]:
        shifted = tuple(a + 2 for a in alpha)
        assert psi_explicit(shifted, n) == psi_explicit(alpha, n).translate_all(1)


def test_size2_closed_matches_explicit_window():
    labels = [a for a in itertools.product(range(-4, 5), repeat=2)
              if a[0] >= a[1] and is_orbit_label(a)]
    assert len(labels) == 19
    for alpha in labels:
        num, g2 = size2_closed(alpha)
        assert g2 == gn_factor(2)
        assert num == psi_explicit(alpha, 2)


def test_psi_symmetric_small_sizes():
    for n, labels in [(1, [(0,), (2,)]),
                      (2, [(0, 0), (2, 0), (1, 1)]),
                      (3, [(0, 0, 0), (2, 0, 0), (1, 1, 0), (0, -1, -1)])]:
        for alpha in labels:
            assert psi_explicit(alpha, n).is_symmetric()


def test_psi_size5_symmetric():
    # an even label and one with two odd pairs
    assert psi_explicit((0, 0, 0, 0, 0), 5).is_symmetric()
    assert psi_explicit((3, 3, 1, 1, 0), 5).is_symmetric()


@pytest.mark.parametrize("alpha", [(0, 0, 0), (0, -1, -1), (2, 0, 0), (1, 1, 0),
                                   (2, 2, 0), (2, 1, 1), (1, 1, 0, 0)])
def test_psi_elementary_is_rewrite_of_psi(alpha):
    n = len(alpha)
    assert psi_elementary(alpha, n) == to_elementary(psi_explicit(alpha, n))


@pytest.mark.parametrize("alpha", [(0, 0), (-1, -1), (0, 0, 0), (0, -1, -1), (2, 2, 0),
                                   (-1, -1, -1, -1), (2, 1, 1, 0), (0, 0, -2, -2),
                                   (0, 0, 0, 0, 0), (3, 3, 1, 1, 0)])
def test_main_term_elementary_is_rewrite_of_main_term(alpha):
    # from the Schur coefficients, with the shift of the rewrite
    n = len(alpha)
    got, want = main_term_elementary(alpha, n), to_elementary(main_term(alpha, n))
    assert got.shift == want.shift
    assert {e: RatFuncQ(c) for e, c in got.terms.items()} == want.terms


def test_schur_elementary_expands_to_the_schur_polynomial():
    for lam in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 1), (2, 2, 0, 0), (3, 2, 1, 0)]:
        n = len(lam)
        schur = LaurentPoly(n)
        for mu, k in _kostka_row(lam):
            for x in set(itertools.permutations(mu)):
                schur.terms[x] = RatFuncQ.const(k)
        assert expand_x(ElemSymExpr(n, dict(_schur_elementary(lam)))) == schur, lam
    # s_(1,1,0) = e_2 and s_(2,0,0) = e_1^2 - e_2
    assert dict(_schur_elementary((1, 1, 0))) == {(0, 1, 0): 1}
    assert dict(_schur_elementary((2, 0, 0))) == {(2, 0, 0): 1, (0, 1, 0): -1}


def _schur_by_rewrite(lam):
    """The reference: s_lam expanded to monomials through its Kostka row and
    rewritten by `to_elementary`."""
    schur = LaurentPoly(len(lam))
    for mu, k in _kostka_row(lam):
        schur.terms.update(dict.fromkeys(set(itertools.permutations(mu)), IntLaurent([k])))
    return {e: c.coeffs[0] for e, c in to_elementary(schur).terms.items()}


_SLOW = pytest.mark.skipif(not os.environ.get("QUATHERM_SLOW_TESTS"),
                           reason="the reference takes about 50 s at length 6; "
                                  "set QUATHERM_SLOW_TESTS=1")


@pytest.mark.parametrize("length, top", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 3), (6, 2),
                                         pytest.param(5, 5, marks=_SLOW),
                                         pytest.param(6, 5, marks=_SLOW)])
def test_schur_elementary_is_the_kostka_rewrite(length, top):
    # every partition of this length with parts <= top
    for lam in itertools.combinations_with_replacement(range(top, -1, -1), length):
        assert dict(_schur_elementary(lam)) == _schur_by_rewrite(lam), lam


def test_main_term_values():
    assert main_term((0,), 1) == LaurentPoly(1, {(0,): ONE})
    assert main_term((2,), 1) == LaurentPoly(1, {(1,): ONE})
    assert main_term((-1, -1), 2) == LaurentPoly.constant(2, ONE + qpow(-2))


def test_hl_variants():
    assert hl_variant("GL", (0, 0), 2) == LaurentPoly.constant(2, ONE + qpow(-1))
    got_a = hl_variant("A", (0, 0), 2)
    assert got_a == LaurentPoly.constant(2, ONE + qpow(-2))
    got_h = hl_variant("H", (0, 0), 2)
    assert got_h == LaurentPoly.constant(2, ONE - qpow(-1))
    # the (1,0) orbit sum collapses to the monomial symmetric function
    assert hl_variant("GL", (1, 0), 2) == LaurentPoly(
        2, {(1, 0): ONE, (0, 1): ONE})
    with pytest.raises(ValueError):
        hl_variant("X", (0, 0), 2)


def test_delta_closed():
    dc = delta_closed((2, 0))
    assert dc.scalar == qpow(-1) and dc.monomial == (0, 1) and dc.den_pairs == ()
    dc = delta_closed((0, 0))
    assert dc.scalar == ONE and dc.monomial == (0, 0)
    dc = delta_closed((1, 1))
    assert dc.scalar == (ONE - qpow(-1)) * Q
    assert dc.monomial == (1, 1)
    assert dc.den_pairs == ((2, 1),)
    # size 3 with one odd pair in the leading slots
    dc = delta_closed((3, 3, 0))
    assert dc.scalar == (ONE - qpow(-1)) * qpow(2) * qpow(-4)
    assert dc.monomial == (0, 2, 2)
    assert dc.den_pairs == ((3, 2),)


@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (1, 1), (2, 2), (3, 3), (4, 2)])
def test_delta_oracle_matches_closed(alpha):
    for ell in (2, 3):
        w_or, tail_or, v2_or = delta_oracle(alpha, p=3, ell=ell)
        w_cl, tail_cl, v2_cl = delta_series_weights(alpha, vmax=ell)
        assert w_or == {v: c.eval_at(3) for v, c in w_cl.items()}
        assert tail_or == tail_cl.eval_at(3)
        assert v2_or == v2_cl


def test_delta_oracle_geometric_tail_level3():
    # one level deeper resolves the first two rungs of the geometric ladder
    w_or, tail_or, _ = delta_oracle((1, 1), p=3, ell=3)
    assert w_or[1] == Fraction(2, 3)
    assert w_or[2] == Fraction(2, 9)
    assert tail_or == Fraction(1, 9)


def test_delta_oracle_refuses_before_allocating():
    # at level 2254 the count of w, 3^9014, passes Python's 4300-digit
    # int-to-str limit; level 2253 is the deepest that prints
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleSizeError,
                           match="delta_oracle .*highest feasible level at p=3 is 2253"):
            delta_oracle((0, 0), p=3, ell=2254)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


SIZE2_LABELS = [a for a in itertools.product(range(7), repeat=2)
                if a[0] >= a[1] and is_orbit_label(a)]


@pytest.mark.parametrize("p,ell", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_delta_oracle_matches_enumeration(p, ell):
    # the value counts against all p^(4*ell-2) unipotent coordinates, for two
    # nonresidues eps^2 (at p = 3 two lifts of the one class), down to the repr
    assert len(SIZE2_LABELS) == 13
    first = smallest_nonresidue(p)
    second = next(e for e in range(first + 1, first + p + 1) if pow(e, (p - 1) // 2, p) == p - 1)
    for alpha in SIZE2_LABELS:
        for eps2 in (first, second):
            got = delta_oracle(alpha, p, ell, eps2)
            assert repr(got) == repr(delta_enumeration(alpha, p, ell, eps2)), (alpha, eps2)


@pytest.mark.parametrize("row,col", [(1, 0), (1, 1), (0, 0)])
def test_delta_oracle_refuses_a_representative_off_its_form(monkeypatch, row, col):
    # eps added to F01 (no longer F10*), to F00 or to F11 (no longer scalars):
    # the entry is then not s Nrd w + Trd(w* F10*) + F00, and the enumeration
    # meets a non-scalar entry; both raise
    def skewed(alpha, params):
        entries = [list(r) for r in build_gram(alpha, params).entries]
        entries[row][col] = entries[row][col] + QuatElem.eps(params)
        return QuatMatrix(entries, params)

    monkeypatch.setattr(spherical, "build_gram", skewed)
    monkeypatch.setattr(oracles, "build_gram", skewed)
    for oracle in (delta_oracle, delta_enumeration):
        with pytest.raises(ArithmeticError, match="not scalar"):
            oracle((2, 0), 3, 2)


def test_delta_oracle_level20_matches_closed():
    # a level the enumeration (3^78 points) never reached: 18 rungs of the
    # geometric ladder of (3,3), in well under 50 ms
    start = time.perf_counter()
    w_or, tail_or, v2_or = delta_oracle((3, 3), p=3, ell=20)
    elapsed = time.perf_counter() - start
    w_cl, tail_cl, v2_cl = delta_series_weights((3, 3), vmax=20)
    assert len(w_or) == 18
    assert w_or == {v: c.eval_at(3) for v, c in w_cl.items()}
    assert (tail_or, v2_or) == (tail_cl.eval_at(3), v2_cl)
    assert elapsed < 0.05


def test_spherical_imports_no_numpy():
    tree = ast.parse(Path(spherical.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_sz_convert():
    assert sz_convert((0, 0), "s_to_z") == (-1, 1)
    assert sz_convert((0, 0, 0), "s_to_z") == (-2, 0, 2)
    pt = (Fraction(1, 2), Fraction(-3, 2), Fraction(2))
    assert sz_convert(sz_convert(pt, "z_to_s"), "s_to_z") == pt


def test_omega_series_constant_term():
    c0 = omega_series_size2((0, 0), 0)[0]
    assert c0 == (ONE - qpow(-1)) / (ONE + qpow(-2))
    assert c0.eval_at(3) == Fraction(3, 5)


@pytest.mark.parametrize("xi", [(0, 0), (2, 0)])
def test_induction_diagonal_targets(xi):
    ok, lhs, rhs, _ = verify_induction(xi, order=1, p=3, ell=2)
    assert ok, (lhs, rhs)


def test_induction_respects_budget():
    # the level-2 primitive count of <1> in (0,0) is charged ~1,100 ops
    with pytest.raises(InfeasibleSizeError, match="budget 1.000e\\+02"):
        verify_induction((0, 0), order=1, p=3, ell=2, budget=100)


@pytest.mark.parametrize("xi", [(0, 0), (2, 0)])
def test_induction_second_order(xi):
    # the t^2 coefficient needs the weight-4 density; the convolution path
    # reaches level 3 where every input is stable
    ok, lhs, rhs, _ = verify_induction(xi, order=2, p=3, ell=3)
    assert ok, (lhs, rhs)


def _psi_prefactor_by_products(alpha, n):
    """The prefactor as the product of its Q(q) factors, reduced after each."""
    od = odd_data(alpha, n)
    return ((ONE - qpow(-2)) ** n * od.c_odd
            * qpow(sum(a * b for a, b in zip(lambda_alpha(alpha), z_zero(n))))
            / w_factor(n, qpow(-2)))


def test_psi_prefactor_matches_product_form():
    from quatherm.verify import IDEAL_LABELS, SYMMETRY_LABELS

    labels = [a for table in (SYMMETRY_LABELS, IDEAL_LABELS)
              for size in table.values() for a in size]
    for alpha in labels:
        got = psi_prefactor(alpha)
        want = _psi_prefactor_by_products(alpha, len(alpha))
        assert got == want and str(got) == str(want), alpha


def _psi_labels_n34():
    from quatherm.verify import GENERATOR_LABELS, IDEAL_LABELS, SYMMETRY_LABELS

    labels = {a for table in (IDEAL_LABELS, GENERATOR_LABELS, SYMMETRY_LABELS)
              for n in (3, 4) for a in table[n]}
    return sorted(labels, key=lambda a: (len(a), a))


def _euclid(num: QPoly, den: QPoly):
    """num / den reduced by Euclid's gcd, as as_coeff_arrays prints it."""
    g = poly_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading()
    return tuple([format_fraction(c) for c in p.scale(1 / lead).coeffs] for p in (num, den))


def _qpoly_pair(c: RatFuncQ):
    """c as a pair of QPolys, read off its coefficient arrays."""
    return tuple(QPoly([Fraction(x) for x in part]) for part in c.as_coeff_arrays())


@pytest.mark.parametrize("alpha", _psi_labels_n34())
def test_psi_coefficients_are_euclid_products(alpha):
    """Psi's coefficients, reduced by cyclotomic trial division, equal the
    main-term coefficients times (q - 1)^k q^e / prod [i]_{q^2} reduced by
    Euclid's gcd, in both the x and the elementary coordinates."""
    n = len(alpha)
    idx = odd_data(alpha, n).indices
    e = (sum(n - 2 * l for l in idx)
         + sum(a * b for a, b in zip(lambda_alpha(alpha), z_zero(n))) + n * (n - 1))
    pref_num, pref_den = QPoly([-1, 1]) ** len(idx), QPoly.const(1)
    for i in range(1, n + 1):
        pref_den = pref_den * QPoly([1, 0] * (i - 1) + [1])
    pref_num, pref_den = pref_num.shift(max(e, 0)), pref_den.shift(max(-e, 0))
    assert _euclid(pref_num, pref_den) == psi_prefactor(alpha, n).as_coeff_arrays()
    main = main_term(alpha, n)
    for got, want in ((psi_explicit(alpha, n), main),
                      (psi_elementary(alpha, n), to_elementary(main))):
        assert got.terms.keys() == want.terms.keys()
        for x, c in want.terms.items():
            num, den = _qpoly_pair(c)
            product = _euclid(num * pref_num, den * pref_den)
            assert got.terms[x].as_coeff_arrays() == product, x
