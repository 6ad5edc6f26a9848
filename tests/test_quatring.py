import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm.density import build_gram
from quatherm.quatring import (
    DimensionMismatch,
    HermMatrix,
    ParamMismatch,
    QuatElem,
    QuatMatrix,
    RingParams,
    herm_apply,
    in_congruence,
    is_primitive,
    matrix_nrd,
    qmul,
    qnrd,
    residue_rank,
    smallest_nonresidue,
)

PM1 = RingParams(3, 1)
PM2 = RingParams(3, 2)
PM3 = RingParams(3, 3)


def all_elems(params):
    m = params.modulus
    for a, b, c, d in itertools.product(range(m), repeat=4):
        yield QuatElem(a, b, c, d, params)


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(4, 1)
    with pytest.raises(ValueError):
        RingParams(3, 0)
    with pytest.raises(ValueError):
        RingParams(5, 1, 4)   # 4 = 2^2 is a residue
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_params_accept_exactly_the_nonresidues(p):
    # Euler's criterion against the set of squares, negative lifts included,
    # and the smallest nonresidue
    squares = {a * a % p for a in range(1, p)}
    for eps2 in range(-2 * p, 2 * p):
        if eps2 == 0:
            continue
        if eps2 % p == 0 or eps2 % p in squares:
            with pytest.raises(ValueError, match="not a nonresidue"):
                RingParams(p, 1, eps2)
        else:
            assert RingParams(p, 1, eps2).eps2 == eps2
    assert smallest_nonresidue(p) == min(set(range(2, p)) - squares)


def test_defining_relations():
    pi, eps = QuatElem.pi(PM2), QuatElem.eps(PM2)
    assert (pi * eps).coords() == (0, 0, 0, 1)
    assert (eps * pi).coords() == (0, 0, 0, PM2.modulus - 1)
    assert (eps * eps).coords() == (PM2.eps2, 0, 0, 0)
    assert (pi * pi).coords() == (3, 0, 0, 0)


def test_param_mismatch():
    with pytest.raises(ParamMismatch):
        QuatElem.one(PM1) * QuatElem.one(PM2)


def test_conjugation():
    x = QuatElem(1, 2, 3, 4, PM2)
    assert x.conj().coords() == (1, 7, 6, 5)
    assert x.conj().conj() == x
    xxstar = x * x.conj()
    assert xxstar.is_scalar()
    assert xxstar.a == x.nrd()


def test_nrd_trd_values():
    one_eps = QuatElem(1, 1, 0, 0, PM2)
    assert one_eps.nrd() == (1 - PM2.eps2) % 9
    assert QuatElem.pi(PM2).nrd() == (-3) % 9
    assert QuatElem.eps(PM2).trd() == 0
    assert QuatElem.one(PM2).trd() == 2


def test_anti_automorphism_and_multiplicativity_exhaustive():
    # exhaustive at p = 3, level 1
    elems = list(all_elems(PM1))
    for x in elems:
        for y in elems[:: 7]:   # all x against a coprime-strided sample of y
            assert (x * y).conj() == y.conj() * x.conj()
            assert (x * y).nrd() == (x.nrd() * y.nrd()) % 3
            assert (x * y).trd() == (y * x).trd()


@settings(max_examples=120, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 8))
def test_level2_ring_laws(coords):
    x = QuatElem(*coords[:4], PM2)
    y = QuatElem(*coords[4:], PM2)
    assert (x * y).conj() == y.conj() * x.conj()
    assert (x * y).nrd() == (x.nrd() * y.nrd()) % 9
    assert (x + y).trd() == (x.trd() + y.trd()) % 9


def _array_kernel_matches(xs, ys, params):
    """qmul/qnrd on int64 coordinate arrays against QuatElem, entry by entry."""
    p, e2, m = params.p, params.eps2, params.modulus
    xa = tuple(np.array([x.coords()[t] for x in xs], dtype=np.int64) for t in range(4))
    ya = tuple(np.array([y.coords()[t] for y in ys], dtype=np.int64) for t in range(4))
    prod = qmul(xa, ya, p, e2, m)
    nrd = qnrd(xa, p, e2, m)
    for k, (x, y) in enumerate(zip(xs, ys)):
        assert tuple(int(t[k]) for t in prod) == (x * y).coords()
        assert int(nrd[k]) == x.nrd()


def test_array_kernel_matches_elements_exhaustive():
    elems = list(all_elems(PM1))
    pairs = list(itertools.product(elems, repeat=2))
    _array_kernel_matches([x for x, _ in pairs], [y for _, y in pairs], PM1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 24)] * 8), min_size=1, max_size=16))
def test_array_kernel_matches_elements_p5(rows):
    pm = RingParams(5, 2)
    xs = [QuatElem(*r[:4], pm) for r in rows]
    ys = [QuatElem(*r[4:], pm) for r in rows]
    _array_kernel_matches(xs, ys, pm)


def test_pi_valuation():
    assert QuatElem.pi(PM2).pi_valuation() == 1
    assert QuatElem.scalar(3, PM2).pi_valuation() == 2
    assert QuatElem.scalar(9, PM2).pi_valuation() is None
    assert QuatElem.zero(PM2).pi_valuation() is None
    assert QuatElem(0, 3, 1, 0, PM2).pi_valuation() == 1
    assert QuatElem(0, 0, 3, 0, PM2).pi_valuation() == 3
    assert QuatElem(0, 3, 0, 0, PM2).pi_valuation() == 2


def test_pi_valuation_additive():
    # valuation of a product adds when the sum stays below the window
    samples = [QuatElem(1, 2, 0, 1, PM3), QuatElem.pi(PM3),
               QuatElem.scalar(3, PM3), QuatElem(0, 0, 2, 1, PM3)]
    for x in samples:
        for y in samples:
            vx, vy = x.pi_valuation(), y.pi_valuation()
            if vx is None or vy is None or vx + vy >= 2 * PM3.ell:
                continue
            assert (x * y).pi_valuation() == vx + vy


def test_herm_apply():
    a = build_gram((2, 0), PM2)
    u = QuatMatrix.identity(2, PM2)
    assert herm_apply(a, u) == a
    # scalar case: <1>[x] = Nrd(x)
    one = HermMatrix([[QuatElem.one(PM2)]], PM2)
    x = QuatElem(1, 2, 1, 0, PM2)
    val = herm_apply(one, QuatMatrix([[x]], PM2))
    assert val.entries[0][0] == QuatElem.scalar(x.nrd(), PM2)
    # top-left entry of the alternating block form vanishes on (1,0)^T
    h1 = build_gram((1, 1), PM2)
    col = QuatMatrix([[QuatElem.one(PM2)], [QuatElem.zero(PM2)]], PM2)
    assert not herm_apply(h1, col).entries[0][0]


def test_herm_apply_composition():
    a = build_gram((1, 1), PM2)
    u = QuatMatrix([[QuatElem(1, 1, 0, 0, PM2), QuatElem(0, 0, 1, 0, PM2)],
                    [QuatElem(2, 0, 1, 1, PM2), QuatElem(1, 0, 0, 0, PM2)]], PM2)
    v = QuatMatrix([[QuatElem(1, 0, 1, 0, PM2), QuatElem.zero(PM2)],
                    [QuatElem(0, 1, 0, 0, PM2), QuatElem.one(PM2)]], PM2)
    assert herm_apply(herm_apply(a, u), v) == herm_apply(a, u @ v)


def test_dimension_errors():
    a = build_gram((0, 0), PM2)
    bad = QuatMatrix([[QuatElem.one(PM2)]], PM2)
    with pytest.raises(DimensionMismatch):
        herm_apply(a, bad)


def test_residue_rank():
    assert residue_rank(QuatMatrix.identity(2, PM2)) == 2
    pi = QuatElem.pi(PM2)
    assert residue_rank(QuatMatrix([[pi, QuatElem.zero(PM2)],
                                    [QuatElem.zero(PM2), pi]], PM2)) == 0
    col = QuatMatrix([[QuatElem.one(PM2)], [pi]], PM2)
    assert residue_rank(col) == 1
    assert is_primitive(col)


def test_matrix_nrd():
    assert matrix_nrd(QuatMatrix.identity(2, PM3)) == 1
    assert matrix_nrd(build_gram((2, 0), PM3)) == 9
    assert matrix_nrd(build_gram((1, 1), PM3)) % 27 in (9, 27 - 9)
    # 3x3 goes through the division-free path
    assert matrix_nrd(QuatMatrix.identity(3, PM2)) == 1
    assert matrix_nrd(build_gram((2, 0, 0), PM2)) % 9 == 0


def test_matrix_nrd_of_one_entry_is_nrd():
    for x in all_elems(PM1):
        assert matrix_nrd(QuatMatrix([[x]], PM1)) == x.nrd()


def test_matrix_nrd_multiplicative_on_forms():
    # Nrd(A[u]) = Nrd(A) * Nrd(u) * Nrd(u*) for invertible u
    a = build_gram((2, 0), PM2)
    us = [
        QuatMatrix([[QuatElem.one(PM2), QuatElem(0, 1, 1, 0, PM2)],
                    [QuatElem.zero(PM2), QuatElem.one(PM2)]], PM2),
        QuatMatrix([[QuatElem(1, 1, 0, 0, PM2), QuatElem(2, 0, 1, 0, PM2)],
                    [QuatElem(0, 0, 0, 1, PM2), QuatElem(1, 2, 0, 0, PM2)]], PM2),
    ]
    for u in us:
        if residue_rank(u) < 2:
            continue
        lhs = matrix_nrd(herm_apply(a, u))
        rhs = (matrix_nrd(a) * matrix_nrd(u) * matrix_nrd(u.star())) % 9
        assert lhs == rhs


def test_in_congruence():
    zero = HermMatrix(
        [[QuatElem.zero(PM2), QuatElem.zero(PM2)],
         [QuatElem.zero(PM2), QuatElem.zero(PM2)]], PM2)
    assert in_congruence(zero)
    diag_pl = HermMatrix.from_matrix(QuatMatrix.diagonal([9, 9], PM2))
    assert in_congruence(diag_pl)
    diag_small = HermMatrix.from_matrix(QuatMatrix.diagonal([3, 3], PM2))
    assert not in_congruence(diag_small)
    # off-diagonal with valuation exactly 2*ell - 1 passes, one lower fails
    e_hi = QuatElem(0, 0, 3, 0, PM2)     # valuation 3 = 2*2 - 1
    m_hi = HermMatrix([[QuatElem.zero(PM2), e_hi],
                       [e_hi.conj(), QuatElem.zero(PM2)]], PM2)
    assert in_congruence(m_hi)
    e_lo = QuatElem(3, 0, 0, 0, PM2)     # valuation 2 = 2*ell - 2
    m_lo = HermMatrix([[QuatElem.zero(PM2), e_lo],
                       [e_lo.conj(), QuatElem.zero(PM2)]], PM2)
    assert not in_congruence(m_lo)
