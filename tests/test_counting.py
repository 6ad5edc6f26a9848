"""Cross-checks of the specialized counting kernels against direct enumeration."""

import itertools
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm import counting
from quatherm.density import build_gram, density_self_closed, density_zero_ht, gram_blocks
from quatherm.quatring import (
    HermMatrix, QuatElem, QuatMatrix, RingParams, qconj, qmul, qnrd, residue_rank,
)

from oracles import (
    _row_fibres, column_pair_reference, diagonal_pair_reference, histogram_counts, value_counts,
)

PM1 = RingParams(3, 1)
PM5 = RingParams(5, 1)


def _zero(params, n=1):
    z = QuatElem.zero(params)
    return HermMatrix([[z] * n for _ in range(n)], params)


# Frozen oracles for the 2x2 kernel at p = 3, level 1.  Each value has an
# independent derivation and every line was cross-checked once against the
# chunked direct enumeration over all 3^16 matrices (83 s/run, rerun with
# QUATHERM_SLOW_TESTS=1); the matrix-pair scan that count_matrix_pair used
# to be gave the same values:
#   (0,0) total 629856      = 32/27 * 3^12, the stabilized closed density
#   (0,0) primitive 629856  = total: congruent matrices are full-rank here
#   (2,0) total 2125764     = 9 * 36 * 81 * 81 entrywise product count
#   (2,0) primitive 1889568 = 9 * 36 * 72 * 81
#   (1,1) total 43046721    = 3^16: level-1 congruence is vacuous
#   (1,1) primitive 37791360 = 6561 * 5760 full-rank residue matrices
MATRIX_PAIR_FROZEN = {
    ((0, 0), False): 629856,
    ((0, 0), True): 629856,
    ((2, 0), False): 2125764,
    ((2, 0), True): 1889568,
    ((1, 1), False): 43046721,
    ((1, 1), True): 37791360,
}


@pytest.mark.parametrize(("alpha", "primitive"), sorted(MATRIX_PAIR_FROZEN))
def test_matrix_pair_frozen_oracles(alpha, primitive):
    a = build_gram(alpha, PM1)
    assert counting.count_matrix_pair(a, a, primitive=primitive) == \
        MATRIX_PAIR_FROZEN[(alpha, primitive)]


@pytest.mark.skipif(not os.environ.get("QUATHERM_SLOW_TESTS"),
                    reason="minutes-long direct enumeration; set QUATHERM_SLOW_TESTS=1")
@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (1, 1)])
@pytest.mark.parametrize("primitive", [False, True])
def test_matrix_pair_vs_generic(alpha, primitive):
    a = build_gram(alpha, PM1)
    assert counting.count_matrix_pair(a, a, primitive=primitive) == \
        counting.count_generic(a, a, primitive=primitive)


def _form(spec, params):
    """A 2x2 target: an orbit label, ("diag", s1, s2) or ("alt", beta coordinates)."""
    if spec[0] == "diag":
        return HermMatrix.from_matrix(QuatMatrix.diagonal(spec[1:], params))
    if spec[0] == "alt":
        z, q = QuatElem.zero(params), QuatElem(*spec[1], params)
        return HermMatrix([[z, q], [q.conj(), z]], params)
    return build_gram(spec, params)


def _source(diag, upper, params):
    q = QuatElem(*upper, params)
    return HermMatrix([[QuatElem.scalar(diag[0], params), q],
                       [q.conj(), QuatElem.scalar(diag[1], params)]], params)


# (target, source diagonal, source upper entry) -> (plain, primitive) at p = 3,
# level 1, for random hermitian sources (seeded draws), frozen from the
# matrix-pair scan over all 3^8 x 3^8 column pairs before it was replaced.
MATRIX_PAIR_SCAN_FROZEN = {
    ((0, 0), (0, 1), (0, 1, 2, 2)): (629856, 629856),
    ((0, 0), (0, 0), (0, 2, 1, 1)): (629856, 629856),
    ((0, 0), (2, 0), (2, 2, 2, 0)): (629856, 629856),
    ((0, 0), (0, 0), (2, 0, 0, 2)): (629856, 629856),
    ((0, 0), (0, 2), (0, 2, 2, 0)): (629856, 629856),
    ((0, 0), (2, 0), (2, 2, 1, 0)): (629856, 629856),
    ((0, 0), (0, 2), (0, 2, 0, 0)): (629856, 629856),
    ((0, 0), (2, 2), (0, 2, 0, 1)): (157464, 0),
    ((2, 0), (2, 2), (0, 1, 0, 2)): (2125764, 1889568),
    ((2, 0), (0, 0), (2, 1, 2, 0)): (0, 0),
    ((2, 0), (2, 1), (1, 2, 1, 2)): (2125764, 1889568),
    ((2, 0), (0, 0), (2, 2, 1, 2)): (0, 0),
    ((2, 0), (2, 0), (0, 2, 0, 0)): (0, 0),
    ((2, 0), (2, 0), (1, 1, 0, 0)): (0, 0),
    ((2, 0), (0, 1), (1, 2, 1, 0)): (0, 0),
    ((2, 0), (0, 2), (0, 2, 0, 0)): (0, 0),
    ((1, 1), (0, 2), (2, 0, 2, 2)): (0, 0),
    ((1, 1), (1, 2), (2, 0, 1, 2)): (0, 0),
    ((1, 1), (1, 0), (2, 1, 1, 0)): (0, 0),
    ((1, 1), (2, 1), (2, 1, 1, 1)): (0, 0),
    ((1, 1), (0, 0), (0, 0, 0, 2)): (43046721, 37791360),
    ((1, 1), (2, 2), (1, 2, 0, 1)): (0, 0),
    ((1, 1), (1, 0), (1, 2, 1, 2)): (0, 0),
    ((1, 1), (1, 1), (2, 0, 1, 0)): (0, 0),
    (("diag", 1, 2), (1, 0), (1, 2, 0, 0)): (629856, 629856),
    (("diag", 1, 2), (2, 0), (1, 2, 0, 2)): (629856, 629856),
    (("diag", 1, 2), (0, 0), (0, 1, 1, 0)): (629856, 629856),
    (("alt", (1, 1, 0, 0)), (0, 0), (2, 1, 0, 2)): (629856, 629856),
    (("alt", (1, 1, 0, 0)), (0, 0), (2, 2, 2, 0)): (629856, 629856),
    (("alt", (1, 1, 0, 0)), (2, 2), (1, 0, 0, 0)): (157464, 0),
    (("alt", (0, 1, 1, 2)), (2, 0), (1, 1, 0, 2)): (629856, 629856),
    (("alt", (0, 1, 1, 2)), (0, 2), (1, 2, 2, 0)): (629856, 629856),
    (("alt", (0, 1, 1, 2)), (0, 2), (2, 2, 0, 1)): (629856, 629856),
}


@pytest.mark.parametrize(("target", "diag", "upper"), list(MATRIX_PAIR_SCAN_FROZEN))
def test_matrix_pair_random_sources(target, diag, upper):
    a, b = _form(target, PM1), _source(diag, upper, PM1)
    assert tuple(counting.count_matrix_pair(b, a, primitive) for primitive in (False, True)) \
        == MATRIX_PAIR_SCAN_FROZEN[(target, diag, upper)]


@pytest.mark.skipif(not os.environ.get("QUATHERM_SLOW_TESTS"),
                    reason="minutes-long direct enumeration; set QUATHERM_SLOW_TESTS=1")
@pytest.mark.parametrize(("target", "diag", "upper"), [
    ((0, 0), (2, 2), (0, 2, 0, 1)), ((2, 0), (2, 1), (1, 2, 1, 2)),
    (("alt", (1, 1, 0, 0)), (2, 2), (1, 0, 0, 0))])
def test_matrix_pair_random_sources_vs_generic(target, diag, upper):
    a, b = _form(target, PM1), _source(diag, upper, PM1)
    for primitive in (False, True):
        assert counting.count_matrix_pair(b, a, primitive) == \
            counting.count_generic(b, a, primitive=primitive)


# count_matrix_pair at p = 3, level 2, (alpha, primitive) -> count.  All but
# the (1,1) primitive value were computed independently by a separate
# pure-Python implementation of the same method; (0,0), (2,0), (2,2) and
# (1,1) normalize to the closed densities 32/27, 16/3, 864 and 80, and (4,0)
# to 12, which is not yet stable.  As for (0,0), (2,0) and (2,2), whose
# entries are nonzero at this level, the (1,1) primitive count repeats the
# plain count.
MATRIX_PAIR_LEVEL2 = {
    ((0, 0), False): 37192366944,
    ((0, 0), True): 37192366944,
    ((2, 0), False): 167365651248,
    ((2, 0), True): 167365651248,
    ((2, 2), False): 27113235502176,
    ((2, 2), True): 27113235502176,
    ((4, 0), False): 376572715308,
    ((4, 0), True): 334731302496,
    ((1, 1), False): 2510484768720,
    ((1, 1), True): 2510484768720,
}


@pytest.mark.parametrize(("alpha", "primitive"), sorted(MATRIX_PAIR_LEVEL2))
def test_matrix_pair_level2(alpha, primitive):
    a = build_gram(alpha, RingParams(3, 2))
    assert counting.count_matrix_pair(a, a, primitive) == MATRIX_PAIR_LEVEL2[(alpha, primitive)]


@pytest.mark.parametrize(("alpha", "count"), [
    ((0, 0), 2196172075676256), ((2, 0), 9882774340543152), ((1, 1), 148241615108147280)])
def test_matrix_pair_level3_stable(alpha, count):
    # the stability witness: level 3 repeats the level-2 normalized counts
    a = build_gram(alpha, RingParams(3, 3))
    got = counting.count_matrix_pair(a, a)
    assert got == count
    assert Fraction(got, 3**32) == density_self_closed(alpha).eval_at(3)


# (p, level, alpha, primitive) -> count, frozen from the kernel the closed
# counts replaced (a G_2 row histogram for diagonal targets, one 6 x 8 linear
# system per first row for p^e H) before it was deleted.  Its memory limit
# refused the level-3 primitive counts of (0,0) and (2,0) at p=3.
MATRIX_PAIR_PREVIOUS_KERNEL = {
    (5, 2, (0, 0), False): 2746582031250000,
    (5, 2, (0, 0), True): 2746582031250000,
    (5, 2, (2, 0), False): 17166137695312500,
    (5, 2, (2, 0), True): 17166137695312500,
    (5, 2, (1, 1), False): 1487731933593750000,
    (5, 2, (1, 1), True): 1487731933593750000,
    (5, 2, (3, 3), False): 23283064365386962890625,
    (5, 2, (3, 3), True): 22315979003906250000000,
    (7, 1, (0, 0), False): 15495785088,
    (7, 1, (0, 0), True): 15495785088,
    (7, 1, (2, 0), False): 110730297608,
    (7, 1, (2, 0), True): 108470495616,
    (7, 1, (1, 1), False): 33232930569601,
    (7, 1, (1, 1), True): 32541148684800,
    (7, 1, (3, 3), False): 33232930569601,
    (7, 1, (3, 3), True): 32541148684800,
    (3, 3, (1, 1), True): 148241615108147280,
    (3, 3, (3, 3), True): 108068137413839367120,
}


@pytest.mark.parametrize(("p", "ell", "alpha", "primitive"), list(MATRIX_PAIR_PREVIOUS_KERNEL))
def test_matrix_pair_previous_kernel(p, ell, alpha, primitive):
    a = build_gram(alpha, RingParams(p, ell))
    assert counting.count_matrix_pair(a, a, primitive) == \
        MATRIX_PAIR_PREVIOUS_KERNEL[(p, ell, alpha, primitive)]


@pytest.mark.parametrize(("p", "ell"), [(3, 1), (3, 2), (3, 3), (5, 2)])
@pytest.mark.parametrize("alpha", [(0, 0), (1, 1)])
@pytest.mark.parametrize("primitive", [False, True])
def test_matrix_pair_cost_bounds_peak(p, ell, alpha, primitive):
    # the modelled peak bounds what the kernel holds
    a = build_gram(alpha, RingParams(p, ell))
    tracemalloc.start()
    try:
        counting.count_matrix_pair(a, a, primitive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counting.cost_matrix_pair(p, alpha == (1, 1), primitive, ell)[1]


def test_matrix_pair_exact_past_int64():
    # (2,2) at p=5, level 2 normalizes to the closed 18000
    a = build_gram((2, 2), RingParams(5, 2))
    count = counting.count_matrix_pair(a, a)
    assert count == 42915344238281250000 > 2**63
    assert Fraction(count, 5**22) == density_self_closed((2, 2)).eval_at(5)


def test_matrix_pair_rejects_non_block_form():
    one, pi = QuatElem.scalar(1, PM1), QuatElem.pi(PM1)
    a = HermMatrix([[one, pi], [pi.conj(), one]], PM1)
    with pytest.raises(ValueError, match="diagonal or zero-diagonal"):
        counting.count_matrix_pair(a, a)


def _diagonal_pair_cases(params, count, seed):
    """count random (s1, s2, B): s1, s2 in {+-1, 2, p, 2p, p^2, p^ell}, and B
    hermitian with entries of every valuation, b12 of every Pi-valuation."""
    rng = random.Random(seed)
    p, ell, pl = params.p, params.ell, params.modulus
    scalars = [1, -1, 2, p, 2 * p, p * p, pl]

    def residue():
        return rng.randrange(pl) * p ** rng.choice([0, 0, 1, 2]) % pl

    for _ in range(count):
        pi_power = QuatElem.pi(params) if rng.random() < 0.5 else QuatElem.one(params)
        w = QuatElem(*[residue() for _ in range(4)], params) * pi_power
        yield rng.choice(scalars) % pl, rng.choice(scalars) % pl, (residue(), residue(), w)


def _diagonal_pair_matches(p, ell, count):
    pm = RingParams(p, ell)
    for s1, s2, b in _diagonal_pair_cases(pm, count, seed=p * 10 + ell):
        for in_radical in (False, True):
            assert counting._diagonal_pair_count(pm, s1, s2, b, in_radical) == \
                diagonal_pair_reference(pm, s1, s2, b, in_radical), (s1, s2, b, in_radical)


@pytest.mark.parametrize(("p", "ell"), [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_diagonal_pair_matches_array_reference(p, ell):
    # the closed chain of pivots against first rows binned on arrays
    _diagonal_pair_matches(p, ell, 60)


@pytest.mark.skipif(not os.environ.get("QUATHERM_SLOW_TESTS"),
                    reason="p^(3*ell) reference arrays; set QUATHERM_SLOW_TESTS=1")
@pytest.mark.parametrize(("p", "ell"), [(3, 3), (5, 2)])
def test_diagonal_pair_matches_array_reference_deep(p, ell):
    _diagonal_pair_matches(p, ell, 60)


@pytest.mark.parametrize(("alpha", "count"), [
    ((0, 0), 129681764896607240544), ((2, 0), 583567942034732582448)])
def test_matrix_pair_level4_witness(alpha, count):
    # level 4 at p=3, which the array route took ~16 s and 0.6 GB to count
    a = build_gram(alpha, RingParams(3, 4))
    assert counting.count_matrix_pair(a, a) == count


def _g2_key(d1, d2, q, params):
    """Index in G_2 = Herm_2 mod the level-ell congruence set (p^(6*ell-2)
    classes) of the class with diagonal (d1, d2) and upper entry q."""
    pl, pl1 = params.modulus, params.modulus // params.p
    a, b, c, d = q
    return d1 % pl + pl * (d2 % pl + pl * (a % pl + pl * (b % pl + pl * (
        c % pl1 + pl1 * (d % pl1)))))


def _direct_row_histogram(params, s, in_radical):
    """Reference: every row (x, y) of O/Pi^(2*ell), y in Pi O when in_radical,
    keyed by s * (Nrd x, Nrd y, x* y) in G_2."""
    p, e2, pl = params.p, params.eps2, params.modulus
    axes = [np.arange(pl)] * 4 + [np.arange(0, pl, p if in_radical else 1)] * 2 + \
        [np.arange(pl)] * 2
    coords = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    x, y = tuple(coords[:4]), tuple(coords[4:])
    keys = _g2_key(s * qnrd(x, p, e2, pl), s * qnrd(y, p, e2, pl),
                   tuple(s * v for v in qmul(qconj(x, pl), y, p, e2, pl)), params)
    return np.bincount(keys, minlength=pl**4 * (pl // p) ** 2)


def _closed_row_histogram(params, s, in_radical):
    """The closed row count h_s on every class of G_2, in _g2_key order."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    m11, m22, a, b, c, d = (g.ravel() for g in np.meshgrid(
        *[np.arange(pl)] * 4, *[np.arange(pl // p)] * 2, indexing="ij"))
    n12 = (a * a - e2 * b * b - p * c * c + p * e2 * d * d) % (pl * pl // p)
    h = sum(weight * found for weight, found in
            _row_fibres(params, s, m11, m22, n12, in_radical))
    hist = np.zeros(pl**4 * (pl // p) ** 2, dtype=np.int64)
    hist[_g2_key(m11, m22, (a, b, c, d), params)] = h
    return hist


@pytest.mark.parametrize("params", [PM1, PM5], ids=["p3", "p5"])
@pytest.mark.parametrize("scale", ["1", "p", "pl"])
@pytest.mark.parametrize("in_radical", [False, True])
def test_row_histogram_matches_rows(params, scale, in_radical):
    # "pl": p^ell divides s, the base case where every row gives 0
    s = {"1": 1, "p": params.p, "pl": params.modulus}[scale]
    assert np.array_equal(_closed_row_histogram(params, s, in_radical),
                          _direct_row_histogram(params, s, in_radical))


def _value_count_cases(params):
    """Scales 0, +-1, a nonresidue, p, p + 1 and p^(ell-1), and w = 0 and
    p^k or p^k Pi times two units, for every Pi-valuation 2k or 2k + 1 below
    2*ell."""
    p, ell, e2 = params.p, params.ell, params.eps2
    scales = sorted({0, 1, -1 % params.modulus, e2, p, p + 1, p ** (ell - 1)})
    units = [QuatElem(1, 1, 1, 0, params), QuatElem(2, 0, 0, 1, params)]
    pi = QuatElem.pi(params)
    ws = [QuatElem.zero(params)] + [
        QuatElem.scalar(p ** (v // 2), params) * (pi * u if v % 2 else u)
        for v in range(2 * ell) for u in units]
    return scales, ws


@pytest.mark.parametrize(("p", "ell"), [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_value_count_matches_histogram_read(p, ell):
    # the completed square, the linear-dominant fibres and y = Pi z against the
    # convolved coordinate histograms, at every t
    pm = RingParams(p, ell)
    scales, ws = _value_count_cases(pm)
    for scale in scales:
        for w in ws:
            for in_radical in (False, True):
                assert [counting._value_count(pm, scale, w, t, in_radical)
                        for t in range(pm.modulus)] == value_counts(pm, scale, w, in_radical), \
                    (scale, w.coords(), in_radical)


@pytest.mark.parametrize(("p", "ell"), [(3, ell) for ell in range(1, 7)]
                         + [(5, ell) for ell in range(1, 5)])
def test_column_pair_matches_fibre_sum(p, ell):
    # the one-pass profile read at v_p(b) against the per-b fibre sum
    pm = RingParams(p, ell)
    for alpha in ((1, 1), (3, 3), (5, 5), (9, 9)):
        a = build_gram(alpha, pm)
        for b_value in range(pm.modulus):
            for primitive in (False, True):
                assert counting.count_column_pair(b_value, a, primitive) == \
                    column_pair_reference(b_value, a, primitive), (alpha, b_value, primitive)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy used: np.{name}")


def test_closed_routes_use_no_numpy(monkeypatch):
    # the 1x1 counts and the size-2 counts, in p^e H and diagonal targets, are
    # pure Python ints; at level 2, p Pi is not 0, so (3,3) is a p^e H block
    monkeypatch.setattr(counting, "np", _NoNumpy())
    for p in (3, 5):
        for ell in (2, 3):
            pm = RingParams(p, ell)
            blocks = [1, p, build_gram((1, 1), pm), build_gram((3, 3), pm)]
            for primitive in (False, True):
                counting.count_diagonal_convolved(1, blocks, pm, primitive)
                for alpha in ((1, 1), (3, 3), (0, 0), (2, 0), (4, 2)):
                    a = build_gram(alpha, pm)
                    counting.count_matrix_pair(a, a, primitive)


@pytest.mark.parametrize("beta,alpha", [((2,), (1, 1)), ((0,), (3, 3)), ((0,), (1, 1))])
@pytest.mark.parametrize("primitive", [False, True])
def test_column_pair_vs_generic(beta, alpha, primitive):
    b = build_gram(beta, PM1)
    a = build_gram(alpha, PM1)
    got = counting.count_column_pair(b.entries[0][0].a, a, primitive=primitive)
    assert got == counting.count_generic(b, a, primitive=primitive)


def _scalar(value, params):
    return HermMatrix([[QuatElem.scalar(value, params)]], params)


@pytest.mark.parametrize("params", [PM1, PM5], ids=["p3", "p5"])
def test_column_pair_every_b_vs_generic(params):
    a = build_gram((1, 1), params)
    for b_value in range(params.p):
        b = _scalar(b_value, params)
        for primitive in (False, True):
            assert counting.count_column_pair(b_value, a, primitive) == \
                counting.count_generic(b, a, primitive=primitive)


@settings(max_examples=12, deadline=None)
@given(st.tuples(*[st.integers(0, 2)] * 4), st.integers(0, 2), st.booleans())
def test_column_pair_random_beta_vs_generic(beta, b_value, primitive):
    z, q = QuatElem.zero(PM1), QuatElem(*beta, PM1)
    a = HermMatrix([[z, q], [q.conj(), z]], PM1)
    assert counting.count_column_pair(b_value, a, primitive) == \
        counting.count_generic(_scalar(b_value, PM1), a, primitive=primitive)


def test_column_pair_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="zero-diagonal"):
        counting.count_column_pair(0, build_gram((0, 0), PM1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_column_pair_zero_form_density(p):
    # primitive representations of 0 by H normalize to q(1 - q^-4) at every level
    closed = density_zero_ht(1).eval_at(p)
    for ell in range(1, 7):
        a = build_gram((1, 1), RingParams(p, ell))
        assert Fraction(counting.count_column_pair(0, a, True), p ** (7 * ell)) == closed


# Frozen counts at p = 3, level 2, (alpha, b) -> (plain, primitive), taken from
# a direct scan over all p^(8*ell) pairs (x, y); the opt-in test below checks
# them against count_generic (QUATHERM_SLOW_TESTS=1).
COLUMN_PAIR_FROZEN = {
    ((1, 1), 0): (14703201, 14171760),
    ((1, 1), 1): (0, 0),
    ((1, 1), 3): (14171760, 14171760),
    ((3, 3), 0): (43046721, 42515280),
    ((3, 3), 1): (0, 0),
    ((3, 3), 3): (0, 0),
}


@pytest.mark.parametrize(("alpha", "b_value"), sorted(COLUMN_PAIR_FROZEN))
def test_column_pair_frozen_level2(alpha, b_value):
    a = build_gram(alpha, RingParams(3, 2))
    assert tuple(counting.count_column_pair(b_value, a, primitive)
                 for primitive in (False, True)) == COLUMN_PAIR_FROZEN[(alpha, b_value)]


@pytest.mark.skipif(not os.environ.get("QUATHERM_SLOW_TESTS"),
                    reason="3^16-point direct enumeration; set QUATHERM_SLOW_TESTS=1")
@pytest.mark.parametrize(("alpha", "b_value"), sorted(COLUMN_PAIR_FROZEN))
def test_column_pair_level2_vs_generic(alpha, b_value):
    pm = RingParams(3, 2)
    a = build_gram(alpha, pm)
    assert tuple(counting.count_generic(_scalar(b_value, pm), a, primitive=primitive)
                 for primitive in (False, True)) == COLUMN_PAIR_FROZEN[(alpha, b_value)]


@pytest.mark.parametrize("beta,alpha", [((0,), (0, 0)), ((0,), (2, 2)), ((2,), (2, 0))])
@pytest.mark.parametrize("primitive", [False, True])
def test_convolution_vs_generic(beta, alpha, primitive):
    b = build_gram(beta, PM1)
    a = build_gram(alpha, PM1)
    got = counting.count_diagonal_convolved(
        b.entries[0][0].a, [a.entries[i][i].a for i in range(2)], PM1,
        primitive=primitive)
    assert got == counting.count_generic(b, a, primitive=primitive)


def test_kernels_at_p5():
    a = build_gram((0,), PM5)
    direct = counting.count_generic(a, a)
    conv = counting.count_diagonal_convolved(1, [1], PM5)
    assert direct == conv


def test_convolution_builds_no_histogram(monkeypatch):
    # the valuation algebra reads ell + 1 ints per block, never a p^ell histogram;
    # block order does not change the count
    calls = []
    build = counting.nrd_histogram
    monkeypatch.setattr(counting, "nrd_histogram",
                        lambda *args, **kwargs: calls.append(args[1]) or build(*args, **kwargs))
    pm = RingParams(3, 2)
    assert counting.count_diagonal_convolved(0, [1, 1, 1, 3], pm) == \
        counting.count_diagonal_convolved(0, [3, 1, 1, 1], pm)
    assert calls == []


def _reference_targets(p, ell):
    """Block lists for the histogram reference: Gram targets, p^e H blocks
    included, and scalars 0, units, nonresidues and multiples of p."""
    pm = RingParams(p, ell)
    labels = [(0,), (2,), (1, 1), (0, 0), (2, 0), (3, 3), (1, 1, 0), (4, 2, 0), (2, 1, 1)]
    e2 = pm.eps2
    scalars = [[0], [e2], [p, 2 * p], [1, e2 * p], [p * p, 0, 1], [e2, e2 * p * p, p + 1]]
    return [gram_blocks(build_gram(alpha, pm)) for alpha in labels] + scalars


@pytest.mark.parametrize(("p", "ell"), [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                        (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_valuation_matches_histogram_reference(p, ell):
    pm = RingParams(p, ell)
    for blocks in _reference_targets(p, ell):
        for primitive in (False, True):
            assert [counting.count_diagonal_convolved(b, blocks, pm, primitive)
                    for b in range(pm.modulus)] == histogram_counts(blocks, pm, primitive), \
                (blocks, primitive)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5]), st.lists(st.integers(0, 8), min_size=1, max_size=2),
       st.integers(0, 8), st.booleans())
def test_valuation_vs_generic_level1(p, scalars, b_value, primitive):
    pm = RingParams(p, 1)
    scalars = scalars[:1] if p == 5 else scalars   # 5^8 matrices for two rows
    z = QuatElem.zero(pm)
    a = HermMatrix([[QuatElem.scalar(s, pm) if i == j else z for j in range(len(scalars))]
                    for i, s in enumerate(scalars)], pm)
    assert counting.count_diagonal_convolved(b_value, scalars, pm, primitive) == \
        counting.count_generic(_scalar(b_value, pm), a, primitive=primitive)


def test_histogram_total_mass():
    h = counting.nrd_histogram(PM1)
    assert sum(h) == 81
    hr = counting.nrd_histogram(PM1, in_radical=True)
    assert sum(hr) == 9


def _grid_histogram(params, scale, in_radical):
    """Brute-force reference: scale * Nrd over the whole p^(4*ell) coordinate grid."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    ab = np.arange(p ** (ell - 1), dtype=np.int64) * p if in_radical else np.arange(pl)
    cd = np.arange(pl, dtype=np.int64)
    a, b = ab[:, None, None, None], ab[None, :, None, None]
    c, d = cd[None, None, :, None], cd[None, None, None, :]
    nrd = (a * a - e2 * (b * b) - p * (c * c - e2 * (d * d))) % pl
    return np.bincount((nrd * scale % pl).ravel(), minlength=pl).tolist()


@pytest.mark.parametrize(("p", "ell"), [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
@pytest.mark.parametrize("scale", ["1", "p", "2"])
@pytest.mark.parametrize("in_radical", [False, True])
def test_histogram_matches_grid(p, ell, scale, in_radical):
    pm = RingParams(p, ell)
    s = p if scale == "p" else int(scale)
    assert counting.nrd_histogram(pm, s, in_radical) == _grid_histogram(pm, s, in_radical)


def test_convolution_exact_past_int64():
    # 3^48 columns of three entries at p=3, level 4; 3^42 of them in the radical
    pm = RingParams(3, 4)
    total = sum(counting.count_diagonal_convolved(b, [1, 1, 1], pm) for b in range(81))
    assert total == 3**48 > 2**63
    primitive = sum(counting.count_diagonal_convolved(b, [1, 1, 1], pm, primitive=True)
                    for b in range(81))
    assert primitive == 3**48 - 3**42


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 1)])
def test_rank_mask_matches_residue_rank(rows, cols):
    # every rows x cols matrix over F_9, as residues of (a, b) at p = 3
    field = list(itertools.product(range(3), repeat=2))
    mats = list(itertools.product(field, repeat=rows * cols))
    res = [[tuple(np.array([mat[k * cols + j][t] for mat in mats], dtype=np.int64)
                  for t in range(2))
            for j in range(cols)] for k in range(rows)]
    mask = counting._rank_mask(res, 3, PM1.eps2)
    for mat, full in zip(mats, mask):
        u = QuatMatrix([[QuatElem(*mat[k * cols + j], 0, 0, PM1) for j in range(cols)]
                        for k in range(rows)], PM1)
        assert bool(full) == (residue_rank(u) == cols)


def test_budget_error():
    pm = RingParams(3, 3)
    a = build_gram((0, 0, 0), pm)
    with pytest.raises(counting.InfeasibleSizeError):
        counting.count_generic(a, a, budget=10**6)


def test_cost_guard_message():
    # the shared guard names the kernel, the estimate, the limits and the
    # deepest level that fits at p; level 564 is the first the size-2 count
    # refuses, as its count could pass 4300 digits
    a = build_gram((0, 0), RingParams(3, 564))
    with pytest.raises(counting.InfeasibleSizeError) as exc:
        counting.count_matrix_pair(a, a)
    msg = str(exc.value)
    assert msg.startswith("count_matrix_pair needs ~7.831e+07 ops and ")
    assert "at p=3, level 564 (budget 6.872e+10 ops, limit 1.611e+09 bytes, 4300 digits)" in msg
    assert msg.endswith("; the highest feasible level at p=3 is 563")
    with pytest.raises(counting.InfeasibleSizeError, match="no level is feasible at p=3$"):
        counting.count_generic(a, a, budget=10**6)
