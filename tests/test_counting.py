"""Cross-checks of the specialized counting kernels against direct enumeration."""

import itertools
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatherm import counting
from quatherm.density import build_gram, density_zero_ht
from quatherm.quatring import HermMatrix, QuatElem, QuatMatrix, RingParams, residue_rank

PM1 = RingParams(3, 1)
PM5 = RingParams(5, 1)


def _zero(params, n=1):
    z = QuatElem.zero(params)
    return HermMatrix([[z] * n for _ in range(n)], params)


# Frozen oracles for the 2x2 kernel at p = 3, level 1.  Each value has an
# independent derivation and every line was cross-checked once against the
# chunked direct enumeration over all 3^16 matrices (83 s/run, rerun with
# QUATHERM_SLOW_TESTS=1):
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


def test_convolution_builds_each_histogram_once(monkeypatch):
    calls = []
    build = counting.nrd_histogram
    monkeypatch.setattr(counting, "nrd_histogram",
                        lambda *args, **kwargs: calls.append(args[1]) or build(*args, **kwargs))
    pm = RingParams(3, 2)
    assert counting.count_diagonal_convolved(0, [1, 1, 1, 3], pm) == \
        counting.count_diagonal_convolved(0, [3, 1, 1, 1], pm)
    assert calls == [1, 3, 3, 1]


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
    # the shared guard names the kernel, the estimate, both limits and the
    # deepest level that fits at p
    a = build_gram((0, 0), RingParams(3, 2))
    with pytest.raises(counting.InfeasibleSizeError) as exc:
        counting.count_matrix_pair(a, a)
    msg = str(exc.value)
    assert msg.startswith("count_matrix_pair needs ~1.482e+16 ops and ")
    assert "at p=3, level 2 (budget 6.872e+10 ops, limit 1.611e+09 bytes)" in msg
    assert msg.endswith("; the highest feasible level at p=3 is 1")
    with pytest.raises(counting.InfeasibleSizeError, match="no level is feasible at p=3$"):
        counting.count_generic(a, a, budget=10**6)
