"""Cross-checks of the specialized counting kernels against direct enumeration."""

import itertools
import os

import numpy as np
import pytest

from quatherm import counting
from quatherm.density import build_gram
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


@pytest.mark.parametrize("beta,alpha", [((0,), (0, 0)), ((2,), (2, 0)), ((0,), (1, 1))])
@pytest.mark.parametrize("primitive", [False, True])
def test_column_pair_vs_generic(beta, alpha, primitive):
    b = build_gram(beta, PM1)
    a = build_gram(alpha, PM1)
    got = counting.count_column_pair(b.entries[0][0].a, a, primitive=primitive)
    assert got == counting.count_generic(b, a, primitive=primitive)


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


def test_histogram_total_mass():
    h = counting.nrd_histogram(PM1)
    assert sum(h) == 81
    hr = counting.nrd_histogram(PM1, in_radical=True)
    assert sum(hr) == 9


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
