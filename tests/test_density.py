import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatherm import counting
from quatherm.cli import main
from quatherm.density import (
    DensityResult,
    InvalidPartition,
    build_gram,
    count_reps,
    density_ht_closed,
    density_levels,
    density_self_closed,
    density_unit_closed,
    density_unit_vector,
    density_zero_ht,
    gram_blocks,
    is_orbit_label,
    key_beta,
    shift_factor,
)
from quatherm.quatring import HermMatrix, QuatElem, RingParams
from quatherm.ratfunc import ONE, Q, qpow, w_factor

from oracles import as_hermitian, identity_matrix, tail_dominates

PM1 = RingParams(3, 1)
PM2 = RingParams(3, 2)


def test_orbit_labels():
    assert is_orbit_label((3, 3, 2))
    assert is_orbit_label((0, 0))
    assert not is_orbit_label((3, 2))        # lone odd value
    assert not is_orbit_label((1, 2))        # increasing
    assert is_orbit_label((2, 1, 1, 0))
    with pytest.raises(InvalidPartition):
        build_gram((1, 0), PM1)


def test_build_gram():
    assert build_gram((0, 0), PM2) == as_hermitian(identity_matrix(2, PM2))
    h1 = build_gram((1, 1), PM2)
    assert h1.entries[0][1].coords() == (0, 0, 1, 0)
    assert h1.entries[1][0].coords() == (0, 0, 9 - 1, 0)
    assert not h1.entries[0][0]
    g = build_gram((2, 0), PM2)
    assert g.entries[0][0].coords() == (3, 0, 0, 0)
    assert g.entries[1][1].coords() == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        build_gram((0, -2), PM2)


def test_count_small_values():
    b = build_gram((0,), PM1)
    assert count_reps(b, b) == 36
    b2 = build_gram((0,), PM2)
    assert count_reps(b2, b2) == 972
    zero = HermMatrix([[QuatElem.zero(PM1)]], PM1)
    assert count_reps(zero, build_gram((1, 1), PM1), primitive=True) == 6480


def test_convolution_matches_direct(capsys):
    b = build_gram((0,), PM1)
    a = build_gram((0, 0), PM1)
    assert count_reps(b, a) == counting.count_generic(b, a)
    b2 = build_gram((0,), PM2)
    a2 = build_gram((0,), PM2)
    assert count_reps(b2, a2) == 972
    # --method convolve refuses only a source larger than 1x1; with a 1x1
    # source every Gram target is block-diagonal, so it matches enumerate
    assert main(["density", "--method", "convolve", "--ell", "1",
                 "--beta", "0,0", "--alpha", "0,0"]) == 2
    assert "1x1 source form" in capsys.readouterr().err
    outputs = []
    for method in ("convolve", "enumerate"):
        assert main(["density", "--method", method, "--ell", "1,2",
                     "--beta", "0", "--alpha", "1,1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


KERNELS = ("count_diagonal_convolved", "count_column_pair", "count_matrix_pair",
           "count_generic")


# a 2x2 target with a nonzero diagonal and a nonzero off-diagonal entry
NON_BLOCK = HermMatrix([[QuatElem.scalar(1, PM1), QuatElem(0, 0, 1, 0, PM1)],
                        [QuatElem(0, 0, 2, 0, PM1), QuatElem.scalar(1, PM1)]], PM1)


@pytest.mark.parametrize(("beta", "alpha", "p", "kernel"), [
    ((0,), (0, 0), 3, "count_diagonal_convolved"),
    ((0,), (1, 1), 3, "count_diagonal_convolved"),
    ((0, 0), (2, 0), 3, "count_matrix_pair"),
    ((0, 0), (0, 0), 5, "count_matrix_pair"),
    ((0,), (1, 1, 0), 3, "count_diagonal_convolved"),
    ((0,), (0, 0, 0), 3, "count_diagonal_convolved"),
    ((0,), NON_BLOCK, 3, "count_generic"),
    ((0, 0), NON_BLOCK, 3, "count_generic"),
])
def test_dispatch_pins_kernel(monkeypatch, beta, alpha, p, kernel):
    """count_reps picks the kernel by shape alone, at level 1."""
    ran = []
    for name in KERNELS:
        monkeypatch.setattr(counting, name,
                            lambda *args, _name=name, **kwargs: ran.append(_name) or 0)
    pm = RingParams(p, 1)
    a = alpha if isinstance(alpha, HermMatrix) else build_gram(alpha, pm)
    count_reps(build_gram(beta, pm), a)
    assert ran == [kernel]


def test_gram_blocks():
    pm = RingParams(3, 2)
    blocks = gram_blocks(build_gram((2, 1, 1), pm))
    assert blocks[0] == 3 and blocks[1] == build_gram((1, 1), pm)
    assert gram_blocks(build_gram((0, 0), pm)) == [1, 1]
    assert gram_blocks(NON_BLOCK) is None


@st.composite
def _hermitian_level1(draw):
    """A random hermitian m x m form at p=3, level 1, m in {1, 2, 3}: diagonal,
    general, or block-diagonal with random zero-diagonal 2x2 blocks."""
    m = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("diagonal", "general", "blocks")))
    coord = st.integers(0, 2)
    entries = [[QuatElem.zero(PM1)] * m for _ in range(m)]
    i = 0
    while i < m:
        if shape == "blocks" and i + 1 < m and draw(st.booleans()):
            q = QuatElem(*(draw(coord) for _ in range(4)), PM1)
            entries[i][i + 1], entries[i + 1][i] = q, q.conj()
            i += 2
            continue
        entries[i][i] = QuatElem.scalar(draw(coord), PM1)
        for j in range(i + 1, m):
            if shape == "general":
                q = QuatElem(*(draw(coord) for _ in range(4)), PM1)
                entries[i][j], entries[j][i] = q, q.conj()
        i += 1
    return HermMatrix(entries, PM1)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_hermitian_level1(), st.integers(0, 2), st.booleans())
@example(build_gram((0, 0), PM1), 1, True)        # convolution
@example(build_gram((1, 1), PM1), 0, True)        # alternating block
@example(build_gram((1, 1, 0), PM1), 1, False)    # mixed blocks
@example(NON_BLOCK, 1, True)                      # direct enumeration
def test_count_reps_matches_generic(a, b_value, primitive):
    b = HermMatrix([[QuatElem.scalar(b_value, PM1)]], PM1)
    assert count_reps(b, a, primitive=primitive) == \
        counting.count_generic(b, a, primitive=primitive)


def test_convolution_reaches_deep_levels():
    """Histogram convolution handles levels where direct enumeration cannot.

    The represented entry p^2 vanishes mod p^2, so this pair only stabilizes
    from level 3 on (3^24 resp. 3^32 direct points); at level 2 the count is
    the value of a direct p^(8*ell) scan.
    """
    b2 = build_gram((4,), PM2)
    a2 = build_gram((0, 0), PM2)
    assert count_reps(b2, a2) == 5885217
    results, stable = density_levels((4,), (0, 0), 3, [3, 4])
    assert stable is True
    assert results[-1].normalized == Fraction(8072, 6561)


@pytest.mark.parametrize("alpha", [(1, 1, 0), (2, 1, 1), (4, 1, 1)])
@pytest.mark.parametrize("beta", [(0,), (2,)])
@pytest.mark.parametrize("primitive", [False, True])
def test_mixed_labels_match_generic(alpha, beta, primitive):
    b, a = build_gram(beta, PM1), build_gram(alpha, PM1)
    assert count_reps(b, a, primitive=primitive) == \
        counting.count_generic(b, a, primitive=primitive)


def test_mixed_label_deep_levels():
    results, stable = density_levels((0,), (1, 1, 0), 3, range(2, 7))
    assert stable is True
    assert [r.normalized for r in results] == [Fraction(4, 3)] * 5


def test_budget_guard():
    # the closed size-2 count is charged ~6e4 ops at level 2
    pm = RingParams(3, 2)
    b = build_gram((0, 0), pm)
    a = build_gram((0, 0), pm)
    with pytest.raises(counting.InfeasibleSizeError):
        count_reps(b, a, budget=10**4)


def test_density_levels_stable():
    results, stable = density_levels((0,), (0,), 3, [1, 2])
    assert [r.normalized for r in results] == [Fraction(4, 3), Fraction(4, 3)]
    assert stable is True
    assert results[0] == DensityResult(36, 1, Fraction(4, 3), False)
    _, stable_single = density_levels((0,), (0,), 3, [1])
    assert stable_single is None


def test_closed_formula_values():
    assert density_self_closed((0,) * 3) == density_unit_closed(3)
    assert density_self_closed((1, 1)) == qpow(4) * w_factor(1, qpow(-4))
    assert density_self_closed((1, 1, 1, 1)) == density_ht_closed(2)
    assert density_self_closed((2, 0)) == Q * (ONE + qpow(-1)) ** 2
    # size-2 case list
    for l1, l2 in [(2, 1), (3, 0), (4, 2)]:
        assert density_self_closed((2 * l1, 2 * l2)) == (
            qpow(6 * l1) * (ONE + qpow(-1)) * (ONE - qpow(-2))
            if l1 == l2 else qpow(l1 + 5 * l2) * (ONE + qpow(-1)) ** 2)
    assert density_unit_closed(2) == (ONE + qpow(-1)) * (ONE - qpow(-2))
    assert density_zero_ht(1) == Q * (ONE - qpow(-4))
    assert density_ht_closed(2) == qpow(16) * (ONE - qpow(-4)) * (ONE - qpow(-8))
    assert density_unit_vector(2) == ONE - qpow(-2)


def test_closed_formula_matches_counts_n1():
    for alpha, ell in [((0,), 1), ((2,), 2), ((4,), 3)]:
        (res,), _ = density_levels(alpha, alpha, 3, [ell])
        assert res.normalized == density_self_closed(alpha).eval_at(3)


def test_shift():
    assert shift_factor(0, 2) == ONE
    assert density_self_closed((0, 0)) * shift_factor(1, 2) == density_self_closed((2, 2))
    assert density_self_closed((2, 0)) * shift_factor(1, 2) == density_self_closed((4, 2))
    # by counting: mu(<p>, <p>) = q * mu(<1>, <1>)
    (shifted,), _ = density_levels((2,), (2,), 3, [2])
    (base,), _ = density_levels((0,), (0,), 3, [2])
    assert shifted.normalized == 3 * base.normalized


def test_decomposition_closed():
    # alpha = (gamma, beta) with min(gamma) > max(beta): density factors
    for gamma, beta in [((4,), (0,)), ((4, 4), (2,)), ((3, 3), (0, 0))]:
        alpha = gamma + beta
        m, n = len(alpha), len(beta)
        assert density_self_closed(alpha) == (
            qpow(2 * (m - n) * sum(beta))
            * density_self_closed(beta)
            * density_self_closed(gamma))


def test_key_beta():
    assert key_beta((2, 0)) == (0,)
    assert key_beta((1, 1)) == (2,)
    assert key_beta((3, 3, 2)) == (4, 2)
    assert key_beta((0, 0)) == (0,)
    assert key_beta((2, 2)) == (2,)


def test_tail_dominates():
    assert tail_dominates((2, 2, 0), (4, 0, 0))
    assert not tail_dominates((4, 0, 0), (2, 2, 0))
    assert tail_dominates((2, 0), (2, 0))
    assert not tail_dominates((1, 1), (2, 0))
    assert not tail_dominates((2, 0), (1, 1))


def test_key_lemma_by_counting():
    """Witness density is nonzero; same-weight tail-dominating rivals vanish.

    For size 2 distinct equal-weight labels are never tail-comparable, so the
    rival set is empty there and the content is the nonvanishing claim.
    """
    lambda2_weighted = {}
    for a in range(0, 5):
        for b in range(-2, a + 1):
            if is_orbit_label((a, b)):
                lambda2_weighted.setdefault(a + b, []).append((a, b))
    for alpha in [(0, 0), (2, 0), (1, 1), (2, 2)]:
        beta = key_beta(alpha)
        rivals = [g for g in lambda2_weighted.get(sum(alpha), [])
                  if g != alpha and tail_dominates(g, alpha)]
        assert rivals == []
        pm = RingParams(3, 2)
        cnt = count_reps(build_gram(beta, pm), build_gram(alpha, pm), primitive=True)
        assert cnt > 0


def test_primitive_at_most_total():
    for alpha in [(0, 0), (2, 0)]:
        a = build_gram(alpha, PM1)
        assert count_reps(a, a, primitive=True) <= count_reps(a, a)
    b = build_gram((0,), PM2)
    a = build_gram((2, 0), PM2)
    assert count_reps(b, a, primitive=True) <= count_reps(b, a)


# every orbit label of size 1-3 with entries in [0, 4]: 3 + 8 + 16 targets
STABLE_LEVEL_TARGETS = [alpha for m in (1, 2, 3)
                        for alpha in itertools.product(range(4, -1, -1), repeat=m)
                        if is_orbit_label(alpha)]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("beta", [(0,), (2,), (4,), (6,)])
def test_first_stable_level_of_1x1_counts(p, beta):
    # the normalized counts at levels 1..l0+3 agree exactly from l0 = beta_1/2 + 1 on
    l0 = beta[0] // 2 + 1
    assert len(STABLE_LEVEL_TARGETS) == 27
    for alpha in STABLE_LEVEL_TARGETS:
        values = [r.normalized for r in density_levels(beta, alpha, p, range(1, l0 + 4))[0]]
        first = next(ell for ell in range(1, l0 + 4) if len(set(values[ell - 1:])) == 1)
        assert first == l0, (alpha, values)
