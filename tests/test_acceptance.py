"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each test prints a PASS/FAIL line (visible with -s or on failure).  Run the
whole file with:  pytest tests/test_acceptance.py -v

Known honest failures (see README "Acceptance status"): criterion 1 at the
size-2 labels (2,0) and (1,1) with p=3, level 1.  At level 1 the congruence
conditions for these labels are weaker than the stabilization threshold (for
the alternating block form they are vacuous: every matrix counts), so the
normalized count is provably 4 resp. 81 while the stabilized density is 16/3
resp. 80.  Both values were confirmed by two independent kernels.  The
first stable level is 2, where the size-2 count gives 32/27, 16/3 and 80
(test_criterion_1_first_stable_level, and density.oracle.p3.l2.* in
`verify --suite deep`).  The criterion is implemented as stated and left red
rather than weakened.
"""

import itertools
from fractions import Fraction

import pytest

from quatherm import counting, density, elemsym, plancherel, spherical, verify
from quatherm.bivar import BivarRat
from quatherm.density import (
    build_gram,
    count_reps,
    density_levels,
    density_self_closed,
    is_orbit_label,
)
from quatherm.laurent import LaurentPoly
from quatherm.quatring import RingParams, smallest_nonresidue
from quatherm.ratfunc import ONE, Q, qpow, w_factor


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {label}" + (f" :: {detail}" if detail else ""))
    return ok


# -- criterion 1: density oracle agreement ---------------------------------------


DENSITY_TUPLES = [
    (3, 2, (0,)), (3, 2, (2,)), (5, 1, (0,)),
    (3, 1, (0, 0)), (3, 1, (1, 1)), (3, 1, (2, 0)),
]


@pytest.mark.parametrize("p,ell,alpha", DENSITY_TUPLES,
                         ids=lambda v: str(v).replace(" ", ""))
def test_criterion_1_density_oracle(p, ell, alpha):
    (res,), _ = density_levels(alpha, alpha, p, [ell])
    got = res.normalized
    expect = density_self_closed(alpha).eval_at(p)
    ok = report(1, f"count vs closed density, p={p} level={ell} alpha={alpha}",
                got == expect, f"count-normalized {got}, closed {expect}")
    assert ok, (
        f"normalized count {got} != closed density {expect} at p={p}, level {ell}; "
        f"level-1 congruence is below the stabilization threshold for {alpha} "
        "(see the module docstring and README, Acceptance status)")


@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (1, 1)], ids=str)
def test_criterion_1_first_stable_level(alpha):
    results, stable = density_levels(alpha, alpha, 3, [1, 2])
    got = results[-1].normalized
    expect = density_self_closed(alpha).eval_at(3)
    assert report(1, f"count vs closed density at the first stable level, p=3 level=2 "
                     f"alpha={alpha}", got == expect, f"count-normalized {got}, closed {expect}")
    assert stable is (alpha == (0, 0))


def test_criterion_1_expected_values_pinned():
    assert density_self_closed((0,)).eval_at(3) == Fraction(4, 3)
    assert density_self_closed((1, 1)).eval_at(3) == 80
    assert report(1, "pinned values 4/3 and 80", True)


# -- criterion 2: closed-formula consistency --------------------------------------


def test_criterion_2_closed_formula_consistency():
    ok = True
    for n in range(1, 5):
        ok &= density_self_closed((0,) * n) == density.density_unit_closed(n)
    for t in (1, 2):
        ok &= density_self_closed((1,) * (2 * t)) == density.density_ht_closed(t)
    for l1 in range(0, 4):
        ok &= density_self_closed((2 * l1, 2 * l1)) == (
            qpow(6 * l1) * (ONE + qpow(-1)) * (ONE - qpow(-2)))
    for l1, l2 in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 0)]:
        ok &= density_self_closed((2 * l1, 2 * l2)) == (
            qpow(l1 + 5 * l2) * (ONE + qpow(-1)) ** 2)
    for e in (1, 2, 3):
        ok &= density_self_closed((2 * e - 1, 2 * e - 1)) == (
            qpow(6 * e - 2) * (ONE - qpow(-4)))
    assert report(2, "self-density formula vs special cases, symbolic in q", ok)


# -- criterion 3: explicit-formula cross-check ------------------------------------


def test_criterion_3_size2_cross_check():
    labels = [a for a in itertools.product(range(-4, 5), repeat=2)
              if a[0] >= a[1] and is_orbit_label(a)]
    bad = []
    for alpha in labels:
        num, _ = spherical.size2_closed(alpha)
        if num != spherical.psi_explicit(alpha, 2):
            bad.append(alpha)
    constant_ok = spherical.psi_explicit((-1, -1), 2) == LaurentPoly.constant(2, Q - ONE)
    ok = not bad and constant_ok
    assert report(3, f"G_2 * closed = explicit on {len(labels)} labels; (-1,-1) -> q-1",
                  ok, f"mismatches {bad}")


# -- criterion 4: symmetry and polynomiality ---------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_4_symmetry_polynomiality(n):
    labels = verify.SYMMETRY_LABELS[n]
    assert len(labels) >= 6
    bad = []
    for alpha in labels:
        try:
            psi = spherical.psi_explicit(alpha, n)
        except Exception as exc:       # noqa: BLE001
            bad.append((alpha, repr(exc)))
            continue
        if not psi.is_symmetric():
            bad.append((alpha, "not symmetric"))
    assert report(4, f"size {n}: exact Laurent polynomials, S_n-invariant",
                  not bad, str(bad))


# -- criterion 5: induction identity ------------------------------------------------


@pytest.mark.parametrize("xi", [(0, 0), (1, 1), (2, 0)], ids=str)
def test_criterion_5_induction(xi):
    ok, lhs, rhs, table = spherical.verify_induction(xi, order=1, p=3, ell=2)
    assert report(5, f"induction series agreement to order 1, xi={xi}",
                  ok, f"lhs {lhs} rhs {rhs} densities {table}")


# -- criterion 6: delta oracle -------------------------------------------------------


@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (1, 1)], ids=str)
def test_criterion_6_delta_oracle(alpha):
    w_or, tail_or, v2_or = spherical.delta_oracle(alpha, p=3, ell=2)
    w_cl, tail_cl, v2_cl = spherical.delta_series_weights(alpha, vmax=2)
    ok = (w_or == {v: c.eval_at(3) for v, c in w_cl.items()}
          and tail_or == tail_cl.eval_at(3) and v2_or == v2_cl)
    assert report(6, f"Iwahori valuation distribution matches closed form, {alpha}",
                  ok, f"oracle {w_or} tail {tail_or}")


def test_criterion_6_geometric_tail_weights():
    # the closed ladder carries weights (1 - 1/q) q^(e - v), e = 1
    w_cl, tail, _ = spherical.delta_series_weights((1, 1), vmax=4)
    ok = all(w_cl[v] == (ONE - qpow(-1)) * qpow(1 - v) for v in (1, 2, 3))
    ok &= tail == qpow(-3)
    assert report(6, "geometric tail weights (1-1/q)q^(1-v)", ok)


# -- criterion 7: ideal structure ----------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_7_ideal_structure(n):
    labels = verify.IDEAL_LABELS[n]
    gen_labels = verify.GENERATOR_LABELS[n]
    computed = [elemsym.to_elementary(spherical.psi_explicit(a, n))
                for a in gen_labels]
    tabulated = elemsym.schwartz_image_generators(n)
    bad = []
    for q0 in (2, 3, 5):
        for idx, (c, g) in enumerate(zip(computed, tabulated)):
            if c.leading_normalized(q0) != g.leading_normalized(q0):
                bad.append(("generator", idx, q0))
        basis = elemsym.buchberger([c.leading_normalized(q0) for c in computed], n)
        for alpha in labels:
            e = elemsym.to_elementary(spherical.psi_explicit(alpha, n))
            if not elemsym.ideal_member(e.polynomial_part().specialize(q0), basis):
                bad.append((alpha, q0))
    assert report(7, f"size {n}: generator match and membership at q in (2,3,5)",
                  not bad, str(bad))


# -- criterion 8: orthogonality -------------------------------------------------------


def test_criterion_8_orthogonality_bivariate():
    u1, u2 = BivarRat.u(1), BivarRat.u(2)
    one = BivarRat.const(1)
    bad = []
    hs = {l: plancherel.h_poly(l, u1, u2) for l in range(1, 5)}
    for l in range(1, 5):
        for m in range(1, 5):
            got = plancherel.y_inner(hs[l], hs[m], u1, u2)
            expect = (one - u1 * u2) if l == m == 1 else (
                one if l == m else BivarRat.const(0))
            if not got == expect:
                bad.append((l, m))
    for l in range(1, 5):
        if not plancherel.y_integral(hs[l], u1, u2) == BivarRat.const(0):
            bad.append(("w-vanish", l))
    mass = plancherel.y_integral({0: one}, u1, u2)
    if not mass == one / ((one + u1) * (one + u2) * (one - u1 * u2)):
        bad.append("mass")
    assert report(8, "orthogonality suite exact in (u1, u2), indices <= 4",
                  not bad, str(bad))


# -- criterion 9: Plancherel and inversion --------------------------------------------


def test_criterion_9_plancherel_inversion():
    S = verify.PLANCHEREL_SET
    bad = []
    for a in S:
        for b in S:
            if not plancherel.plancherel_check(a, b):
                bad.append(("plancherel", a, b))
            if not plancherel.inversion_check(a, b):
                bad.append(("inversion", a, b))
    prenorm = (ONE - qpow(-1)) / (ONE + qpow(-2)) ** 2
    norm_cases = {
        (2, 2): prenorm,
        (4, 0): qpow(4) * (ONE - qpow(-1)) * prenorm,
        (1, 1): qpow(-1) * (ONE + qpow(-1)) / (ONE + qpow(-2)) * prenorm,
    }
    for alpha, expect in norm_cases.items():
        got = plancherel.transform_pairing(alpha, alpha) / plancherel.norm_constant()
        if got != expect:
            bad.append(("norm", alpha))
    assert report(9, "Plancherel diagonal = orbit volumes; norms; inversion 0/1",
                  not bad, str(bad))


# -- criterion 10: model independence ---------------------------------------------------


def test_criterion_10_model_independence():
    p = 5
    first = smallest_nonresidue(p)
    second = next(e for e in range(first + 1, p)
                  if pow(e, (p - 1) // 2, p) == p - 1)
    counts = []
    for eps2 in (first, second):
        params = RingParams(p, 1, eps2)
        a = build_gram((0,), params)
        counts.append(count_reps(a, a))
    ok = counts[0] == counts[1]
    assert report(10, f"p=5 counts identical for nonresidues {first}, {second}",
                  ok, str(counts))
