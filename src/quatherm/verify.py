"""The tiered verification suite behind the `verify` CLI subcommand and the
acceptance tests.

Tiers: "symbolic" finishes in seconds, "counting" adds small exhaustive
enumerations, "deep" adds the large (multi-minute) enumerations and the
size-4 symbolic work.  Every check reports exact expected/actual strings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import counting, density, elemsym, plancherel, spherical
from .bivar import BivarRat
from .laurent import LaurentPoly
from .quatring import smallest_nonresidue
from .ratfunc import ONE, Q, format_fraction, qpow


@dataclass
class CheckResult:
    check_id: str
    name: str
    status: str                 # pass / fail / skip
    expected: str = ""
    actual: str = ""
    note: str = ""
    seconds: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _check(results, check_id, name, expected, actual, note="", t0=None):
    status = "pass" if expected == actual else "fail"
    seconds = (time.monotonic() - t0) if t0 is not None else 0.0
    results.append(CheckResult(check_id, name, status, str(expected), str(actual), note, seconds))


def _frac(x: Fraction) -> str:
    return format_fraction(x)


# -- symbolic tier -----------------------------------------------------------------


def check_closed_formula_consistency(results):
    """Self-density closed formula against its special cases, symbolically in q."""
    t0 = time.monotonic()
    cases = []
    for n in range(1, 5):
        cases.append((tuple([0] * n), density.density_unit_closed(n)))
    for t in range(1, 3):
        cases.append((tuple([1] * (2 * t)), density.density_ht_closed(t)))
    for l1 in range(0, 3):
        cases.append(((2 * l1, 2 * l1), qpow(6 * l1) * (ONE + qpow(-1)) * (ONE - qpow(-2))))
    for l1, l2 in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        cases.append(((2 * l1, 2 * l2), qpow(l1 + 5 * l2) * (ONE + qpow(-1)) ** 2))
    for e in range(1, 4):
        cases.append(((2 * e - 1, 2 * e - 1), qpow(6 * e - 2) * (ONE - qpow(-4))))
    bad = [alpha for alpha, expect in cases
           if density.density_self_closed(alpha) != expect]
    _check(results, "density.closed.consistency",
           "self-density formula reproduces the unit, alternating-block and size-2 cases",
           "[]", str(bad), t0=t0)


def _lambda2_window(bound: int):
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, a + 1):
            if density.is_orbit_label((a, b)):
                out.append((a, b))
    return out


def check_size2_cross(results):
    """G_2 * (size-2 closed form) equals the explicit formula on a window."""
    t0 = time.monotonic()
    bad = []
    for alpha in _lambda2_window(4):
        num, _ = spherical.size2_closed(alpha)
        if num != spherical.psi_explicit(alpha, 2):
            bad.append(alpha)
    _check(results, "spherical.size2.cross",
           "size-2 closed form times G_2 equals the explicit formula, entries in [-4, 4]",
           "[]", str(bad), t0=t0)
    t0 = time.monotonic()
    val = spherical.psi_explicit((-1, -1), 2)
    _check(results, "spherical.size2.constant",
           "explicit value at the odd unit pair is the constant q - 1",
           "q - 1", "q - 1" if val == LaurentPoly.constant(2, Q - ONE) else str(val), t0=t0)


SYMMETRY_LABELS = {
    1: [(0,), (2,), (4,), (6,), (-2,), (8,)],
    2: [(0, 0), (2, 0), (1, 1), (2, 2), (4, 2), (3, 3)],
    3: [(0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 2, 0), (2, 1, 1), (0, -1, -1)],
    4: [(0, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0),
        (-1, -1, -1, -1)],
    5: [(0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 2, 0, 0, 0),
        (3, 3, 1, 1, 0), (0, -1, -1, -1, -1)],
}


def check_symmetry_polynomiality(results, sizes=(1, 2, 3)):
    """Explicit values expand exactly (no division failure) and are invariant."""
    for n in sizes:
        t0 = time.monotonic()
        bad = []
        for alpha in SYMMETRY_LABELS[n]:
            try:
                psi = spherical.psi_explicit(alpha, n)
            except Exception as exc:   # noqa: BLE001 - reported, not raised
                bad.append((alpha, repr(exc)))
                continue
            if not psi.is_symmetric():
                bad.append((alpha, "not symmetric"))
        _check(results, f"spherical.symmetry.n{n}",
               f"size-{n} explicit values are exact symmetric Laurent polynomials",
               "[]", str(bad), t0=t0)


def orthogonality_suite(pairs, vanishing=()):
    """Weight-family identities in bivariate (u1, u2), as (key, ok) pairs.

    Keys: ("inner", l, m) for <H_l, H_m> over pairs, ("vanishing", l) for the
    integral of H_l over vanishing, then ("weight-mass",) for the weight.
    """
    u1, u2 = BivarRat.u(1), BivarRat.u(2)
    one = BivarRat.const(1)
    out = []
    hs = {l: plancherel.h_poly(l, u1, u2) for l in range(1, 5)}
    for l, m in pairs:
        got = plancherel.y_inner(hs[l], hs[m], u1, u2)
        expect = (one - u1 * u2) if l == m == 1 else (one if l == m else BivarRat.const(0))
        out.append((("inner", l, m), bool(got == expect)))
    for l in vanishing:
        out.append((("vanishing", l),
                    bool(plancherel.y_integral(hs[l], u1, u2) == BivarRat.const(0))))
    wint = plancherel.y_integral({0: one}, u1, u2)
    out.append((("weight-mass",),
                bool(wint == one / ((one + u1) * (one + u2) * (one - u1 * u2)))))
    return out


def check_orthogonality_bivariate(results):
    """Weight-family orthogonality as exact bivariate rational identities."""
    t0 = time.monotonic()
    pairs = [(l, m) for l in range(1, 5) for m in range(1, 5)]
    bad = [key for key, ok in orthogonality_suite(pairs, vanishing=range(1, 5)) if not ok]
    _check(results, "plancherel.orthogonality",
           "orthogonality suite holds as bivariate rational identities, indices <= 4",
           "[]", str(bad), t0=t0)


PLANCHEREL_SET = [(0, 0), (2, 0), (2, 2), (1, 1), (3, 3)]


def check_plancherel_inversion(results):
    """Three checks on one set of pairings, each computed once."""
    t0 = time.monotonic()
    pairings = {(a, b): plancherel.transform_pairing(a, b)
                for a in PLANCHEREL_SET for b in PLANCHEREL_SET}
    bad = [(a, b) for (a, b), p in pairings.items() if not plancherel.plancherel_check(a, b, p)]
    _check(results, "plancherel.pairing",
           "normalized transform pairing is diagonal with orbit-volume values",
           "[]", str(bad), t0=t0)

    t0 = time.monotonic()
    prenorm = (ONE - qpow(-1)) / (ONE + qpow(-2)) ** 2
    bad = []
    for alpha in PLANCHEREL_SET:
        got = pairings[alpha, alpha] / plancherel.norm_constant()
        if got != plancherel.orbit_volume(alpha) * prenorm:
            bad.append(alpha)
    _check(results, "plancherel.norms",
           "pre-normalization norms equal volume * (1 - 1/q)/(1 + 1/q^2)^2",
           "[]", str(bad), t0=t0)

    t0 = time.monotonic()
    bad = [(a, b) for (a, b), p in pairings.items() if not plancherel.inversion_check(a, b, p)]
    _check(results, "plancherel.inversion",
           "inversion recovers the 0/1 indicator values",
           "[]", str(bad), t0=t0)


def check_transform_vs_psi(results):
    """Size-2 transforms equal volume times the explicit value in (x, y)."""
    t0 = time.monotonic()
    u1, u2 = Q, qpow(-2)
    bad = []
    for alpha in PLANCHEREL_SET:
        tv = plancherel.f_hat_size2(alpha)
        psi = spherical.psi_explicit(alpha, 2)
        vol = plancherel.orbit_volume(alpha)
        # regroup psi as q^(c x) * (Y-Laurent); exponents (e1, e2) give
        # x-power e1 + e2 and Y-power e2 - e1
        xparts = {}
        for (e1, e2), c in psi.terms.items():
            xparts.setdefault(e1 + e2, {})[e2 - e1] = c * vol
        ypart = plancherel._y_part(tv, u1, u2)
        expect = {tv.x_exp: {k: c * tv.scalar for k, c in ypart.items()}}
        if xparts != expect:
            bad.append(alpha)
    _check(results, "plancherel.transform-values",
           "transforms match volume times the explicit value in split coordinates",
           "[]", str(bad), t0=t0)


def check_sz_convert(results):
    t0 = time.monotonic()
    bad = []
    for n in (1, 2, 3, 4):
        zero_s = tuple([0] * n)
        if spherical.sz_convert(zero_s, "s_to_z") != tuple(map(Fraction, spherical.z_zero(n))):
            bad.append(("origin", n))
        pt = tuple(Fraction(k + 1, 2) for k in range(n))
        back = spherical.sz_convert(spherical.sz_convert(pt, "s_to_z"), "z_to_s")
        if back != pt:
            bad.append(("roundtrip", n))
    _check(results, "spherical.sz-convert",
           "parameter change of variables is the stated affine bijection",
           "[]", str(bad), t0=t0)


# -- counting tier ------------------------------------------------------------------


DENSITY_CASES_N1 = [(3, 2, (0,)), (3, 2, (2,)), (5, 1, (0,))]
DENSITY_CASES_N2 = [(3, 1, (0, 0)), (3, 1, (1, 1)), (3, 1, (2, 0))]
# level 2 is the first where (2,0) and (1,1) are stable at p=3; p3.l3 and p5.l2 witness it
DENSITY_CASES_N2_STABLE = [(p, ell, alpha) for p, ell in ((3, 2), (3, 3), (5, 2))
                           for alpha in ((0, 0), (2, 0), (1, 1))]
# the alternating self pairs at their first stable level ceil(beta_1/2) + 1;
# p5.l2.1-1 is in the list above
DENSITY_CASES_ALTERNATING = [(p, (alpha[0] + 1) // 2 + 1, alpha) for p in (5, 7, 11)
                             for alpha in ((1, 1), (3, 3), (5, 5)) if (p, alpha) != (5, (1, 1))]
# the diagonal self pairs at their first stable level beta_1/2 + 1; p5.l2.2-0
# is in the stable list above
DENSITY_CASES_DIAGONAL = [(p, alpha[0] // 2 + 1, alpha) for p in (5, 7, 11)
                          for alpha in ((2, 0), (2, 2), (4, 0), (4, 2), (4, 4))
                          if (p, alpha) != (5, (2, 0))]


def check_density_oracle(results, cases, budget):
    for p, ell, alpha in cases:
        t0 = time.monotonic()
        (res,), _ = density.density_levels(alpha, alpha, p, [ell], budget=budget)
        got = res.normalized
        expect = density.density_self_closed(alpha).eval_at(p)
        note = ""
        if got != expect:
            note = ("level-1 congruence conditions are below the stabilization "
                    "threshold for this label (the first stable level, 2, is "
                    "checked by density.oracle.p3.l2.*); see README, Acceptance status")
        _check(results, f"density.oracle.p{p}.l{ell}.{'-'.join(map(str, alpha))}",
               f"normalized count of {alpha} at p={p}, level {ell} equals the closed value",
               _frac(expect), _frac(got), note=note, t0=t0)


def check_delta_oracle(results, labels=((0, 0), (2, 0), (1, 1)), ell=2):
    """The counted Iwahori distribution at p = 3 against the closed ladder;
    the checks above level 2 (the deep tier) run at a level whose enumeration
    (p^(4*ell-2) points) was never feasible, and name it."""
    scope, at = (f"deep.p3.l{ell}.", f" at p=3, level {ell}") if ell != 2 else ("", "")
    for alpha in labels:
        t0 = time.monotonic()
        w_or, tail_or, v2_or = spherical.delta_oracle(alpha, p=3, ell=ell)
        w_cl, tail_cl, v2_cl = spherical.delta_series_weights(alpha, vmax=ell)
        w_cl = {v: c.eval_at(3) for v, c in w_cl.items()}
        expect = (w_cl, tail_cl.eval_at(3), v2_cl)
        got = (w_or, tail_or, v2_or)
        _check(results, f"delta.oracle.{scope}{'-'.join(map(str, alpha))}",
               f"Iwahori valuation distribution for {alpha} matches the closed form{at}",
               str(expect), str(got), t0=t0)


def check_model_independence(results):
    t0 = time.monotonic()
    p = 5
    e_first = smallest_nonresidue(p)
    e_second = next(e for e in range(e_first + 1, p) if
                    pow(e, (p - 1) // 2, p) == p - 1)
    counts = [density.density_levels((0,), (0,), p, [1], eps2=eps2)[0][0].count
              for eps2 in (e_first, e_second)]
    _check(results, "density.model-independence",
           f"counts at p=5 agree for nonresidues {e_first} and {e_second}",
           str(counts[0]), str(counts[1]), t0=t0)


def check_shift_by_counting(results):
    t0 = time.monotonic()
    p = 3
    (shifted,), _ = density.density_levels((2,), (2,), p, [2])
    (base,), _ = density.density_levels((0,), (0,), p, [2])
    lhs, rhs = shifted.normalized, density.shift_factor(1, 1).eval_at(p) * base.normalized
    _check(results, "density.shift",
           "scaling both forms by p multiplies the density by q^(n(2n-1))",
           _frac(rhs), _frac(lhs), t0=t0)


def check_key_lemma(results, budget):
    """Nonvanishing of the witness density one size down, by counting."""
    t0 = time.monotonic()
    p = 3
    bad = []
    for alpha in [(0, 0), (2, 0), (1, 1), (2, 2)]:
        (res,), _ = density.density_levels(density.key_beta(alpha), alpha, p, [2],
                                           primitive=True, budget=budget)
        if res.count == 0:
            bad.append(alpha)
    _check(results, "density.key-witness",
           "the key witness density one size down is nonzero, by counting",
           "[]", str(bad), t0=t0)


def check_decomposition(results, budget):
    """Block decomposition of the self-density, closed forms and one count."""
    t0 = time.monotonic()
    bad = []
    # closed-form side: alpha = (gamma, beta) with min(gamma) > max(beta)
    for gamma, beta in [((4,), (0,)), ((4, 4), (2,)), ((3, 3), (0, 0)), ((6,), (1, 1))]:
        alpha = gamma + beta
        if not density.is_orbit_label(alpha):
            continue
        m, n = len(alpha), len(beta)
        lhs = density.density_self_closed(alpha)
        rhs = (qpow(2 * (m - n) * sum(beta))
               * density.density_self_closed(beta)
               * density.density_self_closed(gamma))
        if lhs != rhs:
            bad.append(alpha)
    # counting side for alpha = (2, 0): mu = q^(2|beta|) mu_pr(beta, alpha) mu(gamma)
    p = 3
    alpha = (2, 0)
    (res,), _ = density.density_levels((0,), alpha, p, [2], primitive=True, budget=budget)
    mu_pr = res.normalized
    lhs = density.density_self_closed(alpha).eval_at(p)
    rhs = mu_pr * density.density_self_closed((2,)).eval_at(p)
    if lhs != rhs:
        bad.append(("counted", alpha))
    _check(results, "density.decomposition",
           "self-density factors through the block decomposition",
           "[]", str(bad), t0=t0)


# -- deep tier -----------------------------------------------------------------------


INDUCTION_CASES = [(0, 0), (1, 1), (2, 0)]


def check_induction(results, budget):
    for xi in INDUCTION_CASES:
        t0 = time.monotonic()
        ok, lhs, rhs, _ = spherical.verify_induction(xi, order=1, p=3, ell=2,
                                                     budget=budget)
        _check(results, f"induction.{'-'.join(map(str, xi))}",
               f"induction identity series coefficients agree to order 1 for {xi}",
               str(lhs), str(rhs), t0=t0)


def check_unit_vector_and_zero_ht(results, budget):
    """The two closed 1x1 densities against counts at p = 3, 5, 7, 11: <1> in
    the identity form of size m = 1..6, and primitive 0 in t = 1..3 alternating
    blocks.  At level ell the label (2*ell) is the zero form: p^ell = 0."""
    # level 1 is already stable for the source <1> (its first stable level is
    # beta_1/2 + 1 = 1); level 2 also exercises the congruences mod p^2
    level = 2
    for p in (3, 5, 7, 11):
        t0 = time.monotonic()
        bad = [m for m in range(1, 7)
               if density.density_levels((0,), (0,) * m, p, [level], budget=budget)[0][0]
               .normalized != density.density_unit_vector(m).eval_at(p)]
        _check(results, f"density.unit-vector.p{p}",
               f"normalized count of <1> in the identity form of size m = 1..6 at p={p}, "
               f"level {level} equals 1 - (-1/q)^m", "[]", str(bad), t0=t0)
    for p in (3, 5, 7, 11):
        t0 = time.monotonic()
        bad = [t for t in range(1, 4)
               if density.density_levels((2 * level,), (1,) * (2 * t), p, [level], primitive=True,
                                         budget=budget)[0][0]
               .normalized != density.density_zero_ht(t).eval_at(p)]
        _check(results, f"density.zero-ht.p{p}",
               f"normalized primitive count of 0 by t = 1..3 alternating blocks at p={p}, "
               f"level {level} equals q(1 - q^(-4t))", "[]", str(bad), t0=t0)


IDEAL_LABELS = {
    3: [(0, 0, 0), (0, -1, -1), (2, 0, 0), (1, 1, 0), (2, 2, 0), (2, 1, 1)],
    4: [(0, 0, 0, 0), (-1, -1, -1, -1), (2, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)],
}

GENERATOR_LABELS = {3: [(0, 0, 0), (0, -1, -1)], 4: [(0, 0, 0, 0), (-1, -1, -1, -1)]}


@lru_cache(maxsize=4)
def generator_forms(n):
    """(computed, tabulated): the main-term elementary forms of
    GENERATOR_LABELS[n] and `elemsym.schwartz_image_generators(n)`, built
    once per process for each n.  Every request shares these objects, so no
    caller may change them."""
    computed = tuple(spherical.main_term_elementary(a, n) for a in GENERATOR_LABELS[n])
    return computed, elemsym.schwartz_image_generators(n)


@lru_cache(maxsize=32)
def generator_basis(n, q0):
    """(generator_ok, basis) at q = q0: per generator label, whether its
    image matches the tabulated generator up to scaling, and the reduced
    Groebner basis of the images, built once per process for each (n, q0)."""
    computed, tabulated = generator_forms(n)
    monic = [c.leading_normalized(q0) for c in computed]
    generator_ok = tuple(m == g.leading_normalized(q0) for m, g in zip(monic, tabulated))
    return generator_ok, elemsym.buchberger(monic, n)


def ideal_verdicts(n, labels, q_specs):
    """Generator agreement and ideal membership at each q in q_specs.

    Every label's elementary form is built once, outside the q-loop, without
    Psi's prefactor (q - 1)^k q^e / prod [i]_{q^2}: at every q0 >= 2 it is a
    nonzero constant, which cancels in `leading_normalized` and cannot change
    membership.  A generator label reuses its form from `generator_forms`,
    and the basis at each q0 comes from `generator_basis`.  Returns a list of
    (q0, generator_ok, members): generator_ok says, per generator label,
    whether its image matches the tabulated generator up to scaling; members
    lists (alpha, verdict) in label order.  Each q0 must be at least 2: q = 0
    is a pole of the prefactor, and at q = 1 its factor (q - 1)^k makes every
    odd-label image zero, a vacuous member.
    """
    bad_q = [q0 for q0 in q_specs if q0 < 2]
    if bad_q:
        raise ValueError(f"q specializations must be integers >= 2, got {bad_q}")
    forms = dict(zip(GENERATOR_LABELS[n], generator_forms(n)[0]))
    for alpha in labels:
        if alpha not in forms:
            forms[alpha] = spherical.main_term_elementary(alpha, n)
    out = []
    for q0 in q_specs:
        generator_ok, basis = generator_basis(n, q0)
        members = [(alpha, elemsym.ideal_member(
                        forms[alpha].polynomial_part().specialize(q0), basis))
                   for alpha in labels]
        out.append((q0, list(generator_ok), members))
    return out


def check_ideal_structure(results, q_specs=(2, 3, 5)):
    for n in (3, 4):
        t0 = time.monotonic()
        bad = []
        for q0, generator_ok, members in ideal_verdicts(n, IDEAL_LABELS[n], q_specs):
            bad += [("generator", n, idx, q0) for idx, ok in enumerate(generator_ok) if not ok]
            bad += [("member", alpha, q0) for alpha, member in members if not member]
        note = ("size-3 second generator carries the s_2 coefficient "
                "q(1/q^2 + 1/q + 1); only this value closes the membership "
                "suite" if n == 3 else "")
        _check(results, f"ideal.structure.n{n}",
               f"size-{n} images generate and lie in the two-generator ideal "
               f"at q in {tuple(q_specs)}",
               "[]", str(bad), note=note, t0=t0)


# -- suite runner ---------------------------------------------------------------------


TIERS = ("symbolic", "counting", "deep")


def run_suite(tier: str = "all", budget: int = counting.DEFAULT_BUDGET):
    """Run the requested tier (or all); returns a list of CheckResult."""
    if tier not in TIERS + ("all",):
        raise ValueError(f"unknown tier {tier!r}")
    results: list[CheckResult] = []
    if tier in ("symbolic", "all"):
        check_closed_formula_consistency(results)
        check_size2_cross(results)
        check_symmetry_polynomiality(results, sizes=(1, 2, 3))
        check_orthogonality_bivariate(results)
        check_plancherel_inversion(results)
        check_transform_vs_psi(results)
        check_sz_convert(results)
    if tier in ("counting", "all"):
        check_density_oracle(results, DENSITY_CASES_N1, budget)
        check_delta_oracle(results)
        check_model_independence(results)
        check_shift_by_counting(results)
        check_decomposition(results, budget)
    if tier in ("deep", "all"):
        check_symmetry_polynomiality(results, sizes=(4, 5))
        check_ideal_structure(results)
        check_induction(results, budget)
        check_key_lemma(results, budget)
        check_density_oracle(results, DENSITY_CASES_N2, budget)
        check_density_oracle(results, DENSITY_CASES_N2_STABLE, budget)
        check_density_oracle(results, DENSITY_CASES_ALTERNATING, budget)
        check_density_oracle(results, DENSITY_CASES_DIAGONAL, budget)
        check_unit_vector_and_zero_ht(results, budget)
        check_delta_oracle(results, labels=((0, 0), (1, 1), (3, 3)), ell=20)
    return results
