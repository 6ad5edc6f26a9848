"""Explicit spherical polynomials and their ingredients.

For an orbit label alpha the normalized spherical function is the symmetric
Laurent polynomial

    Psi(alpha) = (1 - q^-2)^n * c_odd(alpha) * q^<lam, z0> / w_n(q^-2)
                 * sum over permutations of
                   x^lam / prod_{l in I_odd} (x_l - q x_{l+1})
                   * prod_{i<j} (x_i - q x_j)(x_i - q^-2 x_j) / (x_i - x_j),

with lam the entrywise Gauss bracket [(alpha_i + 1)/2], I_odd the set of
first members of the odd pairs, and z0 = (-n+1, -n+3, ..., n-1).  The size-2
closed form, the main-term family, the one-dimensional Iwahori integral and
its finite oracle, and the truncated induction identity all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from . import counting, density
from .density import build_gram, check_orbit_label
from .elemsym import ElemSymExpr
from .laurent import LaurentPoly, alternant_sum, map_distinct, orbit_sum, symmetric_sum
from .quatring import QuatElem, RingParams
from .ratfunc import ONE, Q, IntLaurent, RatFuncQ, ZERO, qpow, w_factor


# -- combinatorial ingredients ---------------------------------------------------


def lambda_alpha(alpha) -> tuple:
    """Entrywise Gauss bracket [(a + 1) / 2]; weakly decreasing."""
    alpha = check_orbit_label(alpha)
    return tuple((a + 1) // 2 for a in alpha)


@dataclass(frozen=True)
class OddData:
    indices: tuple      # 1-based first members of the odd pairs
    c_odd: RatFuncQ


def _odd_indices(alpha, n: int) -> tuple:
    """1-based first members of the odd pairs, paired left to right."""
    if n != len(alpha):
        raise ValueError("arity mismatch")
    idx = []
    i = 0
    while i < n:
        if alpha[i] % 2 != 0:
            if i + 1 >= n or alpha[i + 1] != alpha[i]:
                raise density.InvalidPartition("unpaired odd entry")
            idx.append(i + 1)   # 1-based
            i += 2
        else:
            i += 1
    return tuple(idx)


def odd_data(alpha, n: int | None = None) -> OddData:
    """Pair equal odd entries left to right; the scalar carries
    (1 - 1/q)^k * q^(sum of n - 2l + 1 over first members l)."""
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    idx = _odd_indices(alpha, n)
    if not idx:
        return OddData((), ONE)
    expo = sum(n - 2 * l + 1 for l in idx)
    return OddData(idx, (ONE - qpow(-1)) ** len(idx) * qpow(expo))


def z_zero(n: int) -> tuple:
    """(-n+1, -n+3, ..., n-1)."""
    return tuple(-n - 1 + 2 * i for i in range(1, n + 1))


def gn_factor(n: int) -> LaurentPoly:
    """prod_{i<j} (x_j - q x_i), the polynomial normalizer."""
    out = LaurentPoly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * LaurentPoly.binomial(n, j, i, Q)
    return out


def _pair(lam, z) -> int:
    return sum(a * b for a, b in zip(lam, z))


# -- the explicit formula ----------------------------------------------------------


def _main_term_factors(alpha, n: int) -> list:
    """The numerator over the Vandermonde: (x_i - q x_j)(x_i - q^-2 x_j) for
    i < j, less each odd pair's (x_l - q x_{l+1}), which cancels its
    denominator."""
    odd = {(l - 1, l) for l in _odd_indices(alpha, n)}
    num = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in odd:
                num.append((i, j, Q))
            num.append((i, j, qpow(-2)))
    return num


def _integral_main_term(alpha, n: int) -> LaurentPoly:
    """The symmetrized sum with IntLaurent coefficients in Z[q^+-1]."""
    return orbit_sum(n, lambda_alpha(alpha), _main_term_factors(alpha, n))


def main_term(alpha, n: int | None = None) -> LaurentPoly:
    """The symmetrized sum alone, without the scalar prefactor."""
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    return symmetric_sum(n, lambda_alpha(alpha), _main_term_factors(alpha, n))


def _prefactor(alpha, n: int):
    """(cofactor, orders) with psi_prefactor = cofactor / prod(Phi_d for d in orders).

    psi_prefactor is (q - 1)^k * q^e / prod_{i<=n} [i]_{q^2}, k = |I_odd| for
    odd pairs at l in I_odd, e = sum(n - 2l) + <lam, z0> + n(n - 1) and
    [i]_{q^2} = 1 + q^2 + ... + q^(2i-2) = prod_{d | 2i, d >= 3} Phi_d(q).
    """
    idx = _odd_indices(alpha, n)
    e = sum(n - 2 * l for l in idx) + _pair(lambda_alpha(alpha), z_zero(n)) + n * (n - 1)
    cofactor = IntLaurent([1], e)
    for _ in idx:
        cofactor = cofactor * IntLaurent([-1, 1])
    orders = tuple(d for i in range(1, n + 1) for d in range(3, 2 * i + 1) if 2 * i % d == 0)
    return cofactor, orders


def psi_prefactor(alpha, n: int | None = None) -> RatFuncQ:
    """(1 - q^-2)^n * c_odd * q^<lam, z0> / w_n(q^-2), in the factored form of
    `_prefactor`."""
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    cofactor, orders = _prefactor(alpha, n)
    return RatFuncQ(cofactor, orders)


def _times_prefactor(terms: dict, alpha, n: int) -> dict:
    """Each IntLaurent coefficient times psi_prefactor, each distinct product
    reduced once by cyclotomic trial division."""
    cofactor, orders = _prefactor(alpha, n)
    return map_distinct(terms, lambda c: RatFuncQ(c * cofactor, orders))


def psi_explicit(alpha, n: int | None = None) -> LaurentPoly:
    """Psi(alpha) as an exact symmetric Laurent polynomial."""
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    result = _integral_main_term(alpha, n)
    result.terms = _times_prefactor(result.terms, alpha, n)
    return result


@lru_cache(maxsize=4096)
def _schur_elementary(lam: tuple) -> tuple:
    """((s-exponent, int), ...): the Schur polynomial s_lam of a partition lam
    in elementary coordinates, by the dual Jacobi-Trudi identity
    s_lam = det(e_(lam'_i - i + j)), 1 <= i, j <= lam_1, with lam' the
    conjugate partition, e_0 = 1 and e_k = 0 outside [0, n] (Macdonald,
    Symmetric Functions and Hall Polynomials, I (3.5)), expanded along
    rows."""
    n = len(lam)
    conj = [sum(a > i for a in lam) for i in range(max(lam, default=0))]

    @cache
    def minor(row: int, free: int) -> dict:
        # rows row.. on the columns in the bitmask free
        if row == len(conj):
            return {(0,) * n: 1}
        out, sign = {}, 1
        for j in range(len(conj)):
            if not free >> j & 1:
                continue
            k = conj[row] - row + j
            if 0 <= k <= n:
                for e, c in minor(row + 1, free & ~(1 << j)).items():
                    if k:
                        e = e[:k - 1] + (e[k - 1] + 1,) + e[k:]
                    out[e] = out.get(e, 0) + sign * c
            sign = -sign
        return out

    return tuple((e, c) for e, c in minor(0, (1 << len(conj)) - 1).items() if c)


def main_term_elementary(alpha, n: int | None = None) -> ElemSymExpr:
    """The main term in elementary coordinates, with IntLaurent coefficients:
    the same value as to_elementary(main_term(alpha, n)).

    From the alternant sum, sum_kappa c_kappa * s_(kappa - delta), and
    s_lam = s_n^(lam_n) * s_(lam - lam_n) with lam_n = kappa_n; the s_n^-k
    shift is k = max(0, -min kappa_n), the smallest exponent of the sum.
    """
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    state = alternant_sum(n, lambda_alpha(alpha), _main_term_factors(alpha, n))
    k = max(0, -min((kappa[-1] for kappa in state), default=0))
    terms = {}
    for kappa, qc in state.items():
        c, last = IntLaurent.from_terms(qc), kappa[-1]
        lam = tuple(a - last - (n - 1 - t) for t, a in enumerate(kappa))
        for e, mult in _schur_elementary(lam):
            e = e[:-1] + (e[-1] + last + k,)
            prev = terms.get(e)
            terms[e] = c * mult if prev is None else prev + c * mult
    return ElemSymExpr(n, terms, shift=k)


def psi_elementary(alpha, n: int | None = None) -> ElemSymExpr:
    """Psi(alpha) in elementary symmetric coordinates: `main_term_elementary`
    with every coefficient times the prefactor, the same value as
    to_elementary(psi_explicit(alpha, n)), with Q(q) arithmetic only at the
    end."""
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    result = main_term_elementary(alpha, n)
    result.terms = _times_prefactor(result.terms, alpha, n)
    return result


def hl_variant(kind: str, lam, n: int) -> LaurentPoly:
    """Specialized Hall-Littlewood-type orbit sums for comparison.

    kind "GL": factor (x_i - x_j/q); "A": (x_i - x_j/q^2); "H": (x_i + x_j/q).
    """
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("lambda must be weakly decreasing")
    cmap = {"GL": qpow(-1), "A": qpow(-2), "H": -qpow(-1)}
    if kind not in cmap:
        raise ValueError(f"unknown kind {kind!r}")
    num = [(i, j, cmap[kind]) for i in range(n) for j in range(i + 1, n)]
    return symmetric_sum(n, lam, num)


# -- size 2 closed form -------------------------------------------------------------


def size2_closed(alpha):
    """The size-2 spherical function as (numerator, G_2) with omega = num / G_2.

    Even labels 2*lam use the two-term orbit sum; the equal odd pair
    (2e-1, 2e-1) is the pure monomial q(1 - 1/q) (x1 x2)^e.
    """
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    g2 = gn_factor(2)
    if alpha[0] % 2 == 0 and alpha[1] % 2 == 0:
        lam = (alpha[0] // 2, alpha[1] // 2)
        s = symmetric_sum(2, lam, [(0, 1, qpow(-2)), (0, 1, Q)])
        pref = qpow(_pair(lam, z_zero(2))) / (ONE + qpow(-2))
        return s.scale(pref), g2
    # equal odd pair 2e - 1
    e = (alpha[0] + 1) // 2
    num = LaurentPoly.monomial(2, (e, e), Q * (ONE - qpow(-1)))
    return num, g2


# -- s/z change of variables ----------------------------------------------------------


def sz_convert(point, direction: str):
    """Affine bijection between the s and z parameters.

    s_i = -z_i + z_{i+1} - 2 for i < n and s_n = -z_n + n - 1; the origin in
    s corresponds to z_zero(n).
    """
    point = tuple(Fraction(x) for x in point)
    n = len(point)
    if direction == "s_to_z":
        z = [Fraction(0)] * n
        z[n - 1] = n - 1 - point[n - 1]
        for i in range(n - 2, -1, -1):
            z[i] = z[i + 1] - 2 - point[i]
        return tuple(z)
    if direction == "z_to_s":
        s = [Fraction(0)] * n
        for i in range(n - 1):
            s[i] = -point[i] + point[i + 1] - 2
        s[n - 1] = -point[n - 1] + n - 1
        return tuple(s)
    raise ValueError("direction must be 's_to_z' or 'z_to_s'")


# -- the one-dimensional Iwahori integral ------------------------------------------------


@dataclass(frozen=True)
class DeltaClosed:
    """delta as scalar * x^monomial / prod of (x_a - q x_b) factors (1-based a, b)."""

    scalar: RatFuncQ
    monomial: tuple
    den_pairs: tuple


def delta_closed(alpha, n: int | None = None) -> DeltaClosed:
    """Closed form of the Iwahori average of the relative-invariant weights.

    Equals c_odd(alpha) * q^(<lam, z0>) * x^(reversed lam) over the product of
    (x_{n-l+1} - q x_{n-l}) for l in I_odd; for even labels the denominator is
    empty and the value is a pure monomial.
    """
    alpha = check_orbit_label(alpha)
    if n is None:
        n = len(alpha)
    lam = lambda_alpha(alpha)
    od = odd_data(alpha, n)
    scalar = od.c_odd * qpow(_pair(lam, z_zero(n)))
    monomial = tuple(reversed(lam))
    pairs = tuple((n - l + 1, n - l) for l in od.indices)
    return DeltaClosed(scalar, monomial, pairs)


def delta_series_weights(alpha, vmax: int):
    """Valuation distribution of the closed delta for size 2.

    Returns (weights, tail, v2): weights maps the first-invariant valuation v
    to its exact volume in Q(q) for v < vmax, tail is the remaining mass, and
    v2 is the constant valuation of the full determinant invariant.
    """
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    v2 = sum(alpha) // 2
    if alpha[0] % 2 == 0:
        v1 = alpha[1] // 2
        weights = {v1: ONE} if v1 < vmax else {}
        tail = ZERO if v1 < vmax else ONE
        return weights, tail, v2
    e = (alpha[0] + 1) // 2
    weights = {}
    # geometric ladder: mass (1 - 1/q) * q^(e - v) at each v >= e
    start = e
    mass_left = ONE
    for v in range(start, vmax):
        m = (ONE - qpow(-1)) * qpow(start - v)
        weights[v] = m
        mass_left = mass_left - m
    return weights, mass_left, v2


def cost_delta_oracle(p: int, ell: int):
    """(ops, peak bytes, decimal digits) of delta_oracle: ell value counts,
    each a fixed cost and about eight products or reductions of ints below
    p^(4*ell), in 30-bit limbs (a weight's Fraction among them), and two
    fixed costs more for the Gram representative and the guard.  The ints
    held are the ell + 1 counts and the weights; every count is below
    p^(4*ell - 2), the number of w."""
    limbs = 1 + 4 * ell * math.log2(p) / 30
    return (math.ceil((ell + 2) * counting.PAIR_COUNT_OPS
                      + ell * 8 * limbs * counting.PRODUCT_TERM_OPS),
            math.ceil(2**13 + 12 * (ell + 1) * limbs),
            math.floor((4 * ell - 2) * math.log10(p)) + 1)


def delta_oracle(alpha, p: int, ell: int, eps2: int = 0):
    """Finite-level Iwahori count for size 2.

    Runs the unipotent coordinate nu = [[1, w], [0, 1]] over the p^(4*ell-2)
    radical classes w in Pi O / Pi^(2*ell), conjugates the antidiagonally
    flipped Gram representative F, and tabulates the valuation of the
    upper-left scalar entry of nu F nu*.  Valuations not resolved at this
    level are lumped into the tail.  Returns
    (weights: {v: Fraction}, tail: Fraction, v2: int).

    F11 is a scalar s and F01 = F10*, so that entry is
    (F00 + w F10) + (F01 + w s) w* = s Nrd w + Trd(w* F10*) + F00.  The w with
    p^k dividing it are thus one value count at level k (counting._value_count:
    scale s, linear term F10*, value -F00, w in Pi O), each class mod
    Pi^(2*k) lifting to p^(4*(ell-k)) classes mod Pi^(2*ell).  The weights are
    the differences of consecutive k, and the tail is k = ell.
    """
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    if alpha[1] < 0:
        raise ValueError("shift to a nonnegative label first")
    params = RingParams(p, ell, eps2)
    counting.check_cost("delta_oracle", partial(cost_delta_oracle, p), p, ell)
    g = build_gram(alpha, params)
    # antidiagonal flip F = j * G * j
    f00, f10, f11 = g.entries[1][1], g.entries[0][1], g.entries[0][0]
    if any(f00.coords()[1:]) or any(f11.coords()[1:]) or g.entries[1][0] != f10.conj():
        raise ArithmeticError("upper-left entry not scalar")
    total, linear = p ** (4 * ell - 2), f10.conj().coords()
    divisible = [total]   # divisible[k]: the w with p^k dividing the entry
    for k in range(1, ell + 1):
        level = RingParams(p, k, params.eps2)
        divisible.append(counting._value_count(level, f11.a, QuatElem(*linear, level), -f00.a, True)
                         * p ** (4 * (ell - k)))
    weights = {v: Fraction(divisible[v] - divisible[v + 1], total)
               for v in range(ell) if divisible[v] != divisible[v + 1]}
    return weights, Fraction(divisible[ell], total), sum(alpha) // 2


# -- truncated induction identity ----------------------------------------------------


def omega_series_size2(alpha, order: int):
    """Series in t = q^(-s_1) of the size-2 spherical function at s_2 = 0.

    Substituting x_1 = t/q, x_2 = q into Psi / (x_2 - q x_1) and expanding
    1 / (q - t) geometrically gives exact Q(q) coefficients.
    """
    num, _ = size2_closed(alpha)
    # coefficients of t^k from the numerator under x1 = t/q, x2 = q
    num_t = {}
    for (e1, e2), c in num.terms.items():
        if e1 < 0:
            raise ValueError("nonnegative labels only for the series expansion")
        num_t[e1] = num_t.get(e1, ZERO) + c * qpow(e2 - e1)
    # 1 / (q - t) = sum_j t^j / q^(j+1)
    out = []
    for k in range(order + 1):
        acc = ZERO
        for j in range(0, k + 1):
            cnum = num_t.get(k - j)
            if cnum is not None:
                acc = acc + cnum * qpow(-(j + 1))
        out.append(acc)
    return out


def induction_rhs_coefficients(xi, order: int, p: int, ell: int = 2,
                               eps2: int = 0, budget: int = counting.DEFAULT_BUDGET):
    """Coefficients of t^j, j <= order, of the density expansion

        (w_1 w_1 / w_2)(q^-2) * sum_j  mu_pr(<p^j>, pi^xi) / mu_j * t^j,

    with the numerator densities counted exhaustively at the given level and
    the self-densities from the closed formula.  Returns exact Fractions at
    q = p alongside the raw density table.
    """
    t2 = qpow(-2)
    front = w_factor(1, t2) * w_factor(1, t2) / w_factor(2, t2)
    coeffs = []
    table = []
    for j in range(order + 1):
        (res,), _ = density.density_levels((2 * j,), xi, p, [ell], primitive=True,
                                           eps2=eps2, budget=budget)
        mu_pr = res.normalized
        mu_self = density.density_self_closed((2 * j,)).eval_at(p)
        coeffs.append(front.eval_at(p) * mu_pr / mu_self)
        table.append((2 * j, mu_pr))
    return coeffs, table


def verify_induction(xi, order: int, p: int, ell: int = 2, eps2: int = 0,
                     budget: int = counting.DEFAULT_BUDGET):
    """Compare both sides of the truncated induction identity at q = p.

    Returns (ok, lhs, rhs, table).
    """
    lhs_sym = omega_series_size2(xi, order)
    lhs = [c.eval_at(p) for c in lhs_sym]
    rhs, table = induction_rhs_coefficients(xi, order, p, ell, eps2, budget)
    return lhs == rhs, lhs, rhs, table
