"""Local densities of quaternion hermitian forms.

The density of B by A is the stabilized ratio

    N_ell(B, A) / q^(ell*n*(4m - 2n + 1) + n*(n - 1)),

where N_ell counts residue matrices u with A[u] congruent to B at level ell.
This module provides the orbit labels (partitions with odd values in even
multiplicity), their block-diagonal Gram representatives, exact counting at
finite level, and the closed formulas for the self-density.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import counting
from .quatring import HermMatrix, QuatElem, RingParams
from .ratfunc import ONE, Q, RatFuncQ, qpow, w_factor


class InvalidPartition(ValueError):
    """Sequence is not an orbit label (not in Lambda_n)."""


# -- partitions ----------------------------------------------------------------


def is_orbit_label(alpha) -> bool:
    """Weakly decreasing integers; every odd value occurs an even number of times."""
    alpha = tuple(alpha)
    if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
        return False
    for v in set(alpha):
        if v % 2 != 0 and alpha.count(v) % 2 != 0:
            return False
    return True


def check_orbit_label(alpha) -> tuple:
    alpha = tuple(int(x) for x in alpha)
    if not alpha:
        raise InvalidPartition("empty label")
    if not is_orbit_label(alpha):
        raise InvalidPartition(f"{alpha} is not a valid orbit label")
    return alpha


def run_lengths(alpha):
    """Distinct values gamma_j with multiplicities m_j, in decreasing order."""
    alpha = tuple(alpha)
    runs = []
    i = 0
    while i < len(alpha):
        j = i
        while j < len(alpha) and alpha[j] == alpha[i]:
            j += 1
        runs.append((alpha[i], j - i))
        i = j
    return runs


def weight(alpha) -> int:
    return sum(alpha)


def n_stat(alpha) -> int:
    """sum_i (i - 1) * alpha_i."""
    return sum(i * a for i, a in enumerate(alpha))


def odd_count(alpha) -> int:
    return sum(1 for a in alpha if a % 2 != 0)


# -- Gram representatives --------------------------------------------------------


def build_gram(alpha, params: RingParams) -> HermMatrix:
    """Block-diagonal representative of the orbit labeled by alpha.

    Even value 2e contributes diagonal entries p^e; an odd value 2e+1
    contributes 2x2 blocks [[0, p^e*Pi], [-p^e*Pi, 0]].  Negative entries are
    rejected: shift the label to a nonnegative translate first.
    """
    alpha = check_orbit_label(alpha)
    if alpha[-1] < 0:
        raise ValueError("negative entries: apply a shift to an integral translate")
    n = len(alpha)
    zero = QuatElem.zero(params)
    entries = [[zero] * n for _ in range(n)]
    pos = 0
    for gamma, mult in run_lengths(alpha):
        if gamma % 2 == 0:
            e = gamma // 2
            val = pow(params.p, e, params.modulus) if e > 0 else 1
            for _ in range(mult):
                entries[pos][pos] = QuatElem.scalar(val, params)
                pos += 1
        else:
            e = (gamma - 1) // 2
            val = pow(params.p, e, params.modulus) if e > 0 else 1
            if mult % 2 != 0:
                raise InvalidPartition(f"odd value {gamma} with odd multiplicity")
            for _ in range(mult // 2):
                blk = QuatElem(0, 0, val, 0, params)
                entries[pos][pos + 1] = blk
                entries[pos + 1][pos] = -blk
                pos += 2
    return HermMatrix(entries, params)


# -- counting -------------------------------------------------------------------


def gram_blocks(h: HermMatrix):
    """The diagonal blocks of h, or None when h is not block-diagonal: scalar
    entries as ints, and 2x2 HermMatrix blocks with zero diagonal (p^e * H)."""
    rows, blocks, i = h.entries, [], 0
    while i < h.rows:
        size = 2 if i + 1 < h.rows and rows[i][i + 1] else 1
        block = [row[i:i + size] for row in rows[i:i + size]]
        outside = [x for row in rows[i:i + size] for x in row[:i] + row[i + size:]]
        if any(outside) or size == 2 and (block[0][0] or block[1][1]):
            return None
        blocks.append(HermMatrix(block, h.params) if size == 2 else block[0][0].a)
        i += size
    return blocks


def count_reps(b: HermMatrix, a: HermMatrix, primitive: bool = False,
               budget: int = counting.DEFAULT_BUDGET) -> int:
    """N_ell(B, A).  The only place that picks a counting kernel, by shape
    alone: a 1x1 source in a block-diagonal target is convolved, 2x2 in 2x2
    is scanned, all else is enumerated; each kernel checks its own cost."""
    m, n = a.rows, b.rows
    if m < n:
        raise ValueError("need A at least as large as B")
    blocks = gram_blocks(a) if n == 1 else None
    if blocks is not None:
        return counting.count_diagonal_convolved(b.entries[0][0].a, blocks, a.params,
                                                 primitive=primitive, budget=budget)
    if n == 2 and m == 2:
        return counting.count_matrix_pair(b, a, primitive=primitive, budget=budget)
    return counting.count_generic(b, a, primitive=primitive, budget=budget)


@dataclass(frozen=True)
class DensityResult:
    count: int
    level: int
    normalized: Fraction
    primitive: bool


def density_levels(beta, alpha, p: int, levels, primitive: bool = False,
                   eps2: int = 0, budget: int = counting.DEFAULT_BUDGET):
    """Normalized counts of (pi^beta, pi^alpha) at each requested level.

    The one place that turns counts into the densities N_ell(B, A) /
    q^(ell*n*(4m - 2n + 1) + n(n - 1)).  eps2 = 0 picks the smallest
    nonresidue.  Returns (results, stable) where stable is True when
    the last two levels agree, None when only one level was computed.
    """
    beta = check_orbit_label(beta)
    alpha = check_orbit_label(alpha)
    n, m = len(beta), len(alpha)
    results = []
    for ell in levels:
        params = RingParams(p, ell, eps2)
        bmat = build_gram(beta, params)
        amat = build_gram(alpha, params)
        cnt = count_reps(bmat, amat, primitive=primitive, budget=budget)
        norm = Fraction(cnt, p ** (ell * n * (4 * m - 2 * n + 1) + n * (n - 1)))
        results.append(DensityResult(cnt, ell, norm, primitive))
    stable = None
    if len(results) >= 2:
        stable = results[-1].normalized == results[-2].normalized
    return results, stable


# -- closed formulas --------------------------------------------------------------


def density_self_closed(alpha) -> RatFuncQ:
    """Self-density of the orbit labeled alpha, as an element of Q(q).

    q^(2 n(alpha) + |alpha|/2 + (#odd)/2) times, per run of equal values,
    w_m(-1/q) for an even value and w_(m/2)(q^-4) for an odd value.
    """
    alpha = check_orbit_label(alpha)
    expo2 = 4 * n_stat(alpha) + weight(alpha) + odd_count(alpha)
    if expo2 % 2 != 0:
        raise InvalidPartition("half-integral exponent: label not in Lambda_n")
    out = qpow(expo2 // 2)
    for gamma, mult in run_lengths(alpha):
        if gamma % 2 == 0:
            out = out * w_factor(mult, -qpow(-1))
        else:
            out = out * w_factor(mult // 2, qpow(-4))
    return out


def density_unit_closed(n: int) -> RatFuncQ:
    """Self-density of the identity form of size n: w_n(-1/q)."""
    if n < 1:
        raise ValueError("n >= 1")
    return w_factor(n, -qpow(-1))


def density_unit_vector(n: int) -> RatFuncQ:
    """Density of <1> represented by the identity form: 1 - (-1/q)^n."""
    if n < 1:
        raise ValueError("n >= 1")
    return ONE - (-qpow(-1)) ** n


def density_zero_ht(t: int) -> RatFuncQ:
    """Primitive density of 0 by the alternating-block form of t blocks."""
    if t < 1:
        raise ValueError("t >= 1")
    return Q * (ONE - qpow(-4 * t))


def density_ht_closed(t: int) -> RatFuncQ:
    """Self-density of the alternating-block form: q^(4t^2) * w_t(q^-4)."""
    if t < 1:
        raise ValueError("t >= 1")
    return qpow(4 * t * t) * w_factor(t, qpow(-4))


def shift_factor(e: int, n: int) -> RatFuncQ:
    """Scaling both forms by p^e multiplies the density by q^(e*n*(2n-1))."""
    return qpow(e * n * (2 * n - 1))


def apply_shift(value, e: int, n: int):
    """Apply the shift factor to a closed value (Q(q)) or a numeric density."""
    f = shift_factor(e, n)
    if isinstance(value, RatFuncQ):
        return value * f
    if isinstance(value, Fraction):
        raise TypeError("numeric shift needs the prime: use value * p**(e*n*(2n-1))")
    raise TypeError(f"cannot shift {type(value).__name__}")


def key_beta(alpha) -> tuple:
    """Witness label one size down: drop the first entry, bumping the second
    by one when the first entry is odd."""
    alpha = check_orbit_label(alpha)
    if len(alpha) < 2:
        raise ValueError("need size >= 2")
    if alpha[0] % 2 == 0:
        beta = alpha[1:]
    else:
        beta = (alpha[1] + 1,) + alpha[2:]
    return check_orbit_label(beta)


def tail_dominates(gamma, alpha) -> bool:
    """The tail order: gamma = alpha, or the two agree strictly below some
    position where gamma exceeds alpha."""
    gamma, alpha = tuple(gamma), tuple(alpha)
    if len(gamma) != len(alpha):
        raise ValueError("labels must have equal size")
    n = len(alpha)
    if gamma == alpha:
        return True
    for t in range(1, n):
        pos = n - t - 1
        if gamma[pos] > alpha[pos] and gamma[pos + 1:] == alpha[pos + 1:]:
            return True
    return False
