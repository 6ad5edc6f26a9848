"""Size-2 harmonic analysis: orthogonal family, exact moment pairing,
transforms of orbit indicators, and the Plancherel / inversion checks.

Coordinates: x = (z1 + z2)/2, y = (z2 - z1)/2, Y = q^y, W = Y^2.  The weight

    w = (1 - W)(1 - 1/W) / prod_i (1 - u_i W)(1 - u_i / W)

is paired on the unit circle, with the poles W in {0, u1, u2} inside: the
configuration fixed once for 0 < u_i < 1 and carried unchanged to the
specialization u1 = q > 1 (the contour deformation exists precisely so the
residue set never changes).  The integral is a linear functional fixed by
its moments m_k (the integral of W^k), and these have a closed form; the
residue sum itself is the tests' oracle (tests/oracles.py).

The family and the integral take any exact coefficients: Fraction (int weight
parameters become Fractions, floats are refused), RatFuncQ, or BivarRat in
(u1, u2).  Transforms, volumes and the pairing at u1 = q, u2 = q^-2 are
RatFuncQ values, whose denominators c * q^k * prod Phi_d are reduced by
cyclotomic trial division, with no polynomial gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .density import check_orbit_label
from .ratfunc import ONE, Q, ZERO, RatFuncQ, qpow


class UncataloguedPole(ArithmeticError):
    """Integrand has a pole outside the fixed contour catalogue."""


def _one_of(u):
    return u**0


def _exact(u):
    """Ints become Fractions (the division by D stays exact); floats are refused."""
    if isinstance(u, float):
        raise TypeError("weight parameters must be exact, not float")
    return Fraction(u) if isinstance(u, int) else u


# -- the orthogonal family -------------------------------------------------------


def _divide_one_minus_y2(num: dict, one):
    """Exact division of a Y-Laurent dict by (1 - Y^2)."""
    if not num:
        return {}
    work = dict(num)
    dmin = min(work)
    quo = {}
    while work:
        d = max(work)
        c = work.pop(d)
        if not c:
            continue
        if d < dmin + 2:
            raise ArithmeticError("not divisible by 1 - Y^2")
        # quotient gains -c * Y^(d-2); subtracting (-c Y^(d-2))(1 - Y^2)
        # cancels c Y^d and adds c Y^(d-2)
        quo[d - 2] = quo.get(d - 2, one - one) - c
        v = work.get(d - 2, one - one) + c
        if v:
            work[d - 2] = v
        else:
            work.pop(d - 2, None)
    return {k: c for k, c in quo.items() if c}


def h_poly(ell: int, u1, u2) -> dict:
    """Member ell >= 1 of the orthogonal family, as a Y-Laurent dict.

    Two-term symmetrization of Y^-ell (1 - u1 Y^2)(1 - u2 Y^2) / (1 - Y^2),
    divided exactly.
    """
    if ell < 1:
        raise ValueError("ell >= 1")
    one = _one_of(u1)
    s = u1 + u2
    pr = u1 * u2
    num = {}
    for k, c in ((-ell, one), (-ell + 2, -s), (-ell + 4, pr)):
        num[k] = num.get(k, one - one) + c
    for k, c in ((ell + 2, one), (ell, -s), (ell - 2, pr)):
        v = num.get(k, one - one) - c
        if v:
            num[k] = v
        else:
            num.pop(k, None)
    num = {k: c for k, c in num.items() if c}
    return _divide_one_minus_y2(num, one)


# -- exact integration by the closed moments ---------------------------------------


def _moment_sum(c: dict, u1, u2):
    """sum_k c_k * m_k over a dict k -> c_k, where m_k is the integral of W^k.

    For k >= 0 only the poles W = u1, u2 contribute, so m_k = A u1^k + B u2^k
    with A = -(1-u1)^2 / (2(1-u1^2)(1-u1 u2)(u1-u2)) and B the same with u1
    and u2 swapped; the weight is invariant under W -> 1/W, so m_-k = m_k.
    Hence the sum is (P1 S(u1) + P2 S(u2)) / D with S(u) = sum c_k u^|k|,
    P1 = -(1-u1)^2 (1-u2^2), P2 = (1-u2)^2 (1-u1^2) and the one denominator
    D = 2(1-u1^2)(1-u2^2)(1-u1 u2)(u1-u2).  D is left unsimplified: it
    vanishes exactly where a pole leaves the catalogue (u_i = +-1,
    u1 u2 = 1), and a nonzero sum then raises the division-by-zero error of
    the coefficients, as the residue sum does.
    """
    u1, u2 = _exact(u1), _exact(u2)
    one = _one_of(u1)
    if u1 == u2 or not u1 or not u2:
        raise UncataloguedPole("weight parameters must be distinct and nonzero")
    if not any(c.values()):
        return one - one
    folded = {}
    for k, v in c.items():
        k = abs(k)
        folded[k] = folded[k] + v if k in folded else v
    # Horner in u1 and u2 at once
    top = max(folded)
    s1 = s2 = folded[top]
    for k in range(top - 1, -1, -1):
        s1, s2 = s1 * u1, s2 * u2
        if k in folded:
            s1, s2 = s1 + folded[k], s2 + folded[k]
    a1, a2 = one - u1 * u1, one - u2 * u2
    p1 = -(one - u1) * (one - u1) * a2
    p2 = (one - u2) * (one - u2) * a1
    return (p1 * s1 + p2 * s2) / (2 * a1 * a2 * (one - u1 * u2) * (u1 - u2))


def y_integral(f: dict, u1, u2):
    """Integral of a Y-Laurent dict against the weight over the unit circle.

    Odd powers of Y vanish by parity; Y^(2k) = W^k integrates to m_k.
    """
    return _moment_sum({k // 2: c for k, c in f.items() if not k % 2}, u1, u2)


def y_inner(f: dict, g: dict, u1, u2):
    """<f, g> = integral of f * conj(g) * w over the circle: conj maps Y to
    1/Y, so c_k collects f_i * g_j over i - j = 2k."""
    c = {}
    for i, a in f.items():
        for j, b in g.items():
            if not (i - j) % 2:
                k = (i - j) // 2
                c[k] = c[k] + a * b if k in c else a * b
    return _moment_sum(c, u1, u2)


# -- transforms of orbit indicators ----------------------------------------------


@dataclass(frozen=True)
class TransformValue:
    """scalar * q^(x_exp * x) * H_{h_index}(y), with h_index None meaning 1."""

    scalar: RatFuncQ
    x_exp: int
    h_index: int | None


@lru_cache(maxsize=None)
def _scalar_factors() -> tuple:
    """The fixed transform scalars, built once: 1/(1 + q^-2) (equal even
    pair), (1 - q^-1)/(1 + q^-2) (unequal even pair, times q^(l1 - l2)) and
    (1 - q^-2)/(1 + q^-2) (odd pair)."""
    inv = ONE / (ONE + qpow(-2))
    return inv, (ONE - qpow(-1)) * inv, (ONE - qpow(-2)) * inv


@lru_cache(maxsize=None)
def _volume_factors() -> tuple:
    """The fixed volume factors, built once: 1 - q^-1 (unequal even pair,
    times q^(2(l1 - l2))) and q^-1 (1 + q^-1)/(1 + q^-2) (odd pair)."""
    return ONE - qpow(-1), qpow(-1) * (ONE + qpow(-1)) / (ONE + qpow(-2))


def f_hat_size2(alpha) -> TransformValue:
    """Transform of the inverted-orbit indicator for a size-2 label."""
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    equal, unequal, odd = _scalar_factors()
    if alpha[0] % 2 == 0:
        l1, l2 = alpha[0] // 2, alpha[1] // 2
        if l1 == l2:
            return TransformValue(equal, l1 + l2 + 1, 1)
        return TransformValue(qpow(l1 - l2) * unequal, l1 + l2 + 1, l1 - l2 + 1)
    e = (alpha[0] + 1) // 2
    return TransformValue(odd, 2 * e, None)


def orbit_volume(alpha) -> RatFuncQ:
    """Orbit volume normalized so the identity orbit has volume 1."""
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    unequal, odd = _volume_factors()
    if alpha[0] % 2 == 0:
        l1, l2 = alpha[0] // 2, alpha[1] // 2
        if l1 == l2:
            return ONE
        return qpow(2 * (l1 - l2)) * unequal
    return odd


@lru_cache(maxsize=None)
def norm_constant() -> RatFuncQ:
    """Global normalization (1 + q^-2)^2 / (1 - q^-1) for the pairing."""
    return (ONE + qpow(-2)) ** 2 / (ONE - qpow(-1))


def _y_part(tv: TransformValue, u1, u2):
    one = _one_of(u1)
    if tv.h_index is None:
        return {0: one}
    return h_poly(tv.h_index, u1, u2)


@lru_cache(maxsize=None)
def _y_part_at_q(h_index) -> dict:
    """The y-part of a transform at (u1, u2) = (q, q^-2), built once per
    h_index (None means 1); the dict is shared, and nothing mutates it."""
    return {0: ONE} if h_index is None else h_poly(h_index, Q, qpow(-2))


def transform_pairing(alpha, beta) -> RatFuncQ:
    """Normalized pairing of the two transforms, symbolic in q.

    Specializes the weight parameters to u1 = q, u2 = q^-2 and matches the
    q^x characters exactly (distinct exponents integrate to zero).
    """
    fa, fb = f_hat_size2(alpha), f_hat_size2(beta)
    if fa.x_exp != fb.x_exp:
        return ZERO
    inner = y_inner(_y_part_at_q(fa.h_index), _y_part_at_q(fb.h_index), Q, qpow(-2))
    return fa.scalar * fb.scalar * inner * norm_constant()


def plancherel_check(alpha, beta, pairing=None) -> bool:
    """Pairing equals the orbit volume on the diagonal and zero off it.
    pairing is transform_pairing(alpha, beta), if the caller has it."""
    lhs = transform_pairing(alpha, beta) if pairing is None else pairing
    return lhs == (orbit_volume(alpha) if tuple(alpha) == tuple(beta) else 0)


def inversion_check(alpha, x_orbit, pairing=None) -> bool:
    """Indicator recovery: pairing divided by the orbit volume is 0 or 1.
    pairing is transform_pairing(alpha, x_orbit), if the caller has it."""
    val = transform_pairing(alpha, x_orbit) if pairing is None else pairing
    return val / orbit_volume(x_orbit) == (1 if tuple(alpha) == tuple(x_orbit) else 0)
