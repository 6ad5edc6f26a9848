"""Size-2 harmonic analysis: orthogonal family, exact residue pairing,
transforms of orbit indicators, and the Plancherel / inversion checks.

Coordinates: x = (z1 + z2)/2, y = (z2 - z1)/2, Y = q^y, W = Y^2.  The weight

    w = (1 - W)(1 - 1/W) / prod_i (1 - u_i W)(1 - u_i / W)

is paired on the unit circle; the integral is evaluated as an exact residue
sum at the poles W in {0, u1, u2}, the configuration fixed once for
0 < u_i < 1 and carried unchanged to the specialization u1 = q > 1 (the
contour deformation exists precisely so the residue set never changes).

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
from .ratfunc import ONE, Q, ZERO, RatFuncQ


class UncataloguedPole(ArithmeticError):
    """Integrand has a pole outside the fixed contour catalogue."""


def _one_of(u):
    return u**0


def _exact(u):
    """Ints become Fractions (u**-k and the final /2 stay exact); floats are refused."""
    if isinstance(u, float):
        raise TypeError("weight parameters must be exact, not float")
    return Fraction(u) if isinstance(u, int) else u


# -- Laurent dictionaries in Y -------------------------------------------------


def y_conj(f: dict) -> dict:
    """Complex conjugation on |Y| = 1 maps Y to 1/Y; coefficients are real."""
    return {-k: c for k, c in f.items()}


def y_mul(f: dict, g: dict) -> dict:
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            v = out.get(k)
            v = c1 * c2 if v is None else v + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def y_symmetric(f: dict) -> bool:
    return f == y_conj(f)


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


@dataclass(frozen=True)
class WeightW:
    """The weight in the variable W = Y^2:

        w = (1 - W)(1 - 1/W) / prod_i (1 - u_i W)(1 - u_i / W),

    with the contour rule fixing {W = 0, u1, u2} as the residue set.
    """

    u1: object
    u2: object

    poles_inside = ("W = 0", "W = u1", "W = u2")

    def value(self, w):
        """Exact evaluation at an invertible point."""
        u1, u2, w = _exact(self.u1), _exact(self.u2), _exact(w)
        one = _one_of(u1)
        winv = one / w
        num = (one - w) * (one - winv)
        den = ((one - u1 * w) * (one - u1 * winv)
               * (one - u2 * w) * (one - u2 * winv))
        return num / den


def weight_w(u1, u2) -> WeightW:
    return WeightW(u1, u2)


# -- exact contour integration ---------------------------------------------------


def _poly_eval(coeffs: dict, point, one):
    """Evaluate a W-polynomial dict at a point (nonnegative powers only)."""
    acc = one - one
    for k, c in coeffs.items():
        acc = acc + c * point**k
    return acc


def y_integral(f: dict, u1, u2):
    """Integral of a Y-Laurent dict against the weight over the unit circle.

    Odd powers vanish by parity; the even part G(W) contributes

        (1/2) * sum of residues of -G(W)(1 - W)^2 / ((1-u1 W)(1-u2 W)(W-u1)(W-u2))

    over W in {0, u1, u2}.
    """
    u1, u2 = _exact(u1), _exact(u2)
    one = _one_of(u1)
    zero = one - one
    if u1 == u2 or not u1 or not u2:
        raise UncataloguedPole("weight parameters must be distinct and nonzero")
    geven = {k // 2: c for k, c in f.items() if k % 2 == 0}
    if not geven:
        return zero
    # numerator M(W) = -G(W) (1 - W)^2
    m = {}
    for k, c in geven.items():
        for dk, dc in ((0, -1), (1, 2), (2, -1)):
            v = m.get(k + dk, zero) + c * dc
            if v:
                m[k + dk] = v
            else:
                m.pop(k + dk, None)
    if not m:
        return zero
    shift = -min(min(m), 0)
    n0 = {k + shift: c for k, c in m.items()}

    # simple poles at u1, u2
    total = zero
    for u, other in ((u1, u2), (u2, u1)):
        val = _poly_eval(n0, u, one)
        den = u**shift * (one - u1 * u) * (one - u2 * u) * (u - other)
        total = total + val / den
    # pole of order `shift` at W = 0: coefficient of W^(shift-1) of
    # N0(W) / ((1-u1 W)(1-u2 W)(W-u1)(W-u2))
    if shift > 0:
        k = shift - 1
        series = {0: one}

        def mul_series(s, factor_coeffs):
            out = {}
            for d1, c1 in s.items():
                for d2, c2 in factor_coeffs.items():
                    if d1 + d2 <= k:
                        out[d1 + d2] = out.get(d1 + d2, zero) + c1 * c2
            return out

        geo1 = {j: u1**j for j in range(k + 1)}
        geo2 = {j: u2**j for j in range(k + 1)}
        inv1 = {j: -(u1 ** (-j - 1)) for j in range(k + 1)}   # 1/(W - u1)
        inv2 = {j: -(u2 ** (-j - 1)) for j in range(k + 1)}
        series = mul_series(series, {d: c for d, c in n0.items() if d <= k})
        for fac in (geo1, geo2, inv1, inv2):
            series = mul_series(series, fac)
        total = total + series.get(k, zero)
    # the y-measure is half the W-residue sum
    return total / 2


def y_inner(f: dict, g: dict, u1, u2):
    """<f, g> = integral of f * conj(g) * w over the circle."""
    return y_integral(y_mul(f, y_conj(g)), u1, u2)


# -- transforms of orbit indicators ----------------------------------------------


@dataclass(frozen=True)
class TransformValue:
    """scalar * q^(x_exp * x) * H_{h_index}(y), with h_index None meaning 1."""

    scalar: RatFuncQ
    x_exp: int
    h_index: int | None


def f_hat_size2(alpha) -> TransformValue:
    """Transform of the inverted-orbit indicator for a size-2 label."""
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    if alpha[0] % 2 == 0:
        l1, l2 = alpha[0] // 2, alpha[1] // 2
        if l1 == l2:
            return TransformValue(ONE / (ONE + Q**-2), l1 + l2 + 1, 1)
        scalar = Q ** (l1 - l2) * (ONE - Q**-1) / (ONE + Q**-2)
        return TransformValue(scalar, l1 + l2 + 1, l1 - l2 + 1)
    e = (alpha[0] + 1) // 2
    return TransformValue((ONE - Q**-2) / (ONE + Q**-2), 2 * e, None)


def orbit_volume(alpha) -> RatFuncQ:
    """Orbit volume normalized so the identity orbit has volume 1."""
    alpha = check_orbit_label(alpha)
    if len(alpha) != 2:
        raise ValueError("size-2 labels only")
    if alpha[0] % 2 == 0:
        l1, l2 = alpha[0] // 2, alpha[1] // 2
        if l1 == l2:
            return ONE
        return Q ** (2 * (l1 - l2)) * (ONE - Q**-1)
    return Q**-1 * (ONE + Q**-1) / (ONE + Q**-2)


@lru_cache(maxsize=None)
def norm_constant() -> RatFuncQ:
    """Global normalization (1 + q^-2)^2 / (1 - q^-1) for the pairing."""
    return (ONE + Q**-2) ** 2 / (ONE - Q**-1)


def _y_part(tv: TransformValue, u1, u2):
    one = _one_of(u1)
    if tv.h_index is None:
        return {0: one}
    return h_poly(tv.h_index, u1, u2)


def transform_pairing(alpha, beta) -> RatFuncQ:
    """Normalized pairing of the two transforms, symbolic in q.

    Specializes the weight parameters to u1 = q, u2 = q^-2 and matches the
    q^x characters exactly (distinct exponents integrate to zero).
    """
    fa, fb = f_hat_size2(alpha), f_hat_size2(beta)
    if fa.x_exp != fb.x_exp:
        return ZERO
    u1, u2 = Q, Q**-2
    inner = y_inner(_y_part(fa, u1, u2), _y_part(fb, u1, u2), u1, u2)
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
