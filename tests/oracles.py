"""Reference implementations the tests compare the library against.

The size-2 weight integral as an exact residue sum at W in {0, u1, u2}, the
reference for the closed moments of `plancherel`, with the Y-Laurent helpers
(product, conjugation, symmetry) and the weight object that only the tests
read.
"""

from __future__ import annotations

from dataclasses import dataclass

from quatherm.plancherel import UncataloguedPole, _exact, _one_of


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


# -- the weight ------------------------------------------------------------------


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


# -- the residue sum ---------------------------------------------------------------


def _poly_eval(coeffs: dict, point, one):
    """Evaluate a W-polynomial dict at a point (nonnegative powers only)."""
    acc = one - one
    for k, c in coeffs.items():
        acc = acc + c * point**k
    return acc


def residue_integral(f: dict, u1, u2):
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


def residue_inner(f: dict, g: dict, u1, u2):
    """<f, g> = integral of f * conj(g) * w, by the residue sum."""
    return residue_integral(y_mul(f, y_conj(g)), u1, u2)
