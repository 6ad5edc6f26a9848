"""Reference implementations the tests compare the library against.

The size-2 weight integral as an exact residue sum at W in {0, u1, u2}, the
reference for the closed moments of `plancherel`, with the Y-Laurent helpers
(product, conjugation, symmetry) and the weight object that only the tests
read.  The 1x1 counts by convolving length-p^ell histograms, the reference for
the valuation algebra of `counting.count_diagonal_convolved`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from quatherm.counting import _coordinate_histograms, _cyclic_convolve, count_column_pair
from quatherm.plancherel import UncataloguedPole, _exact, _one_of
from quatherm.quatring import HermMatrix, RingParams


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


# -- 1x1 counts by histogram convolution ------------------------------------------


@cache
def _block_histogram(blk, params: RingParams, in_radical: bool):
    """Over x in O/Pi^(2*ell) (Pi O if in_radical), the histogram mod p^ell of
    blk * Nrd(x) for an int blk, the cyclic convolution of four histograms of
    scaled squares; for a p^e H block that of count_column_pair, which depends
    on b only through v_p(b)."""
    p, ell, pl = params.p, params.ell, params.modulus
    if not isinstance(blk, HermMatrix):
        return reduce(_cyclic_convolve,
                      _coordinate_histograms(params, blk, (0, 0, 0, 0), in_radical, pl))
    hist = np.empty(pl, dtype=object)
    for v in range(ell + 1):
        count = count_column_pair(p**v, blk)
        if in_radical:
            count -= count_column_pair(p**v, blk, True)
        hist[:: p**v] = count
    return hist


def histogram_counts(diag_scalars, params: RingParams, primitive: bool = False) -> list:
    """[N(<b>, A) for b in Z/p^ell] for the block-diagonal A whose blocks
    diag_scalars lists, as in count_diagonal_convolved: the cyclic convolution
    of the blocks' histograms; the primitive counts subtract the convolution
    with every entry in Pi O.  O(p^(2*ell)) multiply-adds per convolution."""
    def convolved(in_radical):
        return reduce(_cyclic_convolve,
                      [_block_histogram(blk, params, in_radical) for blk in diag_scalars])

    counts = convolved(False)
    return [int(x) for x in (counts - convolved(True) if primitive else counts)]
