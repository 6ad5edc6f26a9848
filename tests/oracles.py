"""Reference implementations the tests compare the library against.

The size-2 weight integral as an exact residue sum at W in {0, u1, u2}, the
reference for the closed moments of `plancherel`, with the Y-Laurent helpers
(product, conjugation, symmetry) and the weight object that only the tests
read.  The 1x1 counts by convolving length-p^ell histograms, the reference for
the valuation algebra of `counting.count_diagonal_convolved`; the alternating
column count as a sum over the Pi-valuation of x, for each b, the reference
for the one-pass p^e H profile of `counting._block_profile`; and the value
counts of the p^e H size-2 count read from convolved coordinate histograms,
the reference for `counting._value_count`.  The size-2 count in a diagonal
target by first rows binned on numpy arrays (a p^(3*ell) route), the
reference for the closed chain of `counting._diagonal_pair_count`.  The
Iwahori count by enumerating its p^(4*ell-2) unipotent coordinates, the
reference for the value counts of `spherical.delta_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from quatherm.counting import _CHUNK, _decode_digits
from quatherm.density import build_gram
from quatherm.plancherel import UncataloguedPole, _exact, _one_of
from quatherm.quatring import HermMatrix, QuatElem, RingParams, qadd, qconj, qmul


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


# -- histograms of Python ints -------------------------------------------------------


def _cyclic_convolve(h1, h2):
    """Exact cyclic convolution of two equal-length histograms of Python ints."""
    pl = len(h1)
    full = np.convolve(np.asarray(h1, dtype=object), np.asarray(h2, dtype=object))
    full[: pl - 1] += full[pl:]
    return full[:pl]


def _coordinate_histograms(params: RingParams, scale: int, linear, in_radical: bool, modulus: int):
    """Per coordinate v of y = a + b*eps + c*Pi + d*Pi*eps in O/Pi^(2*ell)
    (Pi O if in_radical: a, b in p), the histogram of k*(scale*v^2 + 2*l*v)
    mod modulus for Nrd's coefficients k = 1, -eps^2, -p, p*eps^2 and the
    coordinates l of w; convolved, that of scale*Nrd(y) + Trd(y* w)."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    t = np.arange(pl, dtype=np.int64)
    ab = t[: p ** (ell - 1)] * p if in_radical else t
    return [np.bincount((v * v % modulus * (k * scale % modulus) + v * (2 * k * l % modulus))
                        % modulus, minlength=modulus).astype(object)
            for k, l, v in zip((1, -e2, -p, p * e2), linear, (ab, ab, t, t))]


# -- 1x1 counts by histogram convolution ------------------------------------------


def column_pair_reference(b_value: int, a: HermMatrix, primitive: bool = False) -> int:
    """#{(x, y) : Trd(x* beta y) = b mod p^ell} for A = [[0, beta], [beta*, 0]]:
    over the Pi-valuation j of x (x = 0 counts as j = 2*ell), y -> Trd(x* beta
    y) maps onto p^c Z/p^ell with fibres p^(3*ell + c), c = min(ceil((j +
    v_Pi(beta))/2), ell); the primitive count subtracts the same sum over x,
    y in Pi O, where the valuation gains one and the y space is p^(4*ell - 2)."""
    pm = a.params
    p, ell = pm.p, pm.ell
    v_beta = a.entries[0][1].pi_valuation()
    v_beta = 2 * ell if v_beta is None else v_beta
    v_b = pm.val_p(b_value)

    def fibre_sum(shift):
        total = 0
        for j in range(shift, 2 * ell + 1):
            xs = 1 if j == 2 * ell else p ** (4 * ell - 2 * j) - p ** (4 * ell - 2 * j - 2)
            c = min((j + v_beta + shift + 1) // 2, ell)
            if v_b >= c:
                total += xs * p ** (3 * ell - 2 * shift + c)
        return total

    total = fibre_sum(0)
    return total - fibre_sum(1) if primitive else total


@cache
def _block_histogram(blk, params: RingParams, in_radical: bool):
    """Over x in O/Pi^(2*ell) (Pi O if in_radical), the histogram mod p^ell of
    blk * Nrd(x) for an int blk, the cyclic convolution of four histograms of
    scaled squares; for a p^e H block that of column_pair_reference, which
    depends on b only through v_p(b)."""
    p, ell, pl = params.p, params.ell, params.modulus
    if not isinstance(blk, HermMatrix):
        return reduce(_cyclic_convolve,
                      _coordinate_histograms(params, blk, (0, 0, 0, 0), in_radical, pl))
    hist = np.empty(pl, dtype=object)
    for v in range(ell + 1):
        count = column_pair_reference(p**v, blk)
        if in_radical:
            count -= column_pair_reference(p**v, blk, True)
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


# -- value counts of the p^e H size-2 count ------------------------------------------


def read_bins(histograms, values) -> list:
    """Bins `values` of the cyclic convolution of the histograms; all but the
    last are convolved once, and each bin is then one dot product."""
    *rest, last = histograms
    pl = len(last)
    if not rest:
        return [int(last[value % pl]) for value in values]
    head = np.asarray(reduce(_cyclic_convolve, rest), dtype=object)
    last = np.asarray(last, dtype=object)
    return [int(head.dot(last[(value - np.arange(pl)) % pl])) for value in values]


def value_counts(params: RingParams, scale: int, w: QuatElem, in_radical: bool) -> list:
    """[#{y : scale Nrd y + Trd(y* w) = t mod p^ell} for t in Z/p^ell], y in
    O/Pi^(2*ell) (Pi O if in_radical): per coordinate of y, the histogram of
    its term, and their convolution read at every t."""
    pl = params.modulus
    return read_bins(_coordinate_histograms(params, scale, w.coords(), in_radical, pl), range(pl))


# -- the size-2 count in a diagonal target on numpy arrays ---------------------------


@cache
def _residue_tables(p: int, ell: int):
    """v_p on Z/p^(2*ell-1), capped there (v_Pi of an off-diagonal entry from
    its norm), and the inverses mod p^ell of the units (0 at the rest)."""
    top, pl = p ** (2 * ell - 1), p**ell
    vals = sum((np.arange(top) % p**v == 0).astype(np.int64) for v in range(1, 2 * ell))
    return vals, np.array([pow(t, -1, pl) if t % p else 0 for t in range(pl)], dtype=np.int64)


def _row_fibres(params: RingParams, s: int, m11, m22, n12, in_radical: bool):
    """h_s(M) = #{rows r = (x, y) : s r*r = M}, y in Pi O if in_radical, as
    (weight, count) terms; M is m11, m22 and n12 = Nrd(m12), a lift's norm
    mod p^(2*ell-1).  For s = p^v sigma, a unit x of norm t (p^(3*ell-1)(p+1)
    of them) and z = x* y need s t = m11 and z = m12/s mod Pi^(2*ell-1-2v)
    (p^(4v+2) z, if v_Pi(m12) >= 2v), and then s Nrd(z)/t = Nrd(m12)/s.  x in
    Pi O and a unit y swap m11 and m22 and need z in Pi O; rows in Pi O are
    those of -p*s, p^4 to one, and all give 0 once p^ell | s."""
    p, ell, pl = params.p, params.ell, params.modulus
    vals, inverse = _residue_tables(p, ell)

    def units(first, second):
        # #{t : p^v sigma t = first, t second = q}, over the p^v lifts of t0 mod p^(ell-v)
        mu, t0 = vals[second], first // p**v * sigma_inv % pl
        ok = (vals[first] == v) & (vals[(q - t0 * second) % pl] >= np.minimum(ell - v + mu, ell))
        return ok * p ** np.minimum(mu, v)

    for k in range(ell + 1):
        top, s_k = in_radical and k == 0, s * (-p) ** k % pl
        if s_k == 0:
            yield p ** (8 * ell - 2 * top - 4 * k), (m11 == 0) & (m22 == 0) & (n12 == 0)
            return
        v = int(vals[s_k])
        sigma_inv = int(inverse[s_k // p**v])
        q = n12 // p**v * sigma_inv % pl
        found = (vals[n12] >= 2 * v + top) * units(m11, m22)
        yield p ** (3 * ell + 4 * (v - k) + 1) * (p + 1), (
            found if top else found + (vals[n12] > 2 * v) * units(m22, m11))


@cache
def _z_bins(params: RingParams, i: int, in_radical: bool):
    """First rows as flat arrays (Nrd y mod p^(2*ell-1), coordinate i of y,
    multiplicity, swapped): a unit x with y in O (Pi O if in_radical) and,
    unless in_radical, a unit y with x in Pi O, swapped.  y is binned by the
    norm of its other coordinates: square histograms convolved mod p^(2*ell-1)."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    groups = []
    for radical in (True,) if in_radical else (False, True):
        squares = _coordinate_histograms(params, 1, (0, 0, 0, 0), radical, pl * pl // p)
        rest = np.array(reduce(_cyclic_convolve, squares[:i] + squares[i + 1:]), dtype=np.int64)
        norms = np.flatnonzero(rest)
        y = np.arange(0, pl, p if radical and i < 2 else 1)[:, None]
        nrd = ((1, -e2, -p, p * e2)[i] * y * y + norms).ravel() % (pl * pl // p)
        groups.append((nrd, np.repeat(y, len(norms)), np.tile(rest[norms], len(y)),
                       np.full(nrd.size, radical and not in_radical)))
    nrd, coord, mult, swap = (np.concatenate(g) for g in zip(*groups))
    return nrd, coord, mult.astype(object), swap


def diagonal_pair_reference(params: RingParams, s1: int, s2: int, b, in_radical: bool) -> int:
    """#{u : s1 r1*r1 + s2 r2*r2 = B}, rows r_k = (x_k, y_k), y_k in Pi O if
    in_radical: the sum over first rows, grouped as in _row_fibres, of
    h_s2(B - s1 r1*r1).  h reads m12 = b12 - s1 z through Nrd(m12) =
    Nrd b12 - s1 Trd(b12* z) + s1^2 Nrd z only.  With b12 = w Pi^k (w a unit)
    and z = w y, Trd(b12* z) = Nrd(w) Trd(Pi*^k y), which is 2 p^(k/2) a or
    -2 p^((k+1)/2) c for y = a + b eps + c Pi + d Pi eps: so z enters through
    one coordinate of y and the norm of the rest (_z_bins)."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    top, (b11, b22, w) = pl * pl // p, b
    inverse = _residue_tables(p, ell)[1]
    t = np.flatnonzero(inverse)[:, None]
    nrd_b, k_w = w.a**2 - e2 * w.b**2 - p * w.c**2 + p * e2 * w.d**2, w.pi_valuation()
    i, unit, trace = (0, 1, 0) if k_w is None else (
        k_w % 2 * 2, nrd_b // (-p) ** k_w % top, (-1) ** k_w * 2 * p ** ((k_w + 1) // 2) % top)
    total = 0
    for k in range(ell + 1):
        first, s = in_radical and k == 0, s1 * (-p) ** k % pl
        if s == 0:
            terms = _row_fibres(params, s2, b11, b22, nrd_b % top, in_radical)
            return total + p ** (8 * ell - 2 * first - 4 * k) * sum(c * int(h) for c, h in terms)
        nrd, coord, mult, swap = _z_bins(params, i, first)
        n = nrd * unit % top
        n12 = (nrd_b - s * (trace * unit % top * coord % top) + s * s % top * n) % top
        st, sn = np.broadcast_arrays(s * t, s * (n % pl) % pl * inverse[t])
        m11, m22 = (b11 - np.where(swap, sn, st)) % pl, (b22 - np.where(swap, st, sn)) % pl
        found = sum(weight * int(counts.sum(axis=0).astype(object).dot(mult))
                    for weight, counts in _row_fibres(params, s2, m11, m22, n12, in_radical))
        total += p ** (3 * ell - 1) * (p + 1) * found // p ** (4 * k)
    return total


# -- the Iwahori count by enumeration ----------------------------------------------


def delta_enumeration(alpha, p: int, ell: int, eps2: int = 0):
    """spherical.delta_oracle by enumeration: the unipotent coordinate
    nu = [[1, w], [0, 1]] runs over all p^(4*ell-2) radical classes w (a, b in
    p; c, d free) in numpy chunks, conjugates the antidiagonally flipped Gram
    representative F, and tabulates the p-adic valuation of the upper-left
    entry (F00 + w F10) + (F01 + w F11) w* of nu F nu*, capped at ell (the
    tail).  Returns (weights: {v: Fraction}, tail: Fraction, v2: int)."""
    params = RingParams(p, ell, eps2)
    e2, pl = params.eps2, params.modulus
    g = build_gram(alpha, params)
    # antidiagonal flip F = j * G * j
    f00, f01 = g.entries[1][1].coords(), g.entries[1][0].coords()
    f10, f11 = g.entries[0][1].coords(), g.entries[0][0].coords()
    sub = pl // p
    total = sub * sub * pl * pl
    counts = np.zeros(ell + 1, dtype=np.int64)   # index ell is the tail
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        c, d = _decode_digits(idx % (pl * pl), 2, pl)
        a, b = _decode_digits(idx // (pl * pl), 2, sub)
        w = (p * a, p * b, c, d)
        r0 = qadd(f00, qmul(w, f10, p, e2, pl), pl)
        r1 = qadd(f01, qmul(w, f11, p, e2, pl), pl)
        top = qadd(r0, qmul(r1, qconj(w, pl), p, e2, pl), pl)
        if any(np.any(x) for x in top[1:]):
            raise ArithmeticError("upper-left entry not scalar")
        v = sum((top[0] % p**k == 0).astype(np.int64) for k in range(1, ell + 1))
        counts += np.bincount(v, minlength=ell + 1)
    weights = {v: Fraction(int(c), total) for v, c in enumerate(counts[:ell]) if c}
    return weights, Fraction(int(counts[ell]), total), sum(alpha) // 2

