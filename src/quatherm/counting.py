"""Exhaustive and closed counting of congruent representations.

Counts

    N(B, A) = #{ u in M_{m,n}(O / Pi^(2*ell)) :
                 A[u] - B lies in the level-ell congruence set }

optionally restricted to primitive u (full rank over the residue field).
Everything is exact integer arithmetic on residues.  A 1x1 source is counted
in the valuation algebra, on ell + 1 Python ints per block; the alternating
column count is closed; numpy is a vectorization layer, with deterministic
chunked reduction, for direct enumeration and the size-2 counts.
"""

from __future__ import annotations

import math
import sys
from functools import cache, partial, reduce

import numpy as np

from .quatring import HermMatrix, QuatElem, RingParams, fmul, qadd, qconj, qmul, qresidue


class InfeasibleSizeError(RuntimeError):
    """A kernel would exceed its operation budget or memory limit."""


DEFAULT_BUDGET = 2**36

# Largest estimated peak of the numpy arrays one kernel holds at once.  Each
# cost function below models its kernel's arrays as measured with
# tracemalloc, rounded up.
MAX_PEAK_BYTES = 3 * 512 * 2**20

_CHUNK = 1 << 20


def _sci(x: int) -> str:
    """x as 1.234e+56; past the float range as 10^k."""
    return f"{x:.3e}" if x < 1e300 else f"10^{math.log10(x):.1f}"


def check_cost(kernel: str, cost, p: int, ell: int, budget: int = DEFAULT_BUDGET):
    """Raise InfeasibleSizeError, before a kernel allocates anything, when its
    cost(level) = (ops, peak bytes[, decimal digits of the count]) at level
    ell exceeds the budget, MAX_PEAK_BYTES or Python's int-to-str limit (a
    count past it could not be printed).  Costs grow with the level; the
    error names the kernel, the estimate, the limits and the highest level at
    p that fits."""
    limits = (budget, MAX_PEAK_BYTES, sys.get_int_max_str_digits() or math.inf)

    def fits(level):
        return all(x <= limit for x, limit in zip(cost(level), limits))

    if fits(ell):
        return
    ops, nbytes, *digits = cost(ell)
    top = 0
    while top + 1 < ell and fits(top + 1):
        top += 1
    feasible = (f"the highest feasible level at p={p} is {top}" if top
                else f"no level is feasible at p={p}")
    count = f" for a count of up to {digits[0]} digits" if digits else ""
    digit_limit = f", {limits[2]} digits" if digits else ""
    raise InfeasibleSizeError(
        f"{kernel} needs ~{_sci(ops)} ops and ~{_sci(nbytes)} bytes{count} at p={p}, level {ell} "
        f"(budget {_sci(budget)} ops, limit {_sci(MAX_PEAK_BYTES)} bytes{digit_limit}); {feasible}"
    )


def _decode_digits(idx, count, base):
    """Split an index (int or array) into `count` base-`base` digits."""
    out = []
    rest = idx
    for _ in range(count):
        out.append(rest % base)
        rest = rest // base
    return out


def _congruence_masks(coords, b_coords, p, ell, pl):
    """Boolean mask for one hermitian-difference entry set.

    coords/b_coords: dict (i, j) -> quaternion (i <= j).  Diagonal entries
    must vanish mod p^ell in the scalar coordinate; off-diagonal entries need
    a, b = 0 mod p^ell and c, d = 0 mod p^(ell-1).
    """
    pl1 = p ** (ell - 1)
    mask = None
    for (i, j), q in coords.items():
        bq = b_coords[(i, j)]
        if i == j:
            cond = (q[0] - bq[0]) % pl == 0
        else:
            cond = (
                ((q[0] - bq[0]) % pl == 0)
                & ((q[1] - bq[1]) % pl == 0)
                & ((q[2] - bq[2]) % pl1 == 0)
                & ((q[3] - bq[3]) % pl1 == 0)
            )
        mask = cond if mask is None else (mask & cond)
    return mask


def cost_generic(p: int, m: int, n: int, ell: int):
    """(ops, peak bytes) of count_generic: p^(4*ell*m*n) matrices, chunked.
    Its int64 values stay below the index p^(4*ell*m*n) and, for a quaternion
    product before its reduction mod p^ell, (p+1)(eps^2+1) p^(2*ell)."""
    space = p ** (4 * ell * m * n)
    return space * 4 * m * n * max(m, 1), min(space, _CHUNK) * 8 * (20 * m * n + 8)


def count_generic(b: HermMatrix, a: HermMatrix, primitive: bool = False,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Direct enumeration over all of M_{m,n}(O/Pi^(2*ell)), chunked.

    Reference implementation: always correct, cost p^(4*ell*m*n).
    """
    pm = a.params
    if b.params != pm:
        raise ValueError("B and A must share ring parameters")
    p, ell, e2, pl = pm.p, pm.ell, pm.eps2, pm.modulus
    m, n = a.rows, b.rows
    check_cost("count_generic", partial(cost_generic, p, m, n), p, ell, budget)
    space = pl ** (4 * m * n)
    acoo = [[x.coords() for x in row] for row in a.entries]
    bcoo = {(i, j): b.entries[i][j].coords() for i in range(n) for j in range(i, n)}

    total = 0
    for start in range(0, space, _CHUNK):
        stop = min(start + _CHUNK, space)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = _decode_digits(idx, 4 * m * n, pl)
        # u[k][j] = quaternion in row k, column j
        u = [[tuple(digits[4 * (k * n + j) + t] for t in range(4)) for j in range(n)]
             for k in range(m)]
        # W = A @ u   (m x n)
        w = []
        for i in range(m):
            row = []
            for j in range(n):
                acc = (0, 0, 0, 0)
                for k in range(m):
                    acc = qadd(acc, qmul(acoo[i][k], u[k][j], p, e2, pl), pl)
                row.append(acc)
            w.append(row)
        # C = u* @ W  (n x n), upper triangle only
        cvals = {}
        for i in range(n):
            for j in range(i, n):
                acc = (0, 0, 0, 0)
                for k in range(m):
                    acc = qadd(acc, qmul(qconj(u[k][i], pl), w[k][j], p, e2, pl), pl)
                cvals[(i, j)] = acc
        mask = _congruence_masks(cvals, bcoo, p, ell, pl)
        if primitive:
            mask = mask & _rank_mask([[qresidue(q, p) for q in row] for row in u], p, e2)
        total += int(np.count_nonzero(mask))
    return total


def _rank_mask(res, p, e2):
    """Full-residue-rank mask over F_{p^2} for n <= 2 columns.

    res[k][j] is the residue (see qresidue) of the entry in row k, column j.
    """
    m, n = len(res), len(res[0])
    e2p = e2 % p
    if n == 1:
        mask = None
        for k in range(m):
            nz = (res[k][0][0] != 0) | (res[k][0][1] != 0)
            mask = nz if mask is None else (mask | nz)
        return mask
    if n == 2:
        # rank 2 iff some 2x2 minor is a unit of F_{p^2}
        mask = None
        for k1 in range(m):
            for k2 in range(k1 + 1, m):
                xy = fmul(res[k1][0], res[k2][1], e2p, p)
                zt = fmul(res[k2][0], res[k1][1], e2p, p)
                nz = (xy[0] != zt[0]) | (xy[1] != zt[1])
                mask = nz if mask is None else (mask | nz)
        return mask
    raise NotImplementedError("vectorized rank mask implemented for n <= 2")


# -- 1x1 counts: n = 1, block-diagonal A, in the valuation algebra -------------


# Budget ops charged per unit of cost_valuation's two terms, ~1.4 ns each as
# for count_generic's int64 elements: one count_column_pair term, per limb,
# measured at 60-180 ns (p = 3, 5, 101, levels 50-200); one entry of a
# product, per limb and block squared, 12-45 ns (p = 3 to 10007, levels
# 30-400, 3 to 20 blocks); on a 2-core VM with Python 3.11.
COLUMN_PAIR_TERM_OPS = 128
PRODUCT_TERM_OPS = 32


def cost_valuation(p: int, size: int, alternating: int, primitive: bool, ell: int):
    """(ops, peak bytes, decimal digits) of count_diagonal_convolved for a
    target of `size` rows, `alternating` of its blocks p^e H: each p^e H block
    reads count_column_pair at ell + 1 values, O(ell) terms each, three times
    if primitive; each pass (two if primitive) multiplies ell + 1 entries of
    ints below p^(4*ell*size) by ints below p^(4*ell), size times.  Both are
    counted in 30-bit limbs of an int below p^(4*ell).  The ints held are three
    such vectors; every count is below p^(4*ell*size), the number of columns."""
    limbs = 1 + 4 * ell * math.log2(p) / 30
    ops = (ell + 1) * limbs * (
        (1 + 2 * primitive) * COLUMN_PAIR_TERM_OPS * alternating * (2 * ell + 1)
        + (1 + primitive) * PRODUCT_TERM_OPS * size * size)
    return (math.ceil(ops), math.ceil(12 * (ell + 1) * (size * limbs + 8)),
            math.floor(4 * ell * size * math.log10(p)) + 1)


def _block_profile(blk, params: RingParams, in_radical: bool) -> list:
    """g_k = #{x : blk[x] = t mod p^ell} for v_p(t) = k, k = 0..ell (k = ell
    for t = 0), x in O/Pi^(2*ell) (Pi O if in_radical; both entries for a p^e H
    block).  For a scalar p^e u it is 0 below e and p^(4e) times the norm
    profile at level ell - e: #{x : Nrd x = t} is p^(3*ell-k-1)(p+1) for
    k < ell, p^(2*ell) for t = 0.  In Pi O the units, where k = e, drop out."""
    p, ell = params.p, params.ell
    if isinstance(blk, HermMatrix):
        return [count_column_pair(p**k, blk)
                - (count_column_pair(p**k, blk, True) if in_radical else 0)
                for k in range(ell + 1)]
    e = params.val_p(blk)
    g = [0] * e + [p ** (3 * ell + 2 * e - k - 1) * (p + 1) for k in range(e, ell)]
    g.append(p ** (2 * ell + 2 * e))
    if in_radical:
        g[e] = 0 if e < ell else p ** (4 * ell - 2)
    return g


def _ideal_product(c, d, p: int, ell: int) -> list:
    """The convolution of two functions of v_p(t) on Z/p^ell in the basis of
    ideal indicators I_a = 1[p^a | t], where I_a * I_b = p^(ell-max(a,b))
    I_min(a,b): coefficient k takes the pairs with min(a, b) = k, the larger
    index summed in the tails sum_{a > k} c_a p^(ell-a)."""
    out, tail_c, tail_d = [0] * (ell + 1), 0, 0
    for k in range(ell, -1, -1):
        w = p ** (ell - k)
        out[k] = c[k] * (d[k] * w + tail_d) + d[k] * tail_c
        tail_c += c[k] * w
        tail_d += d[k] * w
    return out


def nrd_histogram(params: RingParams, scale: int = 1, in_radical: bool = False,
                  budget: int = DEFAULT_BUDGET):
    """Histogram over x of scale * Nrd(x) mod p^ell, x in O/Pi^(2*ell) (Pi O
    if in_radical): the closed profile of _block_profile, written to the p^ell
    bins t by v_p(t)."""
    p, ell, pl = params.p, params.ell, params.modulus
    # ~2 ops and one 8-byte list slot per bin
    check_cost("nrd_histogram", lambda level: (2 * p**level, 8 * p**level + 4096), p, ell, budget)
    g = _block_profile(scale, params, in_radical)
    hist = [g[0]] * pl
    for k in range(1, ell + 1):
        hist[:: p**k] = [g[k]] * p ** (ell - k)
    return hist


def count_diagonal_convolved(b_value: int, diag_scalars, params: RingParams,
                             primitive: bool = False,
                             budget: int = DEFAULT_BUDGET) -> int:
    """Count columns u with A[u] = b mod p^ell for a block-diagonal A, whose
    blocks diag_scalars lists: an int a contributes a * Nrd(x), a zero-diagonal
    2x2 HermMatrix its count_column_pair form.  The count is the convolution on
    Z/p^ell of the blocks' value counts, read at b.

    Each value count is a function of v_p(t).  Nrd maps O^x onto Z_p^x with
    equal fibres and v_p(Nrd x) = v_Pi(x), so a scalar block's count depends
    on t only through v_p(t) (_block_profile); a p^e H block's does by
    count_column_pair.  Such functions are closed under convolution: if f and
    g are invariant under t -> u t for every unit u, so is f * g.  Each block
    is thus ell + 1 ints g_k, taken to the ideal-indicator basis c_0 = g_0,
    c_a = g_a - g_(a-1), multiplied there by I_a * I_b = p^(ell-max(a,b))
    I_min(a,b) (_ideal_product), and the count is sum_{a <= v_p(b)} c_a.  The
    primitive count subtracts the same with every entry in Pi O.

    The ints grow like p^(4*ell*m) for m rows, and they stay cheap while
    that is a few thousand digits: for <1> in (0, 0, 0) at p = 3 level 200
    takes ~5 ms and level 751, the last whose count prints, ~0.13 s.  Past
    that check_cost refuses the level, as a count past Python's int-to-str
    limit (4300 digits by default) could not be printed.  A p^e H block
    costs O(ell^2) column-pair terms (~0.25 s at p = 3, level 200), which
    the budget charges.
    """
    p, ell = params.p, params.ell
    alternating = sum(isinstance(blk, HermMatrix) for blk in diag_scalars)
    check_cost("count_diagonal_convolved",
               partial(cost_valuation, p, len(diag_scalars) + alternating, alternating, primitive),
               p, ell, budget)
    v_b = params.val_p(b_value)
    counts = []
    for in_radical in (False, True)[: 1 + primitive]:
        ideal = ([g[0]] + [g[a] - g[a - 1] for a in range(1, ell + 1)]
                 for g in (_block_profile(blk, params, in_radical) for blk in diag_scalars))
        counts.append(sum(reduce(partial(_ideal_product, p=p, ell=ell), ideal)[: v_b + 1]))
    return counts[0] - sum(counts[1:])


# -- alternating block: n = 1, A = [[0, beta], [beta*, 0]] ---------------------


def count_column_pair(b_value: int, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count u = (x, y)^T with A[u] = Trd(x* beta y) = b mod p^ell in closed
    form, for A = [[0, beta], [beta*, 0]].  O(ell) steps: the budget never binds.

    If x has Pi-valuation j (x = 0 counts as j = 2*ell), x* beta O = Pi^k O
    with k = j + v_Pi(beta).  As Trd(Pi O) = pZ_p, y -> Trd(x* beta y) maps
    O/Pi^(2*ell) onto p^c Z/p^ell, c = min(ceil(k/2), ell), with equal fibres
    p^(3*ell + c).  The primitive count subtracts the same sum over x, y in
    Pi O, where k gains one and the y space is p^(4*ell - 2).
    """
    pm = a.params
    p, ell = pm.p, pm.ell
    if a.rows != 2 or a.entries[0][0] or a.entries[1][1]:
        raise ValueError("count_column_pair needs a zero-diagonal 2x2 form")
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


# -- size-2 Gram pairs: m = n = 2, A diagonal or p^e * H ----------------------


# Budget ops charged per multiply-add of Python-int bins in np.convolve on
# object arrays: ~80 ns (p=3, levels 6-8) against ~1.4 ns per element of an
# int64 add, multiply, remainder or compare on 2^20-element arrays (mean of
# the four), on a 2-core VM with Python 3.11 and numpy 2.4.
OBJECT_MULADD_OPS = 64

# Budget ops per element and term of count_matrix_pair's arrays: ~110 ns per
# element held (p=3 level 3, p=7 level 2), the bound charged is 2-3x that.
PAIR_ELEMENT_OPS = 64


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


def _read_bin(histograms, value: int) -> int:
    """Bin `value` of the cyclic convolution of the histograms; the last
    convolution is one dot product."""
    *rest, last = histograms
    pl = len(last)
    if not rest:
        return int(last[value % pl])
    head = np.asarray(reduce(_cyclic_convolve, rest), dtype=object)
    return int(head.dot(np.asarray(last, dtype=object)[(value - np.arange(pl)) % pl]))


def cost_matrix_pair(p: int, alternating: bool, primitive: bool, ell: int):
    """(ops, peak bytes) of count_matrix_pair's 1 (p^2 + 3 if primitive)
    counts.  p^e H: <= 3 value counts, 3 convolutions of p^ell bins each.
    Diagonal: <= ell first-row levels, each an array of phi(p^ell) norms by
    <= 2 p^(3*ell-1) bins of z read by <= ell + 1 terms, and cached
    convolutions of length p^(2*ell-1).  The largest int64 value, a product
    of two residues mod p^(2*ell-1), is below 2^63 while p^(2*ell-1) < 3e9.
    48 bytes per array element (128 KiB + 256 per bin for p^e H) bound
    tracemalloc at p=3, levels 1-3, and p=5, level 2."""
    pl, top = p**ell, p ** (2 * ell - 1)
    counts = p * p + 3 if primitive else 1
    if alternating:
        return counts * 9 * pl * pl * OBJECT_MULADD_OPS, 2**17 + 256 * pl
    elements = 2 * (pl - pl // p) * pl * top
    return (counts * ell * (ell + 1) * elements * PAIR_ELEMENT_OPS
            + 8 * top * top * OBJECT_MULADD_OPS, 2**20 + 48 * elements)


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


def _diagonal_pair_count(params: RingParams, s1: int, s2: int, b, in_radical: bool) -> int:
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


def _row_linear_count(params: RingParams, v_beta: int, b, in_radical: bool) -> int:
    """#{u : A[u] = B} for A = [[0, beta], [beta*, 0]], v = v_Pi(beta), the
    second column in Pi O if in_radical.  diag(g, beta^-1 g*^-1 beta) fixes A,
    so |O^x| times the first rows (1, y) and (x, 1), x in Pi O, cover those
    with a unit entry.  For (1, y) the second row (z, w) needs Trd(beta z) =
    d1 (p^(3*ell+c) z, c = ceil(v/2)) and beta w = b12 - (beta z)* y mod
    Pi^(2*ell-1) (p^(2v+2) w if b12 in Pi^v), and then the (2,2) entry is
    Trd(y* b12) - d1 Nrd y, a value count in y; (x, 1) mirrors it.  First
    rows in Pi O are those of Pi* beta, p^4 to one; swapping the rows turns
    a radical second row into a radical first one."""
    p, ell, pl = params.p, params.ell, params.modulus
    d1, d2, w = b
    v_w = 2 * ell if w.pi_valuation() is None else w.pi_valuation()
    y_count = cache(lambda radical: _read_bin(_coordinate_histograms(
        params, -d1, w.coords(), radical, pl), d2))
    x_count = cache(lambda: _read_bin(_coordinate_histograms(
        params, -d2, w.conj().coords(), True, pl), d1))

    def count(v, rad1, rad2):
        if v >= 2 * ell:
            return (d1 == d2 == 0 and v_w >= 2 * ell - 1) * p ** (16 * ell - 2 * (rad1 + rad2))
        c, mu = min((v + 1) // 2, ell), min(v + rad2, 2 * ell - 1)
        found = (d1 % p**c == 0 and v_w >= mu) * p ** (2 * (mu - rad2) + 2) * y_count(rad1)
        if not rad1 and d2 % p**c == 0 and v_w >= v:
            found += p ** (2 * v + 2) * x_count()
        return p ** (7 * ell - 2 + c) * (p * p - 1) * found + count(v + 1, rad2, False) // p**4

    return count(v_beta, in_radical, in_radical)


def count_matrix_pair(b: HermMatrix, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count 2x2 u with A[u] = B, A diagonal or [[0, beta], [beta*, 0]] (as
    every size-2 Gram representative is), in closed form.  Rank <= 1 means
    u v_L = 0 for one of the p^2 + 1 residue lines L; with g_L = I or
    [[0, 1], [1, lambda]], N_pr(B) = N(B) - sum_L N_rad(g_L* B g_L) +
    p^2 N_Pi(B): N_rad puts the second column in Pi O, and N_Pi (u in Pi O)
    is p^-8 N(Pi* A Pi)."""
    pm = a.params
    if b.params != pm:
        raise ValueError("B and A must share ring parameters")
    if a.rows != 2 or b.rows != 2 or a.entries[0][1] and (a.entries[0][0] or a.entries[1][1]):
        raise ValueError("count_matrix_pair needs a diagonal or zero-diagonal 2x2 form")
    p, ell, pl, beta = pm.p, pm.ell, pm.modulus, a.entries[0][1]
    check_cost("count_matrix_pair", partial(cost_matrix_pair, p, bool(beta), primitive),
               p, ell, budget)

    def count(target, in_radical=False, shift=0):  # shift = 1 counts by Pi* A Pi
        if beta:
            return _row_linear_count(pm, beta.pi_valuation() + 2 * shift, target, in_radical)
        return _diagonal_pair_count(pm, a.entries[0][0].a * (-p) ** shift % pl,
                                    a.entries[1][1].a * (-p) ** shift % pl, target, in_radical)

    target = b11, b22, w = b.entries[0][0].a, b.entries[1][1].a, b.entries[0][1]
    if not primitive:
        return count(target)
    lines = ((b22, (b11 + (w * lam).trd() + b22 * lam.nrd()) % pl,  # g* B g
              w.conj() + QuatElem.scalar(b22, pm) * lam)
             for lam in (QuatElem(l0, l1, 0, 0, pm) for l0 in range(p) for l1 in range(p)))
    return (count(target) - count(target, True) - sum(count(line, True) for line in lines)
            + p * p * (count(target, shift=1) // p**8))
