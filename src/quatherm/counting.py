"""Exhaustive and convolution-accelerated counting of congruent representations.

Counts

    N(B, A) = #{ u in M_{m,n}(O / Pi^(2*ell)) :
                 A[u] - B lies in the level-ell congruence set }

optionally restricted to primitive u (full rank over the residue field).
Everything is exact integer arithmetic on residues; numpy is used purely as a
vectorization layer, with deterministic chunked reduction.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce

import numpy as np

from .quatring import (
    HermMatrix, RingParams, fmul, qadd, qconj, qmul, qresidue, qscalar,
)


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
    cost(level) = (ops, peak bytes) at level ell exceeds the budget or
    MAX_PEAK_BYTES.  Costs grow with the level; the error names the kernel,
    the estimate, both limits and the highest level at p that fits."""
    def fits(level):
        ops, nbytes = cost(level)
        return ops <= budget and nbytes <= MAX_PEAK_BYTES

    if fits(ell):
        return
    ops, nbytes = cost(ell)
    top = 0
    while top + 1 < ell and fits(top + 1):
        top += 1
    feasible = (f"the highest feasible level at p={p} is {top}" if top
                else f"no level is feasible at p={p}")
    raise InfeasibleSizeError(
        f"{kernel} needs ~{_sci(ops)} ops and ~{_sci(nbytes)} bytes at p={p}, level {ell} "
        f"(budget {_sci(budget)} ops, limit {_sci(MAX_PEAK_BYTES)} bytes); {feasible}"
    )


def _decode_digits(idx, count, base):
    """Split an index (int or array) into `count` base-`base` digits."""
    out = []
    rest = idx
    for _ in range(count):
        out.append(rest % base)
        rest = rest // base
    return out


def _entry_coords(m: HermMatrix):
    return [[m.entries[i][j].coords() for j in range(m.cols)] for i in range(m.rows)]


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
    """(ops, peak bytes) of count_generic: p^(4*ell*m*n) matrices, chunked."""
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
    acoo = _entry_coords(a)
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


# -- convolution path: n = 1, block-diagonal A --------------------------------


# Budget ops charged per multiply-add of Python-int bins in np.convolve on
# object arrays: ~80 ns (p=3, levels 6-8) against ~1.4 ns per element of an
# int64 add, multiply, remainder or compare on 2^20-element arrays (mean of
# the four), on a 2-core VM with Python 3.11 and numpy 2.4.
OBJECT_MULADD_OPS = 64


def cost_convolutions(p: int, factors: int, totals: int, ell: int):
    """(ops, peak bytes) of `totals` reductions of `factors` length-p^ell
    histograms: p^(2*ell) multiply-adds per cyclic convolution, p^ell writes
    per histogram.  The peak, 4 KiB + 32 * (8 + factors) bytes per bin, bounds
    tracemalloc at p=3, levels 2-6, up to 32 factors; int64 squares < p^(2*ell)."""
    pl = p**ell
    return (totals * ((factors - 1) * pl + factors) * pl * OBJECT_MULADD_OPS,
            4096 + 32 * (8 + factors) * pl)


def _cyclic_convolve(h1, h2):
    """Exact cyclic convolution of two equal-length histograms of Python ints."""
    pl = len(h1)
    full = np.convolve(np.asarray(h1, dtype=object), np.asarray(h2, dtype=object))
    full[: pl - 1] += full[pl:]
    return full[:pl]


def nrd_histogram(params: RingParams, scale: int = 1, in_radical: bool = False,
                  budget: int = DEFAULT_BUDGET):
    """Histogram over x of scale * Nrd(x) mod p^ell.

    x runs over O/Pi^(2*ell), or over the maximal ideal Pi/Pi^(2*ell) when
    in_radical is set (coordinates a, b then lie in p).  Nrd(a + b*eps + c*Pi
    + d*Pi*eps) = a^2 - eps^2*b^2 - p*c^2 + p*eps^2*d^2, so the histogram is
    the cyclic convolution of four 1-D histograms of scaled squares.
    """
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    check_cost("nrd_histogram", partial(cost_convolutions, p, 4, 1), p, ell, budget)
    t = np.arange(pl, dtype=np.int64)
    ab = t[: p ** (ell - 1)] * p if in_radical else t
    squares = [np.bincount(v * v % pl * (scale * k % pl) % pl, minlength=pl).astype(object)
               for k, v in ((1, ab), (-e2, ab), (-p, t), (p * e2, t))]
    return reduce(_cyclic_convolve, squares).tolist()


def count_diagonal_convolved(b_value: int, diag_scalars, params: RingParams,
                             primitive: bool = False,
                             budget: int = DEFAULT_BUDGET) -> int:
    """Count columns u with A[u] = b mod p^ell for a block-diagonal A by
    histogram convolution.  diag_scalars lists the blocks: an int a contributes
    the histogram of a * Nrd, a zero-diagonal 2x2 HermMatrix that of
    count_column_pair.  Each distinct histogram is built once and only bin b of
    the last convolution is read; the primitive count subtracts the subtotal
    with every entry in the radical.  One cost check covers every convolution.
    """
    p, ell, pl = params.p, params.ell, params.modulus
    factors = sum(1 if isinstance(blk, HermMatrix) else 4 for blk in diag_scalars)
    check_cost("count_diagonal_convolved",
               partial(cost_convolutions, p, factors, 2 if primitive else 1), p, ell, budget)

    @cache
    def histogram(blk, in_radical):
        if not isinstance(blk, HermMatrix):
            return nrd_histogram(params, blk, in_radical, budget)
        # the count depends on b only through v_p(b): ell + 1 counts fill the bins
        hist = np.empty(pl, dtype=object)
        for v in range(ell + 1):
            count = count_column_pair(p**v, blk, budget=budget)
            if in_radical:
                count -= count_column_pair(p**v, blk, True, budget)
            hist[:: p**v] = count
        return hist

    def bin_at_b(in_radical):
        *rest, last = (histogram(blk, in_radical) for blk in diag_scalars)
        if not rest:
            return int(last[b_value % pl])
        head = np.asarray(reduce(_cyclic_convolve, rest), dtype=object)
        return int(head.dot(np.asarray(last, dtype=object)[(b_value - np.arange(pl)) % pl]))

    total = bin_at_b(False)
    return total - bin_at_b(True) if primitive else total


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


# -- column-pair path: m = n = 2 ----------------------------------------------


def cost_matrix_pair(p: int, ell: int):
    """(ops, peak bytes) of count_matrix_pair: p^(8*ell) columns squared."""
    ncols = p ** (8 * ell)
    return ncols * ncols * 8, ncols * 8 * 48


def count_matrix_pair(b: HermMatrix, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count 2x2 matrices u column by column: precompute per-column data for
    all p^(8*ell) columns, then scan column 1 against vectorized column 2."""
    pm = a.params
    if b.params != pm:
        raise ValueError("B and A must share ring parameters")
    p, ell, e2, pl = pm.p, pm.ell, pm.eps2, pm.modulus
    check_cost("count_matrix_pair", partial(cost_matrix_pair, p), p, ell, budget)
    ncols = pl**8
    a00 = a.entries[0][0].coords()
    a01 = a.entries[0][1].coords()
    a10 = a.entries[1][0].coords()
    a11 = a.entries[1][1].coords()
    bdiag = (b.entries[0][0].a, b.entries[1][1].a)

    idx = np.arange(ncols, dtype=np.int64)
    digits = _decode_digits(idx, 8, pl)
    c1 = tuple(digits[0:4])   # top entry of the column
    c2 = tuple(digits[4:8])   # bottom entry of the column

    # y = A @ column  (2-vector of quaternions)
    y1 = qadd(qmul(a00, c1, p, e2, pl), qmul(a01, c2, p, e2, pl), pl)
    y2 = qadd(qmul(a10, c1, p, e2, pl), qmul(a11, c2, p, e2, pl), pl)

    # diagonal value  col* A col  (scalar coordinate)
    dval = (qscalar(qconj(c1, pl), y1, p, e2, pl)
            + qscalar(qconj(c2, pl), y2, p, e2, pl)) % pl
    diag_ok = [(dval - bdiag[0]) % pl == 0, (dval - bdiag[1]) % pl == 0]

    b01 = {(0, 1): b.entries[0][1].coords()}
    top2, bottom2 = qresidue(c1, p), qresidue(c2, p)   # column 2, reduced once

    total = 0
    cols_first = np.nonzero(diag_ok[0])[0]
    for j1 in cols_first:
        j1 = int(j1)
        q1 = tuple(int(t[j1]) for t in c1)
        q2 = tuple(int(t[j1]) for t in c2)
        # cross entry (1,2) of A[u]: conj(col1) . (A col2)
        cr = qadd(
            qmul(qconj(q1, pl), y1, p, e2, pl),
            qmul(qconj(q2, pl), y2, p, e2, pl),
            pl,
        )
        mask = _congruence_masks({(0, 1): cr}, b01, p, ell, pl) & diag_ok[1]
        if primitive:
            u_res = [[qresidue(q1, p), top2], [qresidue(q2, p), bottom2]]
            mask = mask & _rank_mask(u_res, p, e2)
        total += int(np.count_nonzero(mask))
    return total
