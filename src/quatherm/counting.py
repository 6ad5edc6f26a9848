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
from functools import partial

import numpy as np

from .quatring import (
    HermMatrix, RingParams, fmul, qadd, qconj, qmul, qnrd, qresidue, qscalar,
)


class InfeasibleSizeError(RuntimeError):
    """A kernel would exceed its operation budget or memory limit."""


DEFAULT_BUDGET = 2**36

# Largest estimated peak of the numpy arrays one kernel holds at once.  Each
# cost function below counts its int64 arrays of the kernel's working length,
# as measured with tracemalloc and rounded up.
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


# -- convolution path: n = 1, diagonal A --------------------------------------


def cost_histogram(p: int, in_radical: bool, ell: int):
    """(ops, peak bytes) of one nrd_histogram grid, held about three times."""
    n_ab = p ** (ell - 1) if in_radical else p**ell
    cells = n_ab**2 * p ** (2 * ell)
    return 4 * cells, 3 * 8 * cells


def nrd_histogram(params: RingParams, scale: int = 1, in_radical: bool = False,
                  budget: int = DEFAULT_BUDGET):
    """Histogram over x of scale * Nrd(x) mod p^ell.

    x runs over O/Pi^(2*ell), or over the maximal ideal Pi/Pi^(2*ell) when
    in_radical is set (coordinates a, b then lie in p).
    """
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    check_cost("nrd_histogram", partial(cost_histogram, p, in_radical), p, ell, budget)
    if in_radical:
        ab_vals = np.arange(0, pl, dtype=np.int64)[: p ** (ell - 1)] * p
    else:
        ab_vals = np.arange(pl, dtype=np.int64)
    cd_vals = np.arange(pl, dtype=np.int64)
    a = ab_vals[:, None, None, None]
    b = ab_vals[None, :, None, None]
    c = cd_vals[None, None, :, None]
    d = cd_vals[None, None, None, :]
    nrd = (a * a - e2 * (b * b) - p * (c * c - e2 * (d * d))) % pl
    vals = (nrd * scale) % pl
    hist = np.bincount(vals.ravel(), minlength=pl)
    return [int(x) for x in hist]


def _cyclic_convolve(h1, h2, pl):
    out = [0] * pl
    for v1, c1 in enumerate(h1):
        if not c1:
            continue
        for v2, c2 in enumerate(h2):
            if c2:
                out[(v1 + v2) % pl] += c1 * c2
    return out


def count_diagonal_convolved(b_value: int, diag_scalars, params: RingParams,
                             primitive: bool = False,
                             budget: int = DEFAULT_BUDGET) -> int:
    """Count columns u with sum_i a_i * Nrd(u_i) = b mod p^ell by histogram
    convolution; identical value to direct enumeration for diagonal targets.

    The primitive count subtracts the all-entries-in-the-radical subtotal.
    The first nrd_histogram call checks the cost of every (equal) grid.
    """
    pl = params.modulus
    hists = [nrd_histogram(params, scale=s % pl, budget=budget) for s in diag_scalars]
    acc = hists[0]
    for h in hists[1:]:
        acc = _cyclic_convolve(acc, h, pl)
    total = acc[b_value % pl]
    if not primitive:
        return total
    rhists = [nrd_histogram(params, scale=s % pl, in_radical=True, budget=budget)
              for s in diag_scalars]
    racc = rhists[0]
    for h in rhists[1:]:
        racc = _cyclic_convolve(racc, h, pl)
    return total - racc[b_value % pl]


# -- pairwise path: m = 2, n = 1, arbitrary hermitian A -----------------------


def cost_column_pair(p: int, ell: int):
    """(ops, peak bytes) of count_column_pair: p^(4*ell) rows squared."""
    pl = p**ell
    return pl**8 * 16, pl**4 * 8 * 16


def count_column_pair(b_value: int, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count u = (u1, u2)^T with A[u] = b mod p^ell; A is 2x2 hermitian.

    A[u] = alpha*Nrd(u1) + gamma*Nrd(u2) + Trd(u1* beta u2), with alpha, gamma
    the scalar diagonal entries and beta the (1,2) entry.  The u2 space is
    precomputed as vectors and u1 is scanned in a Python loop.
    """
    pm = a.params
    p, e2, pl = pm.p, pm.eps2, pm.modulus
    check_cost("count_column_pair", partial(cost_column_pair, p), p, pm.ell, budget)
    alpha = a.entries[0][0].a
    gamma = a.entries[1][1].a
    beta = a.entries[0][1].coords()
    space = pl**4

    idx = np.arange(space, dtype=np.int64)
    u2 = tuple(_decode_digits(idx, 4, pl))
    nrd2 = (gamma * qnrd(u2, p, e2, pl)) % pl
    unit2 = (u2[0] % p != 0) | (u2[1] % p != 0)

    target = b_value % pl
    total = 0
    for i1 in range(space):
        q1 = tuple(_decode_digits(i1, 4, pl))
        unit1 = (q1[0] % p != 0) or (q1[1] % p != 0)
        t = qmul(qconj(q1, pl), beta, p, e2, pl)
        # Trd(t * u2) is twice its scalar coordinate
        cross = 2 * qscalar(t, u2, p, e2, pl)
        val = (alpha * qnrd(q1, p, e2, pl) + nrd2 + cross) % pl
        mask = val == target
        if primitive and not unit1:
            mask = mask & unit2
        total += int(np.count_nonzero(mask))
    return total


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
