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
    HermMatrix, QuatElem, QuatMatrix, RingParams, fmul, herm_apply, qadd, qconj, qmul, qnrd,
    qresidue, qscalar,
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


# -- size-2 Gram pairs: m = n = 2, A diagonal or p^e * H ----------------------


# Budget ops per row-histogram key or bin (16-31 ns measured at p=3 levels 2-3,
# p=5 level 2, p=7 level 1) and per 6 x 8 linear system (~4.8 us in batches of
# 2^14 at p=3 and 5, level 2), against ~1.7 ns per int64 element op on 2^20
# arrays (add, multiply, remainder, compare), on a 2-core VM, numpy 2.4.
ROW_KEY_OPS = 16
LINEAR_SYSTEM_OPS = 4096


def cost_matrix_pair(p: int, alternating: bool, primitive: bool, ell: int):
    """(ops, peak bytes) of count_matrix_pair: p^(4*ell) + p^(4*ell-2) rows
    at each of <= 2*ell levels, for 1 (p^2 + 3 if primitive) reads of one bin.
    Diagonal: 1 (3) histograms of p^(6*ell-2) int64 bins up to p^(8*ell), from
    phi(p^ell) keys per row; the peak, 8 bytes per held bin and 56 per key,
    bounds tracemalloc at p=3 levels 1-3, p=5 levels 1-2, p=7 level 1.  The
    largest int64 value, a bin times its divisor before the exact division,
    is p^(12*ell) < 2^63 for p^ell < 38; the byte limit stops at p^ell = 31.
    Alternating: one system per row, int64 entries below p^(2*ell) * 4p^2."""
    pl = p**ell
    rows, reads = pl**4 + pl**4 // p**2, p * p + 3 if primitive else 1
    if alternating:
        return reads * 2 * ell * rows * LINEAR_SYSTEM_OPS, 2**25 + 128 * rows
    bins, keys, builds = pl**4 * (pl // p) ** 2, (pl - pl // p) * rows, 3 if primitive else 1
    return (ell * (builds * (keys + bins) + reads * keys) * ROW_KEY_OPS,
            2**20 + 8 * (builds + 1) * bins + 56 * keys)


def _quat_grid(params: RingParams, in_radical: bool = False):
    """4 x N coordinates of all of O/Pi^(2*ell), or of Pi O (a, b in p)."""
    p, pl = params.p, params.modulus
    grid = np.array(_decode_digits(np.arange(pl**4, dtype=np.int64), 4, pl))
    return grid[:, (grid[0] % p == 0) & (grid[1] % p == 0)] if in_radical else grid


def _g2_key(d1, d2, q, params: RingParams):
    """Index in G_2 = Herm_2 mod the level-ell congruence set (p^(6*ell-2)
    classes) of the class with diagonal (d1, d2) and upper entry q."""
    pl, pl1 = params.modulus, params.modulus // params.p
    a, b, c, d = q
    return d1 % pl + pl * (d2 % pl + pl * (a % pl + pl * (b % pl + pl * (
        c % pl1 + pl1 * (d % pl1)))))


def _row_keys(params: RingParams, s: int, off, in_radical: bool):
    """h(X) = #{rows r = (x, y) : off + s r*r = X}, y in Pi O if in_radical,
    as groups (keys, weight, divisor) summing weight * #{keys = X} / divisor.
    r*r = [[Nrd x, x* y], [y* x, Nrd y]].  Rows are not enumerated: a unit x
    of norm t (p^(3*ell-1)(p+1) of them per t) and z = x* y give the key
    (t, Nrd(z)/t, z); x in Pi O and a unit y of norm t, with w = x* y, give
    (Nrd(w)/t, t, w); rows in Pi O give those of -p*s, p^4 rows per key."""
    p, ell, e2, pl = params.p, params.ell, params.eps2, params.modulus
    t = np.array([t for t in range(pl) if t % p], dtype=np.int64)[:, None]
    t_inv = np.array([pow(int(u), -1, pl) for u in t[:, 0]], dtype=np.int64)[:, None]
    o1, o2, oq = off
    grid, radical = _quat_grid(params), _quat_grid(params, True)
    for k in range(ell + 1):
        top, sk = in_radical and k == 0, s * (-p) ** k % pl
        if sk == 0:
            yield np.array([_g2_key(o1, o2, oq, params)]), p ** (8 * ell - 4 * k - 2 * top), 1
            return
        z = radical if top else grid
        keys = [_g2_key(o1 + sk * t, o2 + sk * qnrd(z, p, e2, pl) * t_inv,
                        qadd(oq, sk * z, pl), params).ravel()]
        if not top:
            keys.append(_g2_key(o1 + sk * qnrd(radical, p, e2, pl) * t_inv, o2 + sk * t,
                                qadd(oq, sk * radical, pl), params).ravel())
        yield np.concatenate(keys), p ** (3 * ell - 1) * (p + 1), p ** (4 * k)


def _row_histogram(params: RingParams, s: int, in_radical: bool):
    """The int64 bins of the row histogram of s (see _row_keys)."""
    hist = np.zeros(params.modulus**4 * (params.modulus // params.p) ** 2, dtype=np.int64)
    for keys, weight, divisor in _row_keys(params, s, (0, 0, (0, 0, 0, 0)), in_radical):
        counts = np.bincount(keys, minlength=hist.size)
        counts *= weight
        counts //= divisor
        hist += counts
    return hist


def _solution_exponents(m, params: RingParams):
    """log_p #{y : M y = c mod p^ell} for a batch m = [M | c], or -1 if none.
    Each pivot has the least valuation v_k left, so it divides the rest of its
    row and column: row k has p^v_k solutions if v(c_k) >= v_k, else none."""
    p, ell, pl = params.p, params.ell, params.modulus
    n, rows, cols = m.shape[0], m.shape[1], m.shape[2] - 1
    vals = np.array([params.val_p(t) for t in range(pl)])
    unit_inv = np.array([0] + [pow(t // p ** int(vals[t]), -1, pl) for t in range(1, pl)])
    at, expo, ok = np.arange(n), ell * (cols - rows), np.ones(n, dtype=bool)
    for k in range(rows):
        flat = vals[m[:, k:, k:cols]].reshape(n, -1).argmin(axis=1)
        i, j = k + flat // (cols - k), k + flat % (cols - k)
        m[at, k], m[at, i] = m[at, i], m[at, k]
        m[at, :, k], m[at, :, j] = m[at, :, j], m[at, :, k]
        piv = m[:, k, k]
        v = vals[piv]
        ok &= vals[m[:, k, cols]] >= v
        expo = expo + v
        factor = m[:, k + 1:, k] // p ** v[:, None] * unit_inv[piv][:, None] % pl
        m[:, k + 1:] = (m[:, k + 1:] - factor[:, :, None] * m[:, None, k]) % pl
    return np.where(ok, expo, -1)


def _alternating_pair_count(a: HermMatrix, target, in_radical: bool) -> int:
    """#{u : A[u] = B} for A = [[0, beta], [beta*, 0]], the second column of
    u in Pi O if in_radical (y2 = Pi y2', p^2 lifts).  A[u] = r1* beta r2 +
    r2* beta* r1 is linear in r2: one 6 x 8 system over Z/p^ell per first row
    r1, its mod p^(ell-1) rows times p.  g r1 (g a unit) moves r2 by
    beta^-1 g*^-1 beta, so |O^x| times the rows (1, y) and (x, 1), x in Pi O,
    cover r1 with a unit entry; r1 in Pi O repeats with Pi* beta, p^4 to 1."""
    pm = a.params
    p, ell, e2, pl = pm.p, pm.ell, pm.eps2, pm.modulus
    pi, (d1, d2, bq) = QuatElem.pi(pm), target
    b1 = a.entries[0][1]
    b2 = b1 * pi if in_radical else b1
    grid, radical = _quat_grid(pm), _quat_grid(pm, True)
    total = 0
    for k in range(2 * ell + 1):
        if not b1:
            total += (_g2_key(*target, pm) == 0) * p ** (16 * ell - 4 * k)
            break
        x2 = radical if in_radical and k == 0 else grid
        x1 = np.zeros_like(x2)
        x1[0] = 1                           # first rows (1, y)
        if x2 is grid:                      # and (x, 1), x in Pi O
            x1, x2 = np.hstack((x1, radical)), np.hstack((x2, x1[:, :radical.shape[1]]))
        found = 0
        for start in range(0, x1.shape[1], 1 << 14):
            r1, r2 = (qconj(x[:, start:start + (1 << 14)], pl) for x in (x1, x2))
            first, second = qmul(r1, b1.coords(), p, e2, pl), qmul(r2, b2.coords(), p, e2, pl)
            cross = qmul(r1, b2.coords(), p, e2, pl)
            back = qmul(b1.conj().coords(), qconj(r2, pl), p, e2, pl)
            m = np.zeros((len(r1[0]), 6, 9), dtype=np.int64)
            for t, e in enumerate(np.eye(4, dtype=np.int64)):
                m[:, 0, t] = 2 * qscalar(first, e, p, e2, pl)
                m[:, 1, 4 + t] = 2 * qscalar(second, e, p, e2, pl)
                m[:, 2:, t] = np.stack(qmul(qconj(e, pl), back, p, e2, pl), axis=1)
                m[:, 2:, 4 + t] = np.stack(qmul(cross, e, p, e2, pl), axis=1)
            m[:, 4:] *= p
            m[:, :, 8] = (d1, d2, bq[0], bq[1], p * bq[2], p * bq[3])
            m %= pl
            expo = _solution_exponents(m, pm)
            found += sum(int(c) * p**e for e, c in enumerate(np.bincount(expo[expo >= 0])))
        total += p ** (4 * ell - 2) * (p * p - 1) * found // p ** (4 * k)
        b1, b2 = pi.conj() * b1, pi.conj() * b2
    return total // p**2 if in_radical else total


def count_matrix_pair(b: HermMatrix, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count 2x2 u with A[u] = B, A diagonal or [[0, beta], [beta*, 0]] (as
    every size-2 Gram representative is).  diag(s1, s2)[u] = s1 r1*r1 +
    s2 r2*r2 over the rows r_k, so the count is bin B of the convolution of
    two row histograms over G_2, read in Python ints (int64 partial sums of
    at most 2^63 // p^(8*ell) bins).  Rank <= 1 means u v_L = 0 for one of
    the p^2 + 1 residue lines L; with g_L = I or [[0, 1], [1, lambda]],
    N_pr(B) = N(B) - sum_L N_rad(g_L* B g_L) + p^2 N_Pi(B), where N_rad
    puts the second column in Pi O and N_Pi (u in Pi O) is p^-8 N(Pi* A Pi)."""
    pm = a.params
    if b.params != pm:
        raise ValueError("B and A must share ring parameters")
    if a.rows != 2 or b.rows != 2 or a.entries[0][1] and (a.entries[0][0] or a.entries[1][1]):
        raise ValueError("count_matrix_pair needs a diagonal or zero-diagonal 2x2 form")
    p, ell = pm.p, pm.ell
    check_cost("count_matrix_pair", partial(cost_matrix_pair, p, bool(a.entries[0][1]), primitive),
               p, ell, budget)
    step = max(1, 2**63 // p ** (8 * ell))
    histogram = cache(partial(_row_histogram, pm))

    def count(form, rhs, in_radical=False):
        target = (rhs.entries[0][0].a, rhs.entries[1][1].a, rhs.entries[0][1].coords())
        if form.entries[0][1]:
            return _alternating_pair_count(form, target, in_radical)
        hist, total = histogram(form.entries[0][0].a, in_radical), 0
        for keys, weight, divisor in _row_keys(pm, -form.entries[1][1].a, target, in_radical):
            found = sum(int(hist[keys[i:i + step]].sum()) for i in range(0, len(keys), step))
            total += found * weight // divisor
        return total

    total = count(a, b)
    if not primitive:
        return total
    one, zero, pi = QuatElem.one(pm), QuatElem.zero(pm), QuatElem.pi(pm)
    lines = [QuatMatrix.identity(2, pm)] + [
        QuatMatrix([[zero, one], [one, QuatElem(l0, l1, 0, 0, pm)]], pm)
        for l0 in range(p) for l1 in range(p)]
    a_pi = HermMatrix([[pi.conj() * x * pi for x in row] for row in a.entries], pm)
    return (total - sum(count(a, herm_apply(b, g), True) for g in lines)
            + p * p * (count(a_pi, b) // p**8))
