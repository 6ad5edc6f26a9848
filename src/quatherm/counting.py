"""Exhaustive and closed counting of congruent representations.

Counts

    N(B, A) = #{ u in M_{m,n}(O / Pi^(2*ell)) :
                 A[u] - B lies in the level-ell congruence set }

optionally restricted to primitive u (full rank over the residue field).
Everything is exact integer arithmetic on residues.  A 1x1 source is counted
in the valuation algebra, on ell + 1 Python ints per block; the alternating
column count and the size-2 counts, in a diagonal or a p^e H target, are
closed, in Python ints; numpy serves direct enumeration only, as a
vectorization layer with deterministic chunked reduction.
"""

from __future__ import annotations

import math
import sys
from functools import partial, reduce
from itertools import accumulate

import numpy as np

from .quatring import HermMatrix, QuatElem, RingParams, fmul, qadd, qconj, qmul, qnrd, qresidue


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
# for count_generic's int64 elements: one term of a p^e H profile, per limb,
# measured at 70-130 ns (p = 3 to 10007, levels 30-1000); one entry of a
# product, per limb and block squared, 12-45 ns (p = 3 to 10007, levels
# 30-400, 3 to 20 blocks), also charged per limb for each valuation of a p^e H
# size-2 count, 18-24 ns (p = 3 to 10007, levels 30-563); on a 2-core VM
# with Python 3.11.
COLUMN_PAIR_TERM_OPS = 128
PRODUCT_TERM_OPS = 32


def cost_valuation(p: int, size: int, alternating: int, primitive: bool, ell: int):
    """(ops, peak bytes, decimal digits) of count_diagonal_convolved for a
    target of `size` rows, `alternating` of its blocks p^e H.  Each pass (two
    if primitive) reads each p^e H block's profile, 2*ell + 1 terms, and
    multiplies ell + 1 entries of ints below p^(4*ell*size) by ints below
    p^(4*ell), size times.  Both are counted in 30-bit limbs of an int below
    p^(4*ell).  The ints held are three such vectors; every count is below
    p^(4*ell*size), the number of columns."""
    limbs = 1 + 4 * ell * math.log2(p) / 30
    ops = (1 + primitive) * limbs * (COLUMN_PAIR_TERM_OPS * alternating * (2 * ell + 1)
                                     + PRODUCT_TERM_OPS * (ell + 1) * size * size)
    return (math.ceil(ops), math.ceil(12 * (ell + 1) * (size * limbs + 8)),
            math.floor(4 * ell * size * math.log10(p)) + 1)


def _scalar_fibre(p: int, ell: int, e: int, k: int) -> int:
    """#{x in O/Pi^(2*ell) : scale Nrd x = t mod p^ell} for v_p(scale) = e
    and v_p(t) = k (k = ell for t = 0): p^(4e) times the level-(ell - e) norm
    count, as Nrd maps O^x onto Z_p^x with equal fibres, so 0 below e,
    p^(3*ell+2e-k-1)(p+1) for e <= k < ell and p^(2*ell+2e) at t = 0."""
    if k < e:
        return 0
    return p ** (2 * ell + 2 * e) if k == ell else p ** (3 * ell + 2 * e - k - 1) * (p + 1)


def _block_profile(blk, params: RingParams, in_radical: bool) -> list:
    """g_k = #{x : blk[x] = t mod p^ell} for v_p(t) = k, k = 0..ell (k = ell
    for t = 0), x in O/Pi^(2*ell) (Pi O if in_radical; both entries for a p^e H
    block).  For a scalar it is _scalar_fibre; in Pi O the units, where k = e,
    drop out.

    For A = [[0, beta], [beta*, 0]], A[(x, y)] = Trd(x* beta y).  If x has
    Pi-valuation j (x = 0 counts as j = 2*ell), x* beta O = Pi^i O with
    i = j + v_Pi(beta).  As Trd(Pi O) = pZ_p, y -> Trd(x* beta y) maps
    O/Pi^(2*ell) onto p^c Z/p^ell, c = min(ceil(i/2), ell), with equal fibres
    p^(3*ell + c); in Pi O, i gains one and the y space is p^(4*ell - 2).  So
    the x of valuation j count at every k >= c: one sweep buckets the terms
    by c, and g is their prefix sums."""
    p, ell = params.p, params.ell
    if isinstance(blk, HermMatrix):
        shift = int(in_radical)
        v_beta = blk.entries[0][1].pi_valuation()
        v_beta = 2 * ell if v_beta is None else v_beta
        by_c = [0] * (ell + 1)
        for j in range(shift, 2 * ell + 1):
            c = min((j + v_beta + shift + 1) // 2, ell)
            # p^(4*ell - 2j) - p^(4*ell - 2j - 2) x of valuation j (one x = 0)
            by_c[c] += (1 if j == 2 * ell else p ** (4 * ell - 2 * j - 2) * (p * p - 1)) \
                * p ** (3 * ell - 2 * shift + c)
        return list(accumulate(by_c))
    e = params.val_p(blk)
    g = [_scalar_fibre(p, ell, e, k) for k in range(ell + 1)]
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
    costs one sweep of 2*ell + 1 terms: <1> in (1,1) at p = 3, level 200
    takes ~3 ms, ~5 ms primitive.
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
    form, for A = [[0, beta], [beta*, 0]]: the block's profile (_block_profile)
    read at v_p(b), less the same with x and y in Pi O if primitive.  O(ell)
    steps: the budget never binds."""
    pm = a.params
    if a.rows != 2 or a.entries[0][0] or a.entries[1][1]:
        raise ValueError("count_column_pair needs a zero-diagonal 2x2 form")
    v_b = pm.val_p(b_value)
    radical = _block_profile(a, pm, True)[v_b] if primitive else 0
    return _block_profile(a, pm, False)[v_b] - radical


# -- size-2 Gram pairs: m = n = 2, A diagonal or p^e * H ----------------------


# Budget ops charged per size-2 count, at ~1.4 ns an op: its fixed cost (a
# residue line's g*Bg and key, the calls of one chain or row count), ~16 us;
# and per term of a sum over valuations, its Python steps, ~1-3 us, besides
# PRODUCT_TERM_OPS per limb of its products.
PAIR_COUNT_OPS = 2**14
PAIR_TERM_OPS = 2**11


def cost_matrix_pair(p: int, alternating: bool, primitive: bool, ell: int):
    """(ops, peak bytes, decimal digits) of count_matrix_pair's 1 (p^2 + 3
    if primitive) counts: each a fixed cost and 2*ell + 1 terms per row of
    sums (one for p^e H, its valuations; four for a diagonal target, the
    pivots that sum over the valuations of x2), each a few products of ints
    below p^(16*ell), in 30-bit limbs.  The ints held are about one term
    each; every count is below p^(16*ell), the number of 2x2 matrices."""
    counts = p * p + 3 if primitive else 1
    limbs = 1 + 16 * ell * math.log2(p) / 30
    terms = (2 * ell + 1) * (1 if alternating else 4)
    per_term = PAIR_TERM_OPS + limbs * PRODUCT_TERM_OPS
    return (math.ceil(counts * (PAIR_COUNT_OPS + terms * per_term)),
            math.ceil(2**13 + 4 * (ell + 1) * limbs),
            math.floor(16 * ell * math.log10(p)) + 1)


def _diagonal_pair_count(params: RingParams, s1: int, s2: int, b, in_radical: bool) -> int:
    """#{u : s1 r1*r1 + s2 r2*r2 = B}, rows r_k = (x_k, y_k), y_k in Pi O if
    in_radical, in closed form.  r -> c r, c a unit of norm sigma, maps the
    rows of sigma s onto those of s, so only e_k = v_p(s_k) matters.  The
    count runs down one chain of states (e1 <= e2, the entries of u held in
    Pi O):
    - e1 < e2, split on the first row: x1 a unit (pivot); x1 in Pi O and y1
      a unit (swap the columns: b11 and b22 swap, b12 is conjugated); or the
      row in Pi O, Pi times a row counted for -p s1, p^4 to one;
    - e1 = e2, split on the first column: x1 a unit (pivot); x1 in Pi O and
      x2 a unit (swap the rows); or both in Pi O: swap the columns, and once
      both columns are in Pi O, u = Pi u' for -p A, p^8 to one;
    - A = 0 mod p^ell ends it: every u counts if B is in the congruence set.
    A loop, summed by Horner's rule from the end, so each division is exact.

    The pivot sums over t = Nrd x1 (p^(3*ell-1)(p+1) unit x1 each):
    - b12 fixes z = y1 + gamma y2, gamma = (s1 x1*)^-1 s2 x2*, mod
      Pi^(2*ell-1-2*e1): p^(4*e1+2) z if v_Pi(b12) >= 2*e1, or 2*e1 + 1 if
      y1 is in Pi O, which then holds iff z is (on this chain gamma is a unit
      only if y2 is in Pi O too);
    - s2 Nrd x2 = b11 - s1 t: for x2 of valuation j, A(t) = v_p(b11 - s1 t)
      is e2 + j (p^(3*ell+e2-j-1)(p+1) x2 of that norm) or, past ell, ell;
    - the (2,2) entry is then kappa Nrd y2 + Trd(y2* w') = b22 - Nrd b12/(s1
      t), kappa = s2 b11/(s1 t), w' = -s2 x2 b12/(s1 t): a value count
      (_value_count).  A completed square reads it at b22 - Nrd b12/b11 =
      det B/b11 whatever t; else it asks C(t) = v_p(b22 - Nrd b12/(s1 t)) >= c.
    The units with A(t) >= a and C(t) >= c lie in two p-adic balls, which
    meet iff v_p(det B) reaches e1 + v_p(b22) + the smaller depth."""
    p, ell, val = params.p, params.ell, params.val_p
    b11, b22, w = b
    v_w = 2 * ell if w.pi_valuation() is None else w.pi_valuation()
    det = b11 * b22 - qnrd(w.coords(), p, params.eps2, p ** (2 * ell))   # of the lifts

    def pivot(e1, e2, f, g, rad_x2, rad_y1, rad_y2):   # f, g = v_p(b11), v_p(b22)
        h = min(v_w - e1, ell)                            # v_p(Nrd b12 / p^e1)
        top_a, top_c = ell if f == e1 else min(f, e1), ell if h == g else min(h, g)
        if v_w < 2 * e1 + rad_y1 or top_a < min(e2 + rad_x2, ell):
            return 0
        meet = val(det // p ** (e1 + g)) if f == e1 and h == g else ell

        def units(a, c):   # #{t : A(t) >= a, C(t) >= c}, balls of depths k1, k2
            k1, k2 = max(a - e1, 0), max(c - g, 0)
            if a > top_a or c > top_c or min(k1, k2) > meet:
                return 0
            return p ** (ell - max(k1, k2)) if k1 or k2 else p ** (ell - 1) * (p - 1)

        s = min(e2 - e1 + f + rad_y2, ell)              # v_p(kappa), times -p if y2 = Pi z
        read = val(det // p**f) if s < ell else ell     # exact where it counts: v_Pi(b12) >= 2f
        total = 0
        for j in range(rad_x2, 2 * ell + 1):
            a = min(e2 + j, ell)
            if a > top_a:
                break
            xs = p ** (3 * ell + e2 - j - 1) * (p + 1) if a < ell else \
                1 if j == 2 * ell else p ** (4 * ell - 2 * j - 2) * (p * p - 1)
            v = min(2 * (e2 - e1) + j + v_w + rad_y2, 2 * ell)   # v_Pi(w')
            if s < ell and v >= 2 * s:
                total += xs * _scalar_fibre(p, ell, s, read) * (units(a, 0) - units(a + 1, 0))
            else:
                c = min((v + 1) // 2, ell)
                total += xs * p ** (3 * ell + c) * (units(a, c) - units(a + 1, c))
        return p ** (3 * ell + 4 * e1 + 1 - 2 * rad_y2) * (p + 1) * total

    rows = [(val(s), False, in_radical) for s in (s1, s2)]   # (e, x in Pi O, y in Pi O)
    f, g, steps = val(b11), val(b22), []
    while True:
        rows.sort()
        (e1, x1, y1), (e2, x2, y2) = rows
        if e1 == ell:
            break
        found = 0 if x1 else pivot(e1, e2, f, g, x2, y1, y2)
        if e1 < e2:
            found += 0 if y1 else pivot(e1, e2, g, f, y2, True, x2)
            steps.append((found, 4))
            rows[0] = (e1 + 1, False, False)
        else:
            found += 0 if x2 else pivot(e1, e1, f, g, True, y2, y1)
            steps.append((found, 8 if y1 and y2 else 0))
            if y1 and y2:
                rows = [(e1 + 1, False, False)] * 2
            else:
                f, g, rows = g, f, [(e, y, True) for e, _, y in rows]
    held = sum(x + y for _, x, y in rows)
    total = p ** (16 * ell - 2 * held) if f == g == ell and v_w >= 2 * ell - 1 else 0
    for found, shift in reversed(steps):
        total = found + total // p**shift
    return total


def _value_count(params: RingParams, scale: int, w: QuatElem, t: int, in_radical: bool) -> int:
    """#{y : scale Nrd y + Trd(y* w) = t mod p^ell}, y in O/Pi^(2*ell) (Pi O if
    in_radical), with s = v_p(scale).

    If v_Pi(w) >= 2s and p^ell does not divide scale, w/scale is integral and
    the square completes: scale Nrd y + Trd(y* w) = scale Nrd(y + w/scale) -
    Nrd(w)/scale.  The shift y -> y + w/scale is a bijection, so the count is
    the scalar profile of scale (_scalar_fibre) read at v_p(t + Nrd(w)/scale);
    Nrd(w)/scale = (Nrd(w)/p^s)(scale/p^s)^-1 mod p^ell, taken from Nrd(w) mod
    p^(ell+s), does not depend on the lifts.  Otherwise v_Pi(w) < 2s and the
    linear term dominates: every value in p^c Z/p^ell, c = min(ceil(v_Pi(w)/2),
    ell), has p^(3*ell + c) preimages, as for a p^e H block (_block_profile).
    In Pi O, y = Pi z with Nrd Pi = -p and y* = z* Pi*: the count of
    (-p scale, Pi* w) over O, p^2 to one."""
    p, ell, pl = params.p, params.ell, params.modulus
    if in_radical:
        pi_w = QuatElem.pi(params).conj() * w
        return _value_count(params, -p * scale, pi_w, t, False) // (p * p)
    s, v_w = params.val_p(scale), w.pi_valuation()
    v_w = 2 * ell if v_w is None else v_w
    if s < ell and v_w >= 2 * s:
        unit = scale % pl // p**s
        shift = qnrd(w.coords(), p, params.eps2, pl * p**s) // p**s * pow(unit, -1, pl)
        return _scalar_fibre(p, ell, s, params.val_p(t + shift))
    c = min((v_w + 1) // 2, ell)
    return p ** (3 * ell + c) if params.val_p(t) >= c else 0


def _row_linear_count(params: RingParams, v_beta: int, b, in_radical: bool) -> int:
    """#{u : A[u] = B} for A = [[0, beta], [beta*, 0]], v = v_Pi(beta), the
    second column in Pi O if in_radical.  diag(g, beta^-1 g*^-1 beta) fixes A,
    so |O^x| times the first rows (1, y) and (x, 1), x in Pi O, cover those
    with a unit entry.  For (1, y) the second row (z, w) needs Trd(beta z) =
    d1 (p^(3*ell+c) z, c = ceil(v/2)) and beta w = b12 - (beta z)* y mod
    Pi^(2*ell-1) (p^(2v+2) w if b12 in Pi^v), and then the (2,2) entry is
    Trd(y* b12) - d1 Nrd y, a value count in y (_value_count); (x, 1) mirrors
    it.  First rows in Pi O are those of Pi* beta, p^4 to one; swapping the
    rows turns a radical second row into a radical first one.  So the count
    at v is its unit-row term plus p^-4 times the count at v + 1, a loop over
    the valuations up to 2*ell, where only B = 0 is left."""
    p, ell = params.p, params.ell
    d1, d2, w = b
    v_w = 2 * ell if w.pi_valuation() is None else w.pi_valuation()
    y_count = {rad: _value_count(params, -d1, w, d2, rad) for rad in {False, in_radical}}
    x_count = _value_count(params, -d2, w.conj(), d1, True)
    levels, rad1, rad2 = [], in_radical, in_radical
    for v in range(v_beta, 2 * ell):
        levels.append((v, rad1, rad2))
        rad1, rad2 = rad2, False
    total = (d1 == d2 == 0 and v_w >= 2 * ell - 1) * p ** (16 * ell - 2 * (rad1 + rad2))
    for v, rad1, rad2 in reversed(levels):
        c, mu = min((v + 1) // 2, ell), min(v + rad2, 2 * ell - 1)
        found = 0
        if d1 % p**c == 0 and v_w >= mu:
            found = p ** (2 * (mu - rad2) + 2) * y_count[rad1]
        if not rad1 and d2 % p**c == 0 and v_w >= v:
            found += p ** (2 * v + 2) * x_count
        total = p ** (7 * ell - 2 + c) * (p * p - 1) * found + total // p**4
    return total


def count_matrix_pair(b: HermMatrix, a: HermMatrix, primitive: bool = False,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Count 2x2 u with A[u] = B, A diagonal or [[0, beta], [beta*, 0]] (as
    every size-2 Gram representative is), in closed form.  Rank <= 1 means
    u v_L = 0 for one of the p^2 + 1 residue lines L; with g_L = I or
    [[0, 1], [1, lambda]], N_pr(B) = N(B) - sum_L N_rad(g_L* B g_L) +
    p^2 N_Pi(B): N_rad puts the second column in Pi O, and N_Pi (u in Pi O)
    is p^-8 N(Pi* A Pi).  Both routes read a target (d1, d2, b12) through d1,
    d2, v_Pi(b12) and Nrd b12 mod p^(2*ell) only, so lines with the same key
    are counted once."""
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
    # g* B g = [[b22, b12* + b22 lambda], [., b11 + Trd(b12 lambda) + b22 Nrd lambda]]
    # for lambda = l0 + l1 eps
    (w0, w1, w2, w3), e2, lines = w.coords(), pm.eps2, {}
    for l0 in range(p):
        for l1 in range(p):
            d2 = (b11 + 2 * (w0 * l0 + e2 * w1 * l1) + b22 * (l0 * l0 - e2 * l1 * l1)) % pl
            w12 = QuatElem(w0 + b22 * l0, b22 * l1 - w1, -w2, -w3, pm)
            key = d2, w12.pi_valuation(), qnrd(w12.coords(), p, e2, pl * pl)
            lines.setdefault(key, [(b22, d2, w12), 0])[1] += 1
    return (count(target) - count(target, True)
            - sum(n * count(line, True) for line, n in lines.values())
            + p * p * (count(target, shift=1) // p**8))
