"""Multivariate Laurent polynomials over Q(q) or Z[q^+-1] and the
symmetrization engine.

The engine computes orbit sums

    sum over permutations of  x^mu * (product of binomials) / Delta,

Delta = prod_{i<j} (x_i - x_j) the Vandermonde, the one denominator of every
orbit sum in the paper.  The orbit sum is Delta^-1 times the alternating sum
of the numerator B, a sum of alternants a_kappa, and a_kappa / Delta is a
Schur polynomial, expanded through cached Kostka rows, so nothing is divided.

B is never expanded.  The variables are cut into blocks, each a variable or
a few adjacent ones (an odd pair of the paper), such that the binomials
between a block and any earlier variable are the same for every earlier
variable.  The alternating sum is then built block by block on a state of
alternant coefficients: the binomials to the next block act on an alternant
exponent-wise, and the block's own monomials extend each exponent, sorted
with sign.  Every binomial constant is +-q^k, so all of this runs in
Z[x^+-1, q^+-1], and the result has IntLaurent coefficients;
`symmetric_sum` converts them to Q(q).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add

from .ratfunc import ONE, IntLaurent, RatFuncQ, ZERO


class NonExactDivision(ArithmeticError):
    """A polynomial is not divisible by the binomial it is divided by."""


def _coerce_scalar(c):
    if isinstance(c, (RatFuncQ, IntLaurent)):
        return c
    return RatFuncQ.const(c)


def map_distinct(terms: dict, fn) -> dict:
    """{key: fn(c)} for the nonzero results, calling fn once per distinct
    coefficient: a symmetric polynomial repeats each one over an orbit."""
    images = {}
    out = {}
    for e, c in terms.items():
        img = images.get(c)
        if img is None:
            img = images[c] = fn(c)
        if img:
            out[e] = img
    return out


def sub_scaled(a: dict, b: dict, factor, shift) -> dict:
    """a -= factor * x^shift * b in place, for dicts from exponent tuples to
    coefficients (Fraction, int, IntLaurent or RatFuncQ); zeros are dropped.
    Returns a."""
    for e, c in b.items():
        e = tuple(map(add, e, shift))
        d = factor * c
        v = a.get(e)
        v = -d if v is None else v - d
        if v:
            a[e] = v
        else:
            a.pop(e, None)
    return a


class LaurentPoly:
    """Laurent polynomial in n variables with RatFuncQ (or IntLaurent) coefficients.

    terms: dict mapping exponent tuples (ints, possibly negative) to nonzero
    coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_scalar(c)
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "LaurentPoly":
        return LaurentPoly(n)

    @staticmethod
    def constant(n: int, c) -> "LaurentPoly":
        return LaurentPoly(n, {tuple([0] * n): c})

    @staticmethod
    def monomial(n: int, expo, c=1) -> "LaurentPoly":
        return LaurentPoly(n, {tuple(expo): c})

    @staticmethod
    def variable(n: int, i: int) -> "LaurentPoly":
        e = [0] * n
        e[i] = 1
        return LaurentPoly(n, {tuple(e): ONE})

    @staticmethod
    def binomial(n: int, i: int, j: int, c) -> "LaurentPoly":
        """x_i - c * x_j  (0-based indices)."""
        ei = [0] * n
        ei[i] = 1
        ej = [0] * n
        ej[j] = 1
        return LaurentPoly(n, {tuple(ei): ONE, tuple(ej): -_coerce_scalar(c)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.n != other.n:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly(self.n)
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly(self.n)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("arity mismatch")
        out = {}
        for e, c in self.terms.items():
            sub_scaled(out, other.terms, -c, e)
        res = LaurentPoly(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        """Multiply by the scalar c.  An IntLaurent coefficient stays one when
        c is an int or an IntLaurent, and is lifted to RatFuncQ otherwise; a
        RatFuncQ coefficient meets c as a RatFuncQ."""
        lifted = RatFuncQ(c) if isinstance(c, IntLaurent) else _coerce_scalar(c)
        integral = isinstance(c, (int, IntLaurent))

        def times(cc):
            if type(cc) is not IntLaurent:
                return cc * lifted
            return cc * c if integral else RatFuncQ(cc) * lifted

        res = LaurentPoly(self.n)
        res.terms = map_distinct(self.terms, times)
        return res

    def shift(self, expo) -> "LaurentPoly":
        """Multiply by the monomial x^expo."""
        expo = tuple(expo)
        res = LaurentPoly(self.n)
        res.terms = {tuple(a + b for a, b in zip(e, expo)): c for e, c in self.terms.items()}
        return res

    def translate_all(self, e: int) -> "LaurentPoly":
        """Multiply by (x_1 ... x_n)^e."""
        return self.shift([e] * self.n)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure queries ---------------------------------------------------

    def permute(self, sigma) -> "LaurentPoly":
        """Apply x_i -> x_{sigma(i)} (sigma a tuple: position i maps to sigma[i])."""
        res = LaurentPoly(self.n)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.n
            for i, exp in enumerate(e):
                ne[sigma[i]] = exp
            out[tuple(ne)] = c
        res.terms = out
        return res

    def is_symmetric(self) -> bool:
        """Invariance under all adjacent transpositions."""
        for i in range(self.n - 1):
            sigma = list(range(self.n))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            if self.permute(sigma) != self:
                return False
        return True

    def min_exponent(self) -> int:
        """Smallest exponent over all variables and terms (0 if empty)."""
        if not self.terms:
            return 0
        return min(min(e) for e in self.terms)

    def coefficient(self, expo) -> RatFuncQ:
        return self.terms.get(tuple(expo), ZERO)

    # -- exact division --------------------------------------------------------

    def divide_exact_binomial(self, i: int, j: int, c) -> "LaurentPoly":
        """Exact division by (x_i - c * x_j); raises NonExactDivision otherwise.

        Synthetic division viewing the polynomial in x_i, highest layer first.
        If f = (x_i - c x_j) * Q then the x_i-degrees of Q span exactly
        [min_deg_i(f), max_deg_i(f) - 1], so any content pushed below the
        bottom layer certifies non-divisibility.
        """
        if not self.terms:
            return LaurentPoly.zero(self.n)
        c = _coerce_scalar(c)
        by_deg = {}
        for e, coef in self.terms.items():
            by_deg.setdefault(e[i], {})[e] = coef
        dmin = min(by_deg)
        quo = {}
        while by_deg:
            d = max(by_deg)
            layer = {e: coef for e, coef in by_deg.pop(d).items() if coef}
            if not layer:
                continue
            if d <= dmin:
                raise NonExactDivision(f"not divisible by x_{i+1} - ({c}) x_{j+1}")
            lower = by_deg.setdefault(d - 1, {})
            for e, coef in layer.items():
                qe = list(e)
                qe[i] -= 1
                qe = tuple(qe)
                quo[qe] = quo.get(qe, ZERO) + coef
                # subtracting coef * x^qe * (x_i - c x_j) cancels this term
                # and pushes the x_j part one x_i-degree down
                re = list(qe)
                re[j] += 1
                re = tuple(re)
                prev = lower.get(re, ZERO) + coef * c
                if prev:
                    lower[re] = prev
                else:
                    lower.pop(re, None)
            if not lower:
                by_deg.pop(d - 1, None)
        res = LaurentPoly(self.n)
        res.terms = {e: q for e, q in quo.items() if q}
        return res

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i+1}^{ei}" if ei != 1 else f"x{i+1}" for i, ei in enumerate(e) if ei
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


# -- the orbit-sum engine ---------------------------------------------------------
#
# Every binomial of an orbit-sum template is x_i - s*q^k x_j with s = +-1, so
# the engine works in Z[x^+-1, q^+-1]: a polynomial is a dict from exponent
# tuples (e_1, ..., e_n, e_q) to ints.


def _unit_qpower(c) -> tuple:
    """(s, k) with c = s * q^k and s = +-1; ValueError for any other constant."""
    c = _coerce_scalar(c)
    if isinstance(c, RatFuncQ) and c.content == 1 and not c.orders:
        c = c.num
    if isinstance(c, IntLaurent) and c.coeffs in ((1,), (-1,)):
        return c.coeffs[0], c.lo
    raise ValueError(f"orbit-sum binomial constants must be +-q^k, got {c}")


def _factor(n: int, i: int, j: int, c) -> tuple:
    """(i, j, s, k) for the binomial x_i - s q^k x_j, with 0 <= i != j < n."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"binomial indices must be distinct and in [0, {n}), got ({i}, {j})")
    return (i, j) + _unit_qpower(c)


def _binomial(m: int, i: int, j: int, s: int, k: int) -> dict:
    """x_i - s q^k x_j in Z[x_1..x_m, q^+-1]."""
    a, b = [0] * (m + 1), [0] * (m + 1)
    a[i] = b[j] = 1
    b[m] = k
    return {tuple(a): 1, tuple(b): -s}


def _sorted_with_sign(x: tuple):
    """(x sorted decreasingly, sign of the sorting permutation), or None when
    x repeats an entry (its alternating orbit sum is zero)."""
    if len(set(x)) < len(x):
        return None
    inversions = sum(a < b for i, a in enumerate(x) for b in x[i + 1:])
    return tuple(sorted(x, reverse=True)), -1 if inversions & 1 else 1


@lru_cache(maxsize=4096)
def _kostka_row(lam: tuple) -> tuple:
    """((mu, K_{lam mu}), ...) over the partitions mu with len(lam) parts: the
    monomial expansion s_lam = sum_mu K_{lam mu} m_mu on dominant weights.

    Branching rule: s_lam(x_1..x_n) is the sum of s_nu(x_1..x_{n-1}) *
    x_n^(|lam| - |nu|) over the nu interlacing lam; a dominant mu ends in a
    dominant weight of n - 1 parts.
    """
    if len(lam) == 1:
        return ((lam, 1),)
    row = {}
    size = sum(lam)
    for nu in itertools.product(*[range(b, a + 1) for a, b in zip(lam, lam[1:])]):
        last = size - sum(nu)
        for mu, k in _kostka_row(nu):
            if last <= mu[-1]:
                mu += (last,)
                row[mu] = row.get(mu, 0) + k
    return tuple(row.items())


def _normalized(n: int, num_factors) -> tuple:
    """({(i, j): sorted ((s, k), ...)} with i < j, sign, q-exponent): the
    numerator as sign * q^exponent times the binomials x_i - s q^k x_j, each
    x_j - c x_i with j > i rewritten as -c * (x_i - c^-1 x_j)."""
    pairs, sign, qexp = {}, 1, 0
    for f in num_factors:
        i, j, s, k = _factor(n, *f)
        if i > j:
            i, j, sign, qexp, k = j, i, -s * sign, qexp + k, -k
        pairs.setdefault((i, j), []).append((s, k))
    return {ij: tuple(sorted(c)) for ij, c in pairs.items()}, sign, qexp


def _blocks(n: int, pairs: dict) -> list:
    """Contiguous blocks [v, e) of 0..n-1, as many as possible, such that for
    each j of a block the binomials between x_i and x_j are the same for every
    i < v.  The first variable is always a block (one earlier variable has
    nothing to differ from); a template without further structure leaves the
    rest as one block, whose own numerator is expanded in full."""
    cuts = [0]
    for j in range(1, n):
        first, u = pairs.get((0, j), ()), 1
        while u < j and pairs.get((u, j), ()) == first:
            u += 1
        if u == j:
            cuts.append(j)
        else:
            while cuts[-1] > u:
                cuts.pop()
    return list(zip(cuts, cuts[1:] + [n]))


def _mul_poly(a: dict, b: dict) -> dict:
    """a * b for dicts from exponent tuples to ints."""
    out = {}
    for e, c in a.items():
        sub_scaled(out, b, -c, e)
    return out


@lru_cache(maxsize=1024)
def _block_steps(v: int, beta: tuple, inner: tuple, links: tuple) -> tuple:
    """((d, ((y-exponent, q-exponent, int), ...)), ...) over d in {0..D}^v: the
    terms of y^beta * prod(inner) * prod_{i<v} h_{d_i}(y) for a block of
    len(beta) variables y after v earlier ones x.

    inner holds the binomials inside the block as (i, j, s, k), links those
    between one earlier x and the block as (j, s, k), both block-local;
    G(x; y) = prod over links of (x - s q^k y_j) = sum_d h_d(y) x^d.  The
    products are built once per sorted d.
    """
    b = len(beta)
    own = {beta + (0,): 1}
    for f in inner:
        own = _mul_poly(own, _binomial(b, *f))
    link = {(0,) * (b + 2): 1}
    for j, s, k in links:
        link = _mul_poly(link, _binomial(b + 1, 0, j + 1, s, k))
    h = {}
    for (d, *rest), c in link.items():
        h.setdefault(d, {})[tuple(rest)] = c
    products = {(): own}

    def product(key):
        p = products.get(key)
        if p is None:
            p = products[key] = _mul_poly(product(key[:-1]), h[key[-1]])
        return p

    return tuple((d, tuple((ye[:b], ye[b], c) for ye, c in product(tuple(sorted(d))).items()))
                 for d in itertools.product(sorted(h), repeat=v))


def _peel(state: dict, steps: tuple) -> dict:
    """The alternant state of the earlier variables x times the next block y.

    The block contributes y^beta * (its inner binomials) * prod_i G(x_i; y).
    G is symmetric in x, so a_kappa * prod_i G(x_i; y) is the sum over d of
    prod_i h_{d_i}(y) * a_{kappa+d}, and the sum over the cosets of
    S_v x S_b turns a_rho(x) * y^beta into a_(rho, beta), sorted with sign.
    """
    out, sorted_x = {}, {}
    for kappa, qc in state.items():
        qc = qc.items()
        for d, terms in steps:
            rho = tuple(map(add, kappa, d))
            if len(set(rho)) < len(rho):
                continue
            for beta, t0, c in terms:
                x = rho + beta
                if x not in sorted_x:
                    sorted_x[x] = _sorted_with_sign(x)
                hit = sorted_x[x]
                if hit is not None:
                    acc = out.setdefault(hit[0], {})
                    c *= hit[1]
                    for t, cq in qc:
                        t += t0
                        acc[t] = acc.get(t, 0) + c * cq
    return out


def alternant_sum(n: int, mu, num_factors) -> dict:
    """sum over sigma of sgn(sigma) * sigma(x^mu * prod(num)), as
    {kappa: {q-exponent: int}} over strictly decreasing kappa: the coefficients
    of the alternants a_kappa, zeros dropped.

    The template is cut into the blocks of `_blocks` and peeled one block at
    a time by `_peel`, starting from sign * q^exponent of `_normalized` on no
    variables.
    """
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("exponent arity mismatch")
    pairs, sign, qexp = _normalized(n, num_factors)
    factors = sorted((i, j) + c for (i, j), cs in pairs.items() for c in cs)
    state = {(): {qexp: sign}}
    for v, e in _blocks(n, pairs):
        inner = tuple((i - v, j - v, s, k) for i, j, s, k in factors if v <= i and j < e)
        links = tuple((j - v, s, k) for i, j, s, k in factors if i == 0 < v <= j < e)
        state = _peel(state, _block_steps(v, mu[v:e], inner, links))
    out = {}
    for kappa, qc in state.items():
        qc = {t: c for t, c in qc.items() if c}
        if qc:
            out[kappa] = qc
    return out


def orbit_sum(n: int, mu, num_factors) -> LaurentPoly:
    """Orbit sum of x^mu * prod(num) / Delta over all permutations, with
    IntLaurent coefficients in Z[q^+-1]; Delta = prod_{i<j} (x_i - x_j) is the
    Vandermonde.

    num_factors: an iterable of (i, j, c) triples standing for the binomial
    x_i - c*x_j (0-based indices, distinct and below n, c = +-q^k; anything
    else is a ValueError).  A plain symmetrization of x^mu is the numerator
    Delta itself.

    sigma(Delta) = sgn(sigma) * Delta, so the sum is Delta^-1 times the sum of
    sgn(sigma) * sigma(B) for B = x^mu * prod(num): the alternant sum of
    `alternant_sum`, sum_kappa c_kappa * a_kappa, built block by block without
    expanding B.  a_kappa / Delta = s_{kappa - delta} (Macdonald I.3) goes to
    monomials through cached Kostka rows.  The sum is accumulated on dominant
    weights and expanded to the S_n orbit once.
    """
    # {dominant weight: {q-exponent: int}} of the sum;
    # s_lam = (x_1..x_n)^shift * s_{lam - shift}, shift = lam_n = kappa_n
    dominant = {}
    for kappa, qc in alternant_sum(n, mu, num_factors).items():
        shift = kappa[-1]
        for nu, mult in _kostka_row(tuple(a - shift - (n - 1 - t) for t, a in enumerate(kappa))):
            acc = dominant.setdefault(tuple(a + shift for a in nu), {})
            for d, c in qc.items():
                acc[d] = acc.get(d, 0) + mult * c

    res = LaurentPoly(n)
    for nu, qc in dominant.items():
        coef = IntLaurent.from_terms(qc)
        if coef:
            res.terms.update(dict.fromkeys(set(itertools.permutations(nu)), coef))
    return res


def symmetric_sum(n: int, mu, num_factors) -> LaurentPoly:
    """The orbit sum of `orbit_sum` with RatFuncQ coefficients."""
    result = orbit_sum(n, mu, num_factors)
    result.terms = map_distinct(result.terms, RatFuncQ)
    return result
