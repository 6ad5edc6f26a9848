"""Multivariate Laurent polynomials over Q(q) and the symmetrization engine.

The engine computes orbit sums

    sum over permutations of  x^mu * (product of binomials) / (product of binomials)

by clearing every denominator factor that occurs in any orbit term, expanding,
and dividing exactly once.  Every binomial constant is +-q^k, so all of this
runs in Z[x^+-1, q^+-1]; only the finished sum is converted to Q(q)
coefficients.  Exact-division failure means the template/exponent pair does
not produce a polynomial and is reported, never truncated.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .ratfunc import ONE, QPoly, RatFuncQ, ZERO


class NonExactDivision(ArithmeticError):
    """Orbit sum is not divisible by the cleared denominator."""


def _coerce_scalar(c) -> RatFuncQ:
    if isinstance(c, RatFuncQ):
        return c
    return RatFuncQ.const(c)


class LaurentPoly:
    """Laurent polynomial in n variables with RatFuncQ coefficients.

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
        if isinstance(other, (int, RatFuncQ)):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("arity mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _coerce_scalar(c)
        res = LaurentPoly(self.n)
        if c:
            # symmetric polynomials repeat each coefficient over an orbit
            prods = {}
            for e, cc in self.terms.items():
                p = prods.get(cc)
                if p is None:
                    p = prods[cc] = cc * c
                res.terms[e] = p
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


def elementary_symmetric(n: int, k: int) -> LaurentPoly:
    """The k-th elementary symmetric polynomial in n variables."""
    if k == 0:
        return LaurentPoly.constant(n, 1)
    out = LaurentPoly.zero(n)
    for comb in itertools.combinations(range(n), k):
        e = [0] * n
        for i in comb:
            e[i] = 1
        out = out + LaurentPoly.monomial(n, e, 1)
    return out


# -- the orbit-sum engine ---------------------------------------------------------
#
# Every binomial of an orbit-sum template is x_i - s*q^k x_j with s = +-1, so
# the engine works in Z[x^+-1, q^+-1]: a polynomial is a dict from exponent
# tuples (e_1, ..., e_n, e_q) to ints.  Each divisor is monic in x_i and its
# other coefficient is a unit, so exact division needs no gcd.


def _unit_qpower(c) -> tuple:
    """(s, k) with c = s * q^k and s = +-1; ValueError for any other constant."""
    c = _coerce_scalar(c)
    num, den = c.num.coeffs, c.den.coeffs   # den is monic
    if num and num[-1] in (1, -1) and not any(num[:-1]) and not any(den[:-1]):
        return int(num[-1]), len(num) - len(den)
    raise ValueError(f"orbit-sum binomial constants must be +-q^k, got {c}")


def _mul_binomial(poly: dict, i: int, j: int, s: int, k: int) -> dict:
    """poly * (x_i - s q^k x_j) in Z[x^+-1, q^+-1]."""
    out = {}
    get = out.get
    for e, c in poly.items():
        a = list(e)
        a[i] += 1
        a = tuple(a)
        out[a] = get(a, 0) + c
        b = list(e)
        b[j] += 1
        b[-1] += k
        b = tuple(b)
        out[b] = get(b, 0) - s * c
    return {e: c for e, c in out.items() if c}


def _div_binomial(poly: dict, i: int, j: int, s: int, k: int) -> dict:
    """Exact quotient poly / (x_i - s q^k x_j); raises NonExactDivision.

    Synthetic division in x_i, highest layer first, as in
    LaurentPoly.divide_exact_binomial: the divisor is monic in x_i, so each
    step only moves s*q^k times a coefficient one x_i-degree down.
    """
    by_deg = {}
    for e, c in poly.items():
        by_deg.setdefault(e[i], {})[e] = c
    if not by_deg:
        return {}
    dmin = min(by_deg)
    quo = {}
    for d in range(max(by_deg), dmin - 1, -1):
        layer = by_deg.pop(d, None)
        if not layer:
            continue
        if d == dmin:
            c = s * RatFuncQ.q_power(k)
            raise NonExactDivision(f"not divisible by x_{i+1} - ({c}) x_{j+1}")
        lower = by_deg.setdefault(d - 1, {})
        for e, c in layer.items():
            qe = list(e)
            qe[i] -= 1
            quo[tuple(qe)] = c
            # subtracting c x^qe (x_i - s q^k x_j) cancels this term and
            # pushes s q^k c x^qe x_j one x_i-degree down
            qe[j] += 1
            qe[-1] += k
            re = tuple(qe)
            v = lower.get(re, 0) + s * c
            if v:
                lower[re] = v
            else:
                del lower[re]
    return quo


def _to_laurent(n: int, poly: dict) -> LaurentPoly:
    """Collect the q-exponent of each x-monomial into its Q(q) coefficient.

    A Laurent polynomial in q is already canonical as f / q^m with f(0) != 0,
    so no gcd is taken.
    """
    by_x = {}
    for e, c in poly.items():
        by_x.setdefault(e[:n], {})[e[n]] = c
    one = QPoly.const(1)
    terms = {}
    for x, qc in by_x.items():
        lo = min(min(qc), 0)
        num = QPoly([qc.get(d, 0) for d in range(lo, max(qc) + 1)])
        den = QPoly.q_power(-lo) if lo else one
        terms[x] = RatFuncQ(num, den, _canonical=True)
    res = LaurentPoly(n)
    res.terms = terms
    return res


def _canonical_factor(i: int, j: int, s: int, k: int):
    """Canonical key and sign for the binomial x_i - s q^k x_j.

    Only the constant 1 has an orientation ambiguity: x_j - x_i = -(x_i - x_j).
    """
    if (s, k) == (1, 0) and i > j:
        return (j, i, s, k), -1
    return (i, j, s, k), 1


def symmetric_sum(n: int, mu, num_factors, den_factors, scalar=None) -> LaurentPoly:
    """Orbit sum of x^mu * prod(num) / prod(den) over all permutations.

    num_factors / den_factors: iterables of (i, j, c) triples standing for the
    binomial x_i - c*x_j (0-based indices, c = +-q^k; any other constant is
    a ValueError).  The sum is formed over a common denominator and divided
    exactly in Z[x^+-1, q^+-1]; NonExactDivision signals a non-polynomial
    template.  The result is multiplied by scalar (in Q(q)) when given.
    """
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("exponent arity mismatch")
    num_factors = [(i, j) + _unit_qpower(c) for (i, j, c) in num_factors]
    den_factors = [(i, j) + _unit_qpower(c) for (i, j, c) in den_factors]

    # cancel denominator factors that occur verbatim in the numerator
    num_pool = list(num_factors)
    kept_den = []
    for f in den_factors:
        if f in num_pool:
            num_pool.remove(f)
        else:
            kept_den.append(f)
    num_factors, den_factors = num_pool, kept_den

    # the base term expands once; every orbit term is an exponent permutation
    base = {mu + (0,): 1}
    for f in num_factors:
        base = _mul_binomial(base, *f)
    signed = {1: list(base.items()), -1: [(e, -c) for e, c in base.items()]}

    # catalogue the denominator factors across the orbit; orbit terms with the
    # same factors share the completing factors of the lcm, so they are
    # summed first
    lcm = {}
    groups = {}
    for sigma in itertools.permutations(range(n)):
        fac = {}
        sign = 1
        for (i, j, s, k) in den_factors:
            key, sg = _canonical_factor(sigma[i], sigma[j], s, k)
            sign *= sg
            fac[key] = fac.get(key, 0) + 1
        for key, mult in fac.items():
            if lcm.get(key, 0) < mult:
                lcm[key] = mult
        perm = itemgetter(*[sigma.index(u) for u in range(n)], n)
        acc = groups.setdefault(tuple(sorted(fac.items())), {})
        get = acc.get
        for e, c in signed[sign]:
            pe = perm(e)
            acc[pe] = get(pe, 0) + c
    total = {}
    get = total.get
    for fac, acc in groups.items():
        term = {e: c for e, c in acc.items() if c}
        fac = dict(fac)
        for key, mult in lcm.items():
            for _ in range(mult - fac.get(key, 0)):
                term = _mul_binomial(term, *key)
        for e, c in term.items():
            total[e] = get(e, 0) + c
    total = {e: c for e, c in total.items() if c}

    for key, mult in lcm.items():
        for _ in range(mult):
            total = _div_binomial(total, *key)
    result = _to_laurent(n, total)
    if scalar is not None:
        result = result.scale(scalar)
    return result
