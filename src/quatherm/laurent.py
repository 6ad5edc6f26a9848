"""Multivariate Laurent polynomials over Q(q) or Z[q^+-1] and the
symmetrization engine.

The engine computes orbit sums

    sum over permutations of  x^mu * (product of binomials) / (product of binomials)

by clearing every denominator factor that occurs in any orbit term, expanding
one polynomial, collecting it by sorted exponent into alternants (or monomial
symmetric functions), and expanding those through cached Kostka rows; only
denominator factors beyond the Vandermonde are divided out.  Every binomial constant is +-q^k, so all of
this runs in Z[x^+-1, q^+-1], and the result has IntLaurent coefficients;
`symmetric_sum` converts them to Q(q).  Exact-division failure means the
template/exponent pair does not produce a polynomial and is reported, never
truncated.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .ratfunc import ONE, IntLaurent, RatFuncQ, ZERO


class NonExactDivision(ArithmeticError):
    """Orbit sum is not divisible by the cleared denominator."""


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
        res.terms = map_distinct(self.terms, lambda cc: cc * c)
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
    c = c.to_ratfunc() if isinstance(c, IntLaurent) else _coerce_scalar(c)
    num, den = c.num.coeffs, c.den.coeffs   # den is monic
    if num and num[-1] in (1, -1) and not any(num[:-1]) and not any(den[:-1]):
        return int(num[-1]), len(num) - len(den)
    raise ValueError(f"orbit-sum binomial constants must be +-q^k, got {c}")


def _factor(n: int, i: int, j: int, c) -> tuple:
    """(i, j, s, k) for the binomial x_i - s q^k x_j, with 0 <= i != j < n."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"binomial indices must be distinct and in [0, {n}), got ({i}, {j})")
    return (i, j) + _unit_qpower(c)


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


def _collect_q(n: int, poly: dict) -> LaurentPoly:
    """Collect the q-exponents of each x-monomial into one IntLaurent coefficient."""
    by_x = {}
    for e, c in poly.items():
        by_x.setdefault(e[:n], {})[e[n]] = c
    res = LaurentPoly(n)
    res.terms = {x: IntLaurent.from_terms(qc) for x, qc in by_x.items()}
    return res


def _canonical_factor(i: int, j: int, s: int, k: int):
    """Canonical key and sign for the binomial x_i - s q^k x_j.

    Only the constant 1 has an orientation ambiguity: x_j - x_i = -(x_i - x_j).
    """
    if (s, k) == (1, 0) and i > j:
        return (j, i, s, k), -1
    return (i, j, s, k), 1


def _permutation_sign(sigma) -> int:
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def _sorted_with_sign(x: tuple, alternating: bool):
    """(x sorted decreasingly, sign of the sorting permutation), or None when
    alternating and x repeats an entry (its alternating orbit sum is zero)."""
    srt = tuple(sorted(x, reverse=True))
    if not alternating:
        return srt, 1
    if len(set(x)) < len(x):
        return None
    return srt, _permutation_sign(sorted(range(len(x)), key=x.__getitem__, reverse=True))


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


def orbit_sum(n: int, mu, num_factors, den_factors) -> LaurentPoly:
    """Orbit sum of x^mu * prod(num) / prod(den) over all permutations, with
    IntLaurent coefficients in Z[q^+-1].

    num_factors / den_factors: iterables of (i, j, c) triples standing for the
    binomial x_i - c*x_j (0-based indices, distinct and below n, c = +-q^k;
    anything else is a ValueError).  NonExactDivision signals a
    non-polynomial template.

    Let L be the lcm of the denominators over the orbit.  L is S_n-stable:
    sigma(L) = sgn(sigma)^m * L, where m is the multiplicity of each x_a - x_b
    in L.  So L times the sum is the sum of sgn(sigma)^m * sigma(B) for the
    one polynomial B = x^mu * prod(num) * L / prod(den).  B is expanded once
    and collected by sorted x-exponent kappa into sum_kappa c_kappa * a_kappa
    (odd m; a_kappa the alternant) or sum_kappa c_kappa * |Stab kappa| *
    m_kappa (even m; m_kappa the monomial symmetric function).  For odd m,
    a_kappa = a_delta * s_{kappa - delta} (Macdonald I.3) divides by the
    Vandermonde a_delta with no division, through cached Kostka rows.  The
    sum is accumulated on dominant weights, expanded to the S_n orbit once,
    and divided exactly by what is left of L (nothing for Psi).
    """
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("exponent arity mismatch")
    num_factors = [_factor(n, *f) for f in num_factors]
    den_factors = [_factor(n, *f) for f in den_factors]

    # cancel denominator factors that occur verbatim in the numerator
    num_pool = list(num_factors)
    kept_den = []
    for f in den_factors:
        if f in num_pool:
            num_pool.remove(f)
        else:
            kept_den.append(f)
    num_factors, den_factors = num_pool, kept_den

    # S_n carries any pair of variables to any other, so in L every factor
    # with the constant s q^k has the largest multiplicity that any pair has
    # in the denominator (pairs unordered for the constant 1)
    top = Counter(_canonical_factor(*f)[0] for f in den_factors)
    lcm = {}
    for (_, _, s, k), mult in top.items():
        for a, b in itertools.permutations(range(n), 2):
            if (s, k) != (1, 0) or a < b:
                lcm[(a, b, s, k)] = max(lcm.get((a, b, s, k), 0), mult)

    # B = x^mu * num * L / den, with the sign of den's canonical orientation
    completing = dict(lcm)
    den_sign = 1
    for f in den_factors:
        key, sg = _canonical_factor(*f)
        den_sign *= sg
        completing[key] -= 1
    base = {mu + (0,): den_sign}
    for f in num_factors:
        base = _mul_binomial(base, *f)
    for key, mult in completing.items():
        for _ in range(mult):
            base = _mul_binomial(base, *key)

    alternating = lcm.get((0, 1, 1, 0), 0) % 2 == 1
    collected = {}
    sorted_x = {}
    for e, c in base.items():
        x = e[:n]
        if x not in sorted_x:
            sorted_x[x] = _sorted_with_sign(x, alternating)
        hit = sorted_x[x]
        if hit is not None:
            qc = collected.setdefault(hit[0], {})
            qc[e[n]] = qc.get(e[n], 0) + hit[1] * c

    # {dominant weight: {q-exponent: int}} of L' * sum, L' = L / a_delta for
    # odd m; s_lam = (x_1..x_n)^shift * s_{lam - shift}, shift = lam_n = kappa_n
    dominant = {}
    for kappa, qc in collected.items():
        if alternating:
            shift = kappa[-1]
            row = _kostka_row(tuple(a - shift - (n - 1 - t) for t, a in enumerate(kappa)))
        else:
            stab = math.prod(map(math.factorial, Counter(kappa).values()))
            shift, row = 0, ((kappa, stab),)
        for nu, mult in row:
            acc = dominant.setdefault(tuple(a + shift for a in nu), {})
            for d, c in qc.items():
                acc[d] = acc.get(d, 0) + mult * c
    if alternating:
        for a, b in itertools.combinations(range(n), 2):
            lcm[(a, b, 1, 0)] -= 1

    res = LaurentPoly(n)
    for nu, qc in dominant.items():
        coef = IntLaurent.from_terms(qc)
        if coef:
            res.terms.update(dict.fromkeys(set(itertools.permutations(nu)), coef))
    if not any(lcm.values()):
        return res
    total = {x + (d,): c for x, coef in res.terms.items()
             for d, c in enumerate(coef.coeffs, coef.lo) if c}
    for key, mult in lcm.items():
        for _ in range(mult):
            total = _div_binomial(total, *key)
    return _collect_q(n, total)


def symmetric_sum(n: int, mu, num_factors, den_factors, scalar=None) -> LaurentPoly:
    """The orbit sum of `orbit_sum` with RatFuncQ coefficients, times scalar
    (in Q(q)) when given."""
    result = orbit_sum(n, mu, num_factors, den_factors)
    result.terms = map_distinct(result.terms, IntLaurent.to_ratfunc)
    if scalar is not None:
        result = result.scale(scalar)
    return result
