"""Exact coefficient arithmetic: Q, Z[q, q^-1] and the field Q(q).

Everything downstream (densities, spherical polynomials, residue integrals)
carries its scalars in one of four exact types:

  * ``fractions.Fraction``    -- arbitrary-precision rationals,
  * :class:`IntLaurent`       -- the ring Z[q, q^-1], in which the orbit sums
                                 of the spherical polynomials are computed,
  * :class:`RatFuncQ`         -- Q(q) over c * q^k * prod Phi_d, the
                                 denominators of every value of the paper,
                                 reduced by trial division, with no gcd,
  * :class:`QPoly`            -- polynomials in q over Q; with `poly_gcd`,
                                 the Euclid reduction that the tests compare
                                 RatFuncQ against (the library never calls it).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class DivisionByZero(ArithmeticError):
    """Division by the zero polynomial or rational function."""


class PoleError(ArithmeticError):
    """Specialization of a rational function at a pole."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _poly_str(coeffs, start: int = 0) -> str:
    """The sum of coeffs[i] * q^(start + i), for int or Fraction coefficients."""
    parts = []
    for i, c in enumerate(coeffs, start):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("q" if c == 1 else ("-q" if c == -1 else f"{c}*q"))
        else:
            parts.append(f"q^{i}" if c == 1 else (f"-q^{i}" if c == -1 else f"{c}*q^{i}"))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class QPoly:
    """Dense univariate polynomial in q with Fraction coefficients.

    Coefficients are indexed by degree and trailing zeros are trimmed, so the
    leading coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((_frac(c),))

    @staticmethod
    def q_power(k: int) -> "QPoly":
        if k < 0:
            raise ValueError("QPoly stores nonnegative powers only")
        return QPoly((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self or not other:
            return QPoly()
        if other.is_monomial():
            c, k = other.leading(), other.degree
            return QPoly((0,) * k + tuple(c * x for x in self.coeffs))
        if self.is_monomial():
            c, k = self.leading(), self.degree
            return QPoly((0,) * k + tuple(c * x for x in other.coeffs))
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return QPoly(out)

    def scale(self, c) -> "QPoly":
        c = _frac(c)
        return QPoly(tuple(c * x for x in self.coeffs))

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "QPoly":
        if not self:
            return self
        return self.scale(1 / self.leading())

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs[:-1])

    def divmod(self, other: "QPoly"):
        """Euclidean division; exact over the rationals."""
        if not other:
            raise DivisionByZero("polynomial division by zero")
        if other.is_monomial():
            k = other.degree
            lead = other.leading()
            quo = QPoly(tuple(c / lead for c in self.coeffs[k:]))
            rem = QPoly(self.coeffs[:k])
            return quo, rem
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return QPoly(quo), QPoly(rem)

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power of QPoly; use RatFuncQ")
        out = QPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if not self:
            return self
        return QPoly((Fraction(0),) * k + self.coeffs)

    def min_power(self) -> int:
        """Lowest degree with nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def __str__(self) -> str:
        return _poly_str(self.coeffs)

    __repr__ = __str__


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd; gcd(0, 0) = 0 and gcd(f, 0) = monic(f)."""
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    # gcd with a monomial is a power of q
    if a.is_monomial():
        return QPoly.q_power(min(a.degree, b.min_power()))
    if b.is_monomial():
        return QPoly.q_power(min(b.degree, a.min_power()))
    while b:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


# -- integer Laurent polynomials in q and cyclotomic reduction ------------------------


class IntLaurent:
    """Element of Z[q, q^-1]: the sum of coeffs[i] * q^(lo + i).

    coeffs is a tuple of ints whose first and last entries are nonzero (empty,
    with lo = 0, for zero), so equal values have equal fields and hashes.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, coeffs=(), lo: int = 0):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        start = 0
        while start < len(cs) and not cs[start]:
            start += 1
        self.coeffs = tuple(cs[start:])
        self.lo = lo + start if self.coeffs else 0

    @staticmethod
    def from_terms(terms: dict) -> "IntLaurent":
        """From a dict q-exponent -> int."""
        terms = {d: c for d, c in terms.items() if c}
        if not terms:
            return IntLaurent()
        lo = min(terms)
        return IntLaurent([terms.get(d, 0) for d in range(lo, max(terms) + 1)], lo)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntLaurent) and self.lo == other.lo
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def _combine(self, other: "IntLaurent", sign: int) -> "IntLaurent":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign == 1 else -other
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.coeffs), other.lo + len(other.coeffs)) - lo)
        for i, c in enumerate(self.coeffs, self.lo - lo):
            out[i] = c
        for i, c in enumerate(other.coeffs, other.lo - lo):
            out[i] += sign * c
        return IntLaurent(out, lo)

    # a foreign operand has no coeffs; catching that costs nothing on the
    # IntLaurent path, where a type check would cost every call
    def __add__(self, other: "IntLaurent") -> "IntLaurent":
        try:
            return self._combine(other, 1)
        except AttributeError:
            return NotImplemented

    def __sub__(self, other: "IntLaurent") -> "IntLaurent":
        try:
            return self._combine(other, -1)
        except AttributeError:
            return NotImplemented

    def __neg__(self) -> "IntLaurent":
        res = IntLaurent()
        res.lo, res.coeffs = self.lo, tuple(-c for c in self.coeffs)
        return res

    def __mul__(self, other) -> "IntLaurent":
        if isinstance(other, int):
            if not other:
                return IntLaurent()
            res = IntLaurent()
            res.lo, res.coeffs = self.lo, tuple(other * c for c in self.coeffs)
            return res
        if not isinstance(other, IntLaurent):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntLaurent()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntLaurent(out, self.lo + other.lo)

    __rmul__ = __mul__

    def eval_at(self, q0) -> Fraction:
        """Exact value at q = q0; PoleError at q0 = 0 for a negative power."""
        return RatFuncQ(self).eval_at(q0)

    def __str__(self) -> str:
        return str(RatFuncQ(self))

    __repr__ = __str__


def _divmod_monic(a, b):
    """Quotient and remainder of integer coefficient lists (constant term
    first) by the monic b; both are tuples, the remainder len(b) - 1 long."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return (), tuple(a)
    quo = [0] * (len(a) - db)
    for s in range(len(a) - 1 - db, -1, -1):
        f = a[s + db]
        if f:
            quo[s] = f
            for i, c in enumerate(b, s):
                a[i] -= f * c
    return tuple(quo), tuple(a[:db])


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple:
    """Integer coefficients, constant term first, of the cyclotomic polynomial
    Phi_d: q^d - 1 divided by every Phi_e with e a proper divisor of d."""
    poly = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            poly, _ = _divmod_monic(poly, cyclotomic(e))
    return poly


@lru_cache(maxsize=None)
def _phi_product(orders: tuple) -> IntLaurent:
    out = IntLaurent([1])
    for d in orders:
        out = out * IntLaurent(cyclotomic(d))
    return out


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    return sum(gcd(k, d) == 1 for k in range(d))


@lru_cache(maxsize=4096)
def _cyclotomic_orders(coeffs: tuple):
    """The ascending orders d with prod Phi_d equal to the primitive integer
    polynomial coeffs (constant term first, leading coefficient positive), by
    trial division; None when it is no such product."""
    rest, orders, d = coeffs, [], 1
    while len(rest) > 1:     # phi(d) >= sqrt(d/2) bounds the orders by 2 deg^2
        if d > 2 * (len(rest) - 1) ** 2:
            return None
        if _totient(d) < len(rest):
            quo, rem = _divmod_monic(rest, cyclotomic(d))
            if not any(rem):
                rest, orders = quo, orders + [d]
                continue
        d += 1
    return tuple(orders)


def _horner(coeffs, x):
    """The polynomial with these coefficients (constant term first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class RatFuncQ:
    """num / (content * prod(Phi_d for d in orders)) in Q(q): an IntLaurent, an
    ascending tuple of cyclotomic orders with multiplicity, a positive int.

    The constructor divides num by each Phi_d of orders that divides it (a
    repeated order once per repetition) and content by its integer gcd with
    num: a canonical form, reached without a gcd of polynomials.  It prints as
    the reduced fraction over the monic q^max(-lo, 0) * prod Phi_d.
    """

    __slots__ = ("num", "orders", "content")

    def __init__(self, num: IntLaurent, orders=(), content: int = 1):
        coeffs, left = num.coeffs, []
        for d in orders:
            quo, rem = _divmod_monic(coeffs, cyclotomic(d))
            if any(rem):
                left.append(d)
            else:
                coeffs = quo
        g = gcd(content, *coeffs)
        if g > 1 or coeffs is not num.coeffs:
            num = IntLaurent(tuple(c // g for c in coeffs), num.lo)
        self.num, self.orders, self.content = num, tuple(sorted(left)), content // g

    @staticmethod
    def const(c) -> "RatFuncQ":
        c = _frac(c)
        return RatFuncQ(IntLaurent([c.numerator]), (), c.denominator)

    @staticmethod
    def q_power(k: int) -> "RatFuncQ":
        """q**k for any integer k."""
        return RatFuncQ(IntLaurent([1], k))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else (
            (self.num, self.orders, self.content) == (other.num, other.orders, other.content))

    def __hash__(self):
        return hash((self.num, self.orders, self.content))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, orders = self.num, other.num, self.orders
        if orders != other.orders:
            mine, theirs = Counter(orders), Counter(other.orders)
            a = a * _phi_product(tuple((theirs - mine).elements()))
            b = b * _phi_product(tuple((mine - theirs).elements()))
            orders = (mine | theirs).elements()
        content = lcm(self.content, other.content)
        return RatFuncQ(a * (content // self.content) + b * (content // other.content),
                        orders, content)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the canonical form: no trial division, no gcd
        res = object.__new__(RatFuncQ)
        res.num, res.orders, res.content = -self.num, self.orders, self.content
        return res

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else RatFuncQ(
            self.num * other.num, self.orders + other.orders, self.content * other.content)

    __rmul__ = __mul__

    def inverse(self) -> "RatFuncQ":
        """ArithmeticError unless the numerator is c * q^k * prod Phi_d."""
        if not self.num:
            raise DivisionByZero("inverse of zero in Q(q)")
        g = gcd(*self.num.coeffs) * (1 if self.num.coeffs[-1] > 0 else -1)
        orders = _cyclotomic_orders(tuple(c // g for c in self.num.coeffs))
        if orders is None:
            raise ArithmeticError(f"cannot invert {self}: not c * q^k * prod Phi_d")
        num = _phi_product(self.orders) * (self.content * (1 if g > 0 else -1))
        return RatFuncQ(IntLaurent(num.coeffs, -self.num.lo), orders, abs(g))

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, k: int) -> "RatFuncQ":
        base, out = (self if k >= 0 else self.inverse()), ONE
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _scaled(self):
        """The numerator's coefficients over content: the ints themselves when
        content is 1, so that only a fractional value builds Fractions."""
        if self.content == 1:
            return self.num.coeffs
        return [Fraction(c, self.content) for c in self.num.coeffs]

    def eval_at(self, q0) -> Fraction:
        """Exact value at q = q0; raises PoleError at a pole."""
        q0 = _frac(q0)
        x = q0.numerator if q0.denominator == 1 else q0
        num = _horner(self.num.coeffs, x)
        den = self.content * _horner(_phi_product(self.orders).coeffs, x)
        lo = self.num.lo
        if not den or (lo < 0 and not x):
            raise PoleError(f"pole at q = {q0}")
        if lo >= 0:
            num = num * x**lo
        else:
            den = den * x**-lo
        return Fraction(num) / den

    def as_coeff_arrays(self):
        """(numerator, denominator) of the reduced fraction with a monic
        denominator, as lists of exact coefficient strings, constant term first."""
        lo = self.num.lo
        return (["0"] * max(lo, 0) + [str(c) for c in self._scaled()],
                ["0"] * max(-lo, 0) + [str(c) for c in _phi_product(self.orders).coeffs])

    def __str__(self) -> str:
        lo = self.num.lo
        num = _poly_str(self._scaled(), max(lo, 0))
        if lo >= 0 and not self.orders:
            return num
        return f"({num})/({_poly_str(_phi_product(self.orders).coeffs, max(-lo, 0))})"

    __repr__ = __str__


def _coerce(x) -> RatFuncQ | None:
    """x as a RatFuncQ, for RatFuncQ, int and Fraction operands; None otherwise."""
    if isinstance(x, RatFuncQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFuncQ.const(x)
    return None


# Shared symbols.
Q = RatFuncQ.q_power(1)
ONE = RatFuncQ.const(1)
ZERO = RatFuncQ.const(0)


def qpow(k: int) -> RatFuncQ:
    return RatFuncQ.q_power(k)


def w_factor(m: int, t: RatFuncQ) -> RatFuncQ:
    """The finite product (1 - t)(1 - t^2)...(1 - t^m)."""
    out = ONE
    tp = ONE
    for _ in range(m):
        tp = tp * t
        out = out * (ONE - tp)
    return out


def format_fraction(x: Fraction) -> str:
    """Exact decimal-string form num/den, den omitted when 1."""
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
