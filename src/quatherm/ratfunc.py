"""Exact coefficient arithmetic: Q, polynomials in q over Q, and the field Q(q).

Everything downstream (densities, spherical polynomials, residue integrals)
carries its scalars in one of three exact types:

  * ``fractions.Fraction``    -- arbitrary-precision rationals,
  * :class:`QPoly`            -- univariate polynomials in q over Q,
  * :class:`RatFuncQ`         -- the fraction field Q(q), always reduced,
                                 denominator monic.

Negative powers of q are ordinary elements of Q(q): q**-2 is stored as the
fraction 1/q^2, which keeps gcd reduction classical.
"""

from __future__ import annotations

from fractions import Fraction


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

    def evaluate(self, q0) -> Fraction:
        q0 = _frac(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

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
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("q" if c == 1 else ("-q" if c == -1 else f"{c}*q"))
            else:
                parts.append(f"q^{i}" if c == 1 else (f"-q^{i}" if c == -1 else f"{c}*q^{i}"))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

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


class RatFuncQ:
    """Element of Q(q) in canonical form: reduced fraction, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if isinstance(num, (int, Fraction)):
            num = QPoly.const(num)
        if den is None:
            den = QPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = QPoly.const(den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if _canonical:
            self.num, self.den = num, den
            return
        if not num:
            self.num, self.den = QPoly(), QPoly.const(1)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        lead = den.leading()
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num, self.den = num, den

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFuncQ":
        return RatFuncQ(QPoly.const(c), QPoly.const(1), _canonical=True)

    @staticmethod
    def q_power(k: int) -> "RatFuncQ":
        """q**k for any integer k."""
        if k >= 0:
            return RatFuncQ(QPoly.q_power(k), QPoly.const(1), _canonical=True)
        return RatFuncQ(QPoly.const(1), QPoly.q_power(-k), _canonical=True)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFuncQ.const(other)
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFuncQ", self.num.coeffs, self.den.coeffs))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFuncQ.const(other)
        if isinstance(other, RatFuncQ):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFuncQ(self.num + other.num, self.den)
        return RatFuncQ(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncQ(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return RatFuncQ.const(0)
        return RatFuncQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero in Q(q)")
        return RatFuncQ(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFuncQ":
        if not self.num:
            raise DivisionByZero("inverse of zero in Q(q)")
        return RatFuncQ(self.den, self.num)

    def __pow__(self, k: int) -> "RatFuncQ":
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFuncQ.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- specialization and serialization -------------------------------

    def eval_at(self, q0) -> Fraction:
        """Exact value at q = q0; raises PoleError at a pole."""
        q0 = _frac(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def as_coeff_arrays(self):
        """(numerator, denominator) as lists of exact coefficient strings."""
        return (
            [format_fraction(c) for c in self.num.coeffs],
            [format_fraction(c) for c in self.den.coeffs],
        )

    def __str__(self) -> str:
        if self.den.coeffs == (Fraction(1),):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


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
