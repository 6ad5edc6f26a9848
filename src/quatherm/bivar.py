"""Exact bivariate rational functions in the weight parameters (u1, u2).

Coefficients are ints (a Fraction is accepted): fractions are kept unreduced,
with no multivariate gcd, so a division by an int goes into the denominator.
Equality is decided by cross-multiplication, exact and cheap at these sizes.
"""

from __future__ import annotations

from fractions import Fraction


class BivarPoly:
    """Polynomial in u1, u2: dict (i, j) -> int (or Fraction, if given one)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    @staticmethod
    def u(k: int) -> "BivarPoly":
        return BivarPoly({(1, 0): 1}) if k == 1 else BivarPoly({(0, 1): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        r = BivarPoly()
        r.terms = out
        return r

    def __neg__(self):
        r = BivarPoly()
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        r = BivarPoly()
        r.terms = out
        return r

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            mono = ("" if i == 0 else f"u1^{i}") + ("" if j == 0 else f"*u2^{j}")
            parts.append(f"{c}{('*' + mono.lstrip('*')) if mono else ''}")
        return " + ".join(parts)

    __repr__ = __str__


class BivarRat:
    """Unreduced fraction of BivarPoly; equality via cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly | None = None):
        if den is None:
            den = BivarPoly.const(1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "BivarRat":
        return BivarRat(BivarPoly.const(c))

    @staticmethod
    def u(k: int) -> "BivarRat":
        return BivarRat(BivarPoly.u(k))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivarRat.const(other)
        if not isinstance(other, BivarRat):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return BivarRat.const(other)
        return other if isinstance(other, BivarRat) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return BivarRat(self.num + other.num, self.den)
        return BivarRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return BivarRat(-self.num, self.den)

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
        return BivarRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero")
        return BivarRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return BivarRat(self.den, self.num) ** (-k)
        out = BivarRat.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self):
        return f"({self.num})/({self.den})"

    __repr__ = __str__
