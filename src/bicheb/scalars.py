"""Exact scalar arithmetic: rationals and a single square-root extension.

Everything downstream computes over Q, except for quantities like the
line half-width m = sqrt(d)/s, which generally lives in Q(sqrt(d)).
``Surd`` models a + b*sqrt(rad) with a, b, rad rational and rad >= 0
fixed per computation.  Whenever rad is a perfect rational square the
value collapses back to a plain Fraction, so rational answers always
come out as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Fraction
Scalar = Union[Fraction, "Surd"]


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", integer, or decimal strings into an exact Fraction.

    Decimals are rationalized exactly: "0.01" -> 1/100, "1e-3" -> 1/1000.
    """
    return Fraction(text.strip())


def is_square(q: Fraction) -> bool:
    """True iff q is the square of a rational."""
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def rational_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational.  Raises otherwise."""
    if not is_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def exact_sqrt(q: Fraction) -> Scalar:
    """sqrt(q) as a Fraction when q is a rational square, else as a Surd."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    if is_square(q):
        return rational_sqrt(q)
    return Surd(Fraction(0), Fraction(1), q)


class Surd:
    """a + b*sqrt(rad) with rational a, b and fixed nonnegative rational rad.

    All Surds mixing in one arithmetic expression must share the same
    radicand; Fractions and ints mix freely.  Comparisons are exact.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b, rad):
        a, b, rad = Fraction(a), Fraction(b), Fraction(rad)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if b != 0 and is_square(rad):
            a, b = a + b * rational_sqrt(rad), Fraction(0)
        if b == 0:
            rad = Fraction(0)
        self.a, self.b, self.rad = a, b, rad

    # -- helpers ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _coerce(self, other) -> "Surd | None":
        if isinstance(other, Surd):
            if other.b != 0 and self.b != 0 and other.rad != self.rad:
                raise ValueError("mixed radicands in Surd arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(other, 0, self.rad)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rad = self.rad if self.b != 0 else o.rad
        return Surd(self.a + o.a, self.b + o.b, rad)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rad = self.rad if self.b != 0 else o.rad
        return Surd(
            self.a * o.a + self.b * o.b * rad,
            self.a * o.b + self.b * o.a,
            rad,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rad = self.rad if self.b != 0 else o.rad
        norm = o.a * o.a - o.b * o.b * rad
        if norm == 0:
            raise ZeroDivisionError("division by zero Surd")
        conj = Surd(o.a, -o.b, rad)
        num = self * conj
        return Surd(num.a / norm, num.b / norm, rad)

    def __rtruediv__(self, other):
        return Surd(other, 0, self.rad) / self

    def __pow__(self, k: int):
        if k < 0:
            return Fraction(1) / (self ** (-k))
        out = Surd(1, 0, self.rad)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons ------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(rad)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        # b != 0 implies rad is a positive non-square, so b*sqrt(rad) != 0
        if self.a >= 0 and self.b > 0:
            return 1
        if self.a <= 0 and self.b < 0:
            return -1
        # a and b*sqrt(rad) have opposite signs: compare a^2 with b^2*rad
        lhs, rhs = self.a * self.a, self.b * self.b * self.rad
        if lhs == rhs:
            return 0
        bigger_is_a = lhs > rhs
        return (1 if bigger_is_a else -1) * (1 if self.a > 0 else -1)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return (self - o).sign() == 0

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.rad))

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.rad}))"


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the open interval (lo, hi).

    Continued-fraction descent.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_in_interval(-hi, -lo)
    # now 0 <= lo < hi
    f = lo.numerator // lo.denominator
    if f + 1 < hi:
        return Fraction(f + 1)
    if lo == f:
        # interval (f, hi) with hi <= f+1: answer is f + 1/k, minimal k
        inv = 1 / (hi - f)
        k = inv.numerator // inv.denominator + 1
        return f + Fraction(1, k)
    return f + 1 / simplest_in_interval(1 / (hi - f), 1 / (lo - f))


def reconstruct_rational(x: float, max_den: int = 10**6) -> Fraction | None:
    """Candidate exact rational for a float, or None.

    Tries escalating denominator bounds and accepts the first candidate
    within float round-off distance of x.  Purely a candidate generator:
    callers must verify the value exactly before trusting it.
    """
    target = Fraction(x)
    bound = 1
    while bound <= max_den:
        cand = target.limit_denominator(bound)
        if abs(float(cand) - x) <= 1e-11 * max(1.0, abs(x)):
            return cand
        bound *= 10
    return None
