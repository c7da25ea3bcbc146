"""Dense univariate polynomials with exact ring arithmetic.

Coefficients are duck-typed: int or Fraction for exact work (the exact
ring is Q), plain float for the continuation numerics.  ``Poly`` is
immutable; the zero polynomial has degree -1.

``LaurentPoly`` is the minimal negative-power companion needed for the
divided form p(x)/x^2 of a quartic and its derivative (tails never go
below x^-3 here, but the representation poly(x) * x^(-shift) is general).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Immutable dense polynomial, coefficients indexed by ascending power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((Fraction(1),))

    @staticmethod
    def x() -> "Poly":
        return Poly((Fraction(0), Fraction(1)))

    @staticmethod
    def from_roots(roots: Sequence) -> "Poly":
        """Monic polynomial with the given roots."""
        out = Poly.one()
        for r in roots:
            out = out * Poly((-Fraction(r), Fraction(1)))
        return out

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, k) -> "Poly":
        return Poly([c * k for c in self.coeffs])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly([Fraction(0)] * k + list(self.coeffs))

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; exact for exact inputs."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval(x)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)) by Horner over polynomials."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly((c,))
        return acc

    # -- euclidean structure (rational coefficients) --------------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        for k in range(len(rem) - 1 - dd, -1, -1):
            c = rem[k + dd]
            if not c:
                continue
            f = c / dlead
            q[k] = f
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * oc
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    def to_float(self) -> "Poly":
        return Poly([float(c) for c in self.coeffs])

    # -- printing --------------------------------------------------------------

    def format(self, var: str = "x", latex: bool = False) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = _fmt_coeff(mag, latex)
            else:
                xs = var if k == 1 else (f"{var}^{{{k}}}" if latex else f"{var}^{k}")
                body = xs if mag == 1 else f"{_fmt_coeff(mag, latex)}{'' if latex else '*'}{xs}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.format()})"


def _fmt_coeff(c, latex: bool) -> str:
    if isinstance(c, Fraction) and c.denominator != 1 and latex:
        return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"({c})"
    return str(c)


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction, float)):
        return Poly((v,))
    return NotImplemented


class LaurentPoly:
    """poly(x) * x^(-shift): just enough Laurent structure for p/x^2 work."""

    __slots__ = ("poly", "shift")

    def __init__(self, poly: Poly, shift: int = 0):
        # normalize: drop common factors of x between poly and the shift
        while shift > 0 and poly and not poly.coeffs[0]:
            poly = Poly(poly.coeffs[1:])
            shift -= 1
        self.poly = poly
        self.shift = max(shift, 0) if poly else 0

    def coeff(self, k: int):
        """Coefficient of x^k (k may be negative)."""
        return self.poly[k + self.shift]

    def __add__(self, other):
        other = _as_laurent(other)
        s = max(self.shift, other.shift)
        a = self.poly.shift_up(s - self.shift)
        b = other.poly.shift_up(s - other.shift)
        return LaurentPoly(a + b, s)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(-self.poly, self.shift)

    def __sub__(self, other):
        return self + (-_as_laurent(other))

    def __mul__(self, other):
        other = _as_laurent(other)
        return LaurentPoly(self.poly * other.poly, self.shift + other.shift)

    __rmul__ = __mul__

    def derivative(self) -> "LaurentPoly":
        s = self.shift
        out = [c * (k - s) for k, c in enumerate(self.poly.coeffs)]
        return LaurentPoly(Poly(out), s + 1)

    def poly_part(self) -> Poly:
        """Coefficients of the nonnegative powers."""
        return Poly(self.poly.coeffs[self.shift:])

    def tail(self) -> list:
        """Coefficients of x^-1, x^-2, ... down to the lowest power."""
        return [self.poly[self.shift - j] for j in range(1, self.shift + 1)]

    def is_zero(self) -> bool:
        return not self.poly

    def __eq__(self, other):
        return (self - _as_laurent(other)).is_zero()

    def __repr__(self):
        return f"LaurentPoly({self.poly.format()}, x^-{self.shift})"


def _as_laurent(v):
    if isinstance(v, LaurentPoly):
        return v
    return LaurentPoly(_as_poly(v), 0)


def chebyshev_t(n: int) -> Poly:
    """Chebyshev polynomial of the first kind, T_n.

    T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}; leading coefficient
    2^(n-1) for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Poly.one()
    prev, cur = Poly.one(), Poly.x()
    twox = Poly.x().scale(Fraction(2))
    for _ in range(n - 1):
        prev, cur = cur, twox * cur - prev
    return cur


def sinh_chebyshev(n: int) -> Poly:
    """Hyperbolic analogue sinh(n * arcsinh(x)), a polynomial iff n is odd.

    Odd-step recurrence: S_{k+2} = 2(1 + 2x^2) S_k - S_{k-2}, seeded with
    S_{-1} = -x, S_1 = x.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("sinh-Chebyshev polynomials exist only for odd n >= 1")
    prev = Poly((Fraction(0), Fraction(-1)))  # index -1
    cur = Poly.x()  # index 1
    step = Poly((Fraction(2), Fraction(0), Fraction(4)))  # 2 + 4x^2
    for _ in range((n - 1) // 2):
        prev, cur = cur, step * cur - prev
    return cur
