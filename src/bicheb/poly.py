"""Dense univariate polynomials over Q, backed by integers.

A ``Poly`` is a positive rational content times a primitive integer
vector: p = content * sum ints[k] x^k, gcd(ints) = 1, no trailing zero.
The form is unique, so equality compares the two fields.  The zero
polynomial has degree -1, empty ints and content 1.  ``Poly`` is
immutable and exact: its coefficients are ints or Fractions, and building
one from floats raises TypeError.

The ring operations work on the integer vectors.  A product packs both
vectors into one big int each (Kronecker substitution: x -> 2^w with a
slot width w wide enough for every product coefficient), does one CPython
multiply and unpacks the slots with a signed borrow.  By Gauss's lemma the
product of two primitive vectors is primitive, so it needs no gcd; its
content is the product of the contents.  Sums, derivatives and quotients
take one gcd to restore the form.  Integer pseudo-division and exact
division, shared by ``divmod`` and the gcds and Sturm chains of
``roots``, live here too.  ``coeffs``, the Fraction coefficients for
printing and tests, is built on first access.

Float coefficient lists for the continuation tracker, the quadrature
oracle and display are plain lists evaluated by ``horner``; they never
enter ``Poly``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

# coprime integer coefficients, ascending powers, of a positive multiple of a poly
Ints = tuple[int, ...]

_set = object.__setattr__


def _exact(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"Poly is exact: expected int or Fraction, got {type(v).__name__}")


def _make(content: Fraction, ints: Ints) -> "Poly":
    """The Poly content * ints for a positive content and a primitive ints."""
    p = object.__new__(Poly)
    _set(p, "content", content)
    _set(p, "ints", ints)
    return p


def _normal(content: Fraction, ints: list[int]) -> "Poly":
    """content * ints for any nonzero content and any integer list."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    del ints[n:]
    g = math.gcd(*ints)
    if content < 0:
        g = -g
    if g != 1:
        content *= g
        ints = [v // g for v in ints]
    return _make(content, tuple(ints))


def _kmul(a: Ints, b: Ints) -> list[int]:
    """Product of two nonempty integer vectors by Kronecker substitution.

    Every product coefficient is below min(len) * max|a| * max|b| in
    magnitude, so a slot of w bits, with 2^(w-1) above that bound, holds
    it with its sign.  ``_pack`` adds the signed digits;
    ``_unpack`` reads them back.
    """
    w = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    w = (w + 7) & ~7
    return _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1)


_PACK_SLOTS = 32  # above this many slots, _pack splits the vector in halves


def _pack(v: Sequence[int], w: int) -> int:
    """sum v_i 2^(w i): the integer vector v evaluated at x = 2^w.

    Each Horner step copies the growing int, so Horner costs time quadratic
    in the packed size; a longer vector is packed as two halves, joined by
    one shift.  Splitting costs more than it saves on vectors of up to 32
    slots of 64 bits, where ``_kmul`` packs most.
    """
    n = len(v)
    if n > _PACK_SLOTS:
        h = n // 2
        return _pack(v[:h], w) + (_pack(v[h:], w) << (w * h))
    out = 0
    for c in reversed(v):
        out = (out << w) + c
    return out


def _unpack(v: int, w: int, m: int) -> list[int]:
    """The digits d_0 .. d_(m-1) of v = sum d_i 2^(w i), for a slot width w
    of whole bytes and signed digits |d_i| < 2^(w-1).

    Reads w-bit slots of |v| from the low end, borrows one from the next
    slot whenever a slot's top bit is set, and negates the digits when
    v < 0.
    """
    nb = w >> 3
    raw = abs(v).to_bytes(nb * m, "little")
    half, full = 1 << (w - 1), 1 << w
    out = []
    borrow = 0
    for i in range(0, nb * m, nb):
        d = int.from_bytes(raw[i : i + nb], "little") + borrow
        borrow = d >= half
        out.append(d - full if borrow else d)
    return [-d for d in out] if v < 0 else out


def _pseudo_remainder(a: Ints, b: Ints) -> list[int]:
    """|lc b|^(deg a - deg b + 1) * (a mod b): a positive multiple of the
    remainder, in integers."""
    a = list(a)
    lc = b[-1]
    scale, sgn = abs(lc), (1 if lc > 0 else -1)
    for top in range(len(a) - 1, len(b) - 2, -1):
        t = sgn * a[top]
        shift = top - len(b) + 1
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= t * c
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _exact_quotient(a: Ints, b: Ints) -> Ints:
    """a / b for integer vectors where b divides a over the integers, as
    it does over Q for primitive a and b by Gauss's lemma."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= t * c
    return tuple(q)


def _chebyshev_ladder(u: "Poly", M, N: int) -> "Poly":
    """H_N(u) / |M|^(N // 2) for H_k = m^k T_k(u/m), a polynomial in u and
    M = m^2 of either sign (``bipartite.compose_outer``).

    With u = c I for the primitive I and M / c^2 = P/Q in lowest terms,
    K_k = Q^(k // 2) H_k(I, P/Q) is an integer vector: K_0 = 1, K_1 = I,

        K_2k = 2 Q^(k mod 2) K_k^2 - P^k,   K_(2k+1) = 2 K_k K_(k+1) - P^k I.

    The bits of N // 2 lead the pair (K_k, K_(k+1)) to k = N // 2, two
    products a step, one more step gives K_N, and H_N(u) = c^N K_N / Q^k.
    """
    c, I = u.content, u.ints
    mu = M / (c * c)
    P, Q = mu.numerator, mu.denominator

    def even(K: list[int], k: int, Pk: int) -> list[int]:  # K_2k from K_k
        two = 2 * Q if k & 1 else 2
        out = [two * v for v in _kmul(K, K)]
        out[0] -= Pk
        return out

    def odd(K: list[int], K1: list[int], Pk: int) -> list[int]:  # K_(2k+1)
        out = [2 * v for v in _kmul(K, K1)]
        for i, v in enumerate(I):
            out[i] -= Pk * v
        return out

    k, K, K1, Pk = 0, [1], list(I), 1  # (K_k, K_(k+1)) and P^k
    for bit in bin(N >> 1)[2:]:
        if bit == "1":
            K, K1, Pk, k = odd(K, K1, Pk), even(K1, k + 1, Pk * P), Pk * Pk * P, 2 * k + 1
        else:
            K, K1, Pk, k = even(K, k, Pk), odd(K, K1, Pk), Pk * Pk, 2 * k
    KN = odd(K, K1, Pk) if N & 1 else even(K, k, Pk)
    return _normal(c**N / (Q * abs(M)) ** k, KN)


def _sum(p: "Poly", q: "Poly", sign: int) -> "Poly":
    """p + sign * q for sign = +-1."""
    a, b = p.ints, q.ints
    if not b:
        return p
    if not a:
        return q if sign > 0 else -q
    # with g the gcd of the contents, p = g ka a and q = g kb b for integers ka, kb
    ca, cb = p.content, q.content
    na, da, nb, db = ca.numerator, ca.denominator, cb.numerator, cb.denominator
    gn, gd = math.gcd(na, nb), math.gcd(da, db)
    ka, kb = na // gn * (db // gd), sign * (nb // gn) * (da // gd)
    g = Fraction(gn, da // gd * db)
    if len(a) < len(b):
        a, b, ka, kb = b, a, kb, ka
    out = list(a) if ka == 1 else [ka * v for v in a]
    for i, v in enumerate(b):
        out[i] += kb * v
    return _normal(g, out)


class Poly:
    """Immutable dense polynomial over Q: content * ints, ascending powers."""

    __slots__ = ("content", "ints", "coeffs")

    def __new__(cls, coeffs: Iterable = ()):
        vals = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vals)) if vals else 1
        return _normal(Fraction(1, den), [c.numerator * (den // c.denominator) for c in vals])

    def __getattr__(self, name):
        # coeffs is built from the integers on first access
        if name != "coeffs":
            raise AttributeError(name)
        c = self.content
        coeffs = tuple(c * v for v in self.ints)
        _set(self, "coeffs", coeffs)
        return coeffs

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _make(Fraction(1), (1,))

    @staticmethod
    def x() -> "Poly":
        return _make(Fraction(1), (0, 1))

    @staticmethod
    def from_roots(roots: Sequence) -> "Poly":
        """Monic polynomial with the given roots."""
        out = Poly.one()
        for r in roots:
            out = out * Poly((-_exact(r), 1))
        return out

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def __bool__(self):
        return bool(self.ints)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def float_coeffs(self) -> list[float]:
        """The coefficients as floats, for ``horner``."""
        return [float(c) for c in self.coeffs]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.content, tuple(-v for v in self.ints)) if self.ints else self

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.ints or not other.ints:
            return _ZERO
        return _make(self.content * other.content, tuple(_kmul(self.ints, other.ints)))

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
        k = _exact(k)
        if not k or not self.ints:
            return _ZERO
        ints = self.ints if k > 0 else tuple(-v for v in self.ints)
        return _make(self.content * abs(k), ints)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ints == other.ints and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.ints))

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Poly":
        return _normal(self.content, [k * v for k, v in enumerate(self.ints)][1:])

    def eval(self, x) -> Fraction:
        """Exact value at an int or Fraction x, by homogenised integer Horner:
        den^deg * ints(num/den) is an integer."""
        x = _exact(x)
        num, den = x.numerator, x.denominator
        ints = self.ints
        if not ints:
            return Fraction(0)
        acc, pw = ints[-1], 1
        for c in ints[-2::-1]:
            pw *= den
            acc = acc * num + c * pw
        content = self.content
        return Fraction(content.numerator * acc, content.denominator * pw)

    def __call__(self, x):
        return self.eval(x)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)) by Horner over integer vectors.

        With inner = (a/b) I and self = c S of degree d,
        self(inner) = (c / b^d) sum_k S_k a^k b^(d-k) I^k, whose Horner
        steps H <- H * (a I) + S_k b^(d-k) stay in the integers.
        """
        S = self.ints
        if not S:
            return _ZERO
        if not inner.ints:
            return Poly((self.content * S[0],))
        a, b = inner.content.numerator, inner.content.denominator
        aI = tuple(a * v for v in inner.ints)
        acc, bpow = [S[-1]], 1
        for c in S[-2::-1]:
            bpow *= b
            acc = _kmul(acc, aI)
            acc[0] += c * bpow
        return _normal(self.content / bpow, acc)

    # -- euclidean structure -------------------------------------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder over Q, by integer pseudo-division:
        |lc|^e A = Q B + R with e = deg A - deg B + 1, lc the leading
        integer of B, R = ``_pseudo_remainder(A, B)`` and Q the exact
        quotient of |lc|^e A - R by B."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        A, B = self.ints, other.ints
        e = len(A) - len(B) + 1
        if e <= 0:
            return _ZERO, self
        R = _pseudo_remainder(A, B)
        lce = abs(B[-1]) ** e
        S = [lce * v for v in A]
        for i, v in enumerate(R):
            S[i] -= v
        return (
            _normal(self.content / other.content / lce, list(_exact_quotient(S, B))),
            _normal(self.content / lce, R),
        )

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    # -- printing --------------------------------------------------------------

    def format(self, var: str = "x", latex: bool = False) -> str:
        if not self.ints:
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


_ZERO = _make(Fraction(1), ())


def horner(coeffs: Sequence[float], x: float) -> float:
    """Value at x of the ascending coefficient list coeffs, in floats."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fmt_coeff(c: Fraction, latex: bool) -> str:
    if c.denominator != 1 and latex:
        return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"
    if c.denominator != 1:
        return f"({c})"
    return str(c)


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return _make(Fraction(abs(v)), (1 if v > 0 else -1,)) if v else _ZERO
    return NotImplemented
