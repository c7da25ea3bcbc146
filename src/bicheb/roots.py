"""Certified real-root isolation for rational-coefficient polynomials.

Sturm's theorem over exact arithmetic: the number of distinct real roots
in (a, b] equals V(a) - V(b), where V counts sign changes along the
Sturm chain.  The chain is built from integer pseudo-remainders, each
scaled by a positive factor and made primitive, so every element is a
positive multiple of the classical one; it is evaluated by integer
Horner on the homogenised form.  The chain's last element is
gcd(p, p'); when it is not constant, Musser's algorithm splits p into
square-free factors with gcds and exact divisions of primitive integer
polynomials, the square-free part is isolated on its own chain and each
root's multiplicity is read off the factor it belongs to.  The search
runs over the whole line within the Cauchy bound, which no root reaches.

Every polynomial enters as the primitive integer vector ``Poly.ints``,
a positive multiple of it, so no conversion runs per call.

Isolating intervals are refined on the dyadic grid of the starting
interval (lo, hi): at level j its cells have width (hi - lo) / 2^j.
Refinement is quadratic interval refinement (QIR; Abbott 2006, Kerber &
Sagraloff 2011): from a cell at level j with N = 2^e subcells, the
secant through the exact integer values at the cell ends guesses the
subcell holding the root, and two exact signs certify it.  On success the
cell moves to level j + e and N becomes N^2; on failure N falls back to
its square root, and N = 2 is a plain bisection step.  The result is the
grid cell at the first level no wider than the requested width (a cell
found deeper is mapped up to it), or the exact root when it is rational,
so it is the interval that bisection on the same grid returns.  Rational
roots come out exactly by the rational-root theorem: a rational root of a
primitive integer polynomial has a denominator dividing the leading
coefficient, so it is k/lead for an integer k.  Once lead * (hi - lo) < 1
the interval holds at most one such point, which is tested once; if it is
not a root, the root is irrational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import Ints, Poly

DEFAULT_WIDTH = Fraction(1, 2**48)


def _primitive(ints: list[int]) -> Ints:
    content = math.gcd(*ints) or 1
    return tuple(v // content for v in ints)


def _powers(den: int, n: int) -> list[int]:
    """den^1 .. den^n."""
    out = [den]
    for _ in range(n - 1):
        out.append(out[-1] * den)
    return out


def _sign_pw(p: Ints, num: int, pw: list[int]) -> int:
    """Sign of p(num/den) for den > 0 and pw = _powers(den, >= deg p): the
    sign of den^deg * p(num/den), which homogenised Horner computes in
    integers."""
    acc = p[-1]
    for c, w in zip(p[-2::-1], pw):
        acc = acc * num + c * w
    return (acc > 0) - (acc < 0)


def _sign(p: Ints, x: Fraction) -> int:
    return _sign_pw(p, x.numerator, _powers(x.denominator, len(p) - 1))


def sign_at(p: Poly, x: Fraction) -> int:
    """Exact sign of p(x)."""
    if not p:
        return 0
    return _sign(p.ints, Fraction(x))


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


def sturm_chain(p: Poly) -> list[Ints]:
    """p, p' and the negated remainders, as primitive integer polynomials.

    Each element is a positive multiple of the classical chain's, so the
    signs and the root counts are the same; the last element is
    gcd(p, p') up to a constant.
    """
    return _sturm(p.ints)


def _sturm(a: Ints) -> list[Ints]:
    chain = [a, _primitive([k * c for k, c in enumerate(a)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def variations_at(chain: list[Ints], x: Fraction) -> int:
    x = Fraction(x)
    num, pw = x.numerator, _powers(x.denominator, len(chain[0]) - 1)
    count, prev = 0, 0
    for q in chain:
        s = _sign_pw(q, num, pw)
        if s:
            count += prev == -s
            prev = s
    return count


def count_roots_halfopen(chain: list[Ints], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the chain's base polynomial in (lo, hi]."""
    return variations_at(chain, lo) - variations_at(chain, hi)


def _positive(a: Ints) -> Ints:
    return a if a[-1] > 0 else tuple(-c for c in a)


def _exact_quotient(a: Ints, b: Ints) -> Ints:
    """a / b for primitive a and b with b | a: integral by Gauss's lemma."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= t * c
    return tuple(q)


def _gcd(a: Ints, b: Ints) -> Ints:
    """gcd by the primitive remainder sequence, with a positive leading
    coefficient."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _positive(a)


def _squarefree(p: Ints, g: Ints) -> list[tuple[Ints, int]]:
    """Musser's algorithm: the nonconstant factors f_i of p = prod f_i^i,
    square-free and pairwise coprime, given g = gcd(p, p')."""
    w = _exact_quotient(p, g)  # prod f_i
    out = []
    i = 1
    while len(w) > 1:
        y = _gcd(w, g)  # prod of f_j for j > i
        f = _exact_quotient(w, y)
        if len(f) > 1:
            out.append((_positive(f), i))
        g, w, i = _exact_quotient(g, y), y, i + 1
    return out


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Pairwise-coprime monic square-free factors of p with multiplicity."""
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    return [
        (Poly([Fraction(c, f[-1]) for c in f]), m)
        for f, m in _squarefree(chain[0], chain[-1])
    ]


def polys_gcd(a: Poly, b: Poly) -> Poly:
    """A gcd of nonzero rational a and b, with coprime integer coefficients."""
    return Poly(_gcd(a.ints, b.ints))


@dataclass(frozen=True)
class IsolatedRoot:
    """One real root: exact when lo == hi, else certified inside (lo, hi)."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def value(self) -> float:
        return float(self.mid)

    def __repr__(self):
        if self.exact:
            return f"Root({self.lo}, mult={self.multiplicity})"
        return f"Root(({self.lo}, {self.hi}), mult={self.multiplicity})"


def noroot_point(lo: Fraction, hi: Fraction, *polys: Poly) -> Fraction:
    """A point in (lo, hi) that is a root of none of the (nonzero) polys."""
    return _noroot_point(lo, hi, [p.ints for p in polys])


def _noroot_point(lo: Fraction, hi: Fraction, polys: list[Ints]) -> Fraction:
    span = hi - lo
    probes = (lo + span / den for den in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    grid = (lo + span * Fraction(j, 1009) for j in itertools.count(1))
    for x in itertools.chain(probes, grid):
        if all(_sign(p, x) for p in polys):
            return x


def _value_dyadic(q: Ints, num: int, j: int) -> int:
    """2^(j deg) q(num / 2^j): homogenised Horner with shifts for the powers."""
    acc, shift = q[-1], 0
    for c in q[-2::-1]:
        shift += j
        acc = acc * num + (c << shift)
    return acc


def _first_level(x: int, y: int) -> int:
    """The least j >= 0 with x <= y 2^j, for positive x and y."""
    j = max(0, x.bit_length() - y.bit_length())
    while x > y << j:
        j += 1
    while j and x <= y << (j - 1):
        j -= 1
    return j


def _refine(p: Ints, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a simple root; may land exactly.

    Requires p(lo) and p(hi) nonzero of opposite signs.  Cell c at level
    j is (a0 2^j + c W, a0 2^j + (c+1) W) / (den 2^j), with
    lo = a0/den and W = (hi - lo) den.  The result is the cell at level jw,
    the first no wider than width, or the exact root when it is rational:
    QIR runs to max(jw, jt), where jt is the first level with
    lead * W < den 2^j, tests the one candidate k/lead at the first level
    it reaches past jt, and maps its final cell up to level jw.
    """
    lead = abs(p[-1])
    den = math.lcm(lo.denominator, hi.denominator)
    a0 = lo.numerator * (den // lo.denominator)
    W = hi.numerator * (den // hi.denominator) - a0
    # p(t / (den 2^j)) has the sign of q(t / 2^j), q_k = p_k den^(deg - k);
    # values at one level share the positive factor (den 2^j)^deg
    q = [c * w for c, w in zip(p, reversed(_powers(den, len(p) - 1)))] + [p[-1]]
    deg = len(p) - 1
    jw = _first_level(W * width.denominator, den * width.numerator)
    jt = _first_level(lead * W + 1, den)
    target = max(jw, jt)
    j = c = 0
    va, vb = _value_dyadic(q, a0, 0), _value_dyadic(q, a0 + W, 0)
    e, tested = 2, False
    while True:
        if not tested and j >= jt:
            # at most one k/lead lies in the cell: the least one above it
            tested = True
            d = den << j
            a = (a0 << j) + c * W
            cand = Fraction(lead * a // d + 1, lead)
            if cand < Fraction(a + W, d) and not _sign(p, cand):
                return cand, cand
        if j == target:
            c >>= j - jw
            d = den << jw
            a = (a0 << jw) + c * W
            return Fraction(a, d), Fraction(a + W, d)
        step = min(e, target - j)
        N, level = 1 << step, j + step
        base = (a0 << level) + (c << step) * W  # subcell 0 at the new level
        # the secant's subcell boundary, rounded, strictly inside the cell
        ra, rb = abs(va), abs(vb)
        i = min(max((2 * N * ra + ra + rb) // (2 * (ra + rb)), 1), N - 1)
        t = base + i * W
        vi = _value_dyadic(q, t, level)
        if vi:
            left = (vi > 0) != (va > 0)  # the root lies in subcells 0 .. i-1
            nbr = i - 1 if left else i + 1
            if nbr in (0, N):
                vn = (va if left else vb) << (step * deg)
            else:
                t = base + nbr * W
                vn = _value_dyadic(q, t, level)
        if not vi or not vn:  # the grid point t is the root
            x = Fraction(t, den << level)
            return x, x
        if (vn > 0) == (vi > 0):
            e = max(e // 2, 1)  # the root is not next to the guess
            continue
        j, c = level, (c << step) + min(i, nbr)
        va, vb = (vn, vi) if left else (vi, vn)
        e *= 2


def isolate_squarefree(p: Poly, width: Fraction = DEFAULT_WIDTH) -> list[IsolatedRoot]:
    """Isolating intervals for the distinct real roots of a square-free p.

    Returned intervals are pairwise disjoint and each contains exactly
    one root; exact rational roots come out as point intervals.
    """
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    return _isolate(sturm_chain(p), width)


def _isolate(chain: list[Ints], width: Fraction) -> list[IsolatedRoot]:
    """isolate_squarefree on the Sturm chain of a square-free polynomial."""
    p = chain[0]
    # Cauchy: every root is smaller in magnitude than the bound
    b = 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))
    a = -b
    out = []
    # (x, y, V(x), V(y)): (x, y] holds V(x) - V(y) roots
    stack = [(a, b, variations_at(chain, a), variations_at(chain, b))]
    while stack:
        x, y, vx, vy = stack.pop()
        if vx - vy == 1:
            out.append(IsolatedRoot(*_refine(p, x, y, width)))
        elif vx - vy > 1:
            m = _noroot_point(x, y, [p])
            vm = variations_at(chain, m)
            stack.append((x, m, vx, vm))
            stack.append((m, y, vm, vy))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def real_roots(p: Poly, width: Fraction = DEFAULT_WIDTH) -> list[IsolatedRoot]:
    """All distinct real roots of p, with multiplicity.

    A square-free p is isolated on its own Sturm chain.  Otherwise the
    square-free part p / gcd(p, p') is isolated once (so intervals are
    disjoint by construction) and each root's multiplicity is read off
    the square-free factor it belongs to.
    """
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    g = chain[-1]
    if len(g) == 1:
        return _isolate(chain, width)
    factors = _squarefree(chain[0], g)
    plain = _isolate(_sturm(_positive(_exact_quotient(chain[0], g))), width)
    return [IsolatedRoot(r.lo, r.hi, _multiplicity_of(r, factors)) for r in plain]


def _multiplicity_of(r: IsolatedRoot, factors: list[tuple[Ints, int]]) -> int:
    if r.exact:
        for f, m in factors:
            if not _sign(f, r.lo):
                return m
    else:
        for f, m in factors:
            if _sign(f, r.lo) * _sign(f, r.hi) < 0:
                return m
    raise AssertionError("isolated root does not belong to any square-free factor")
