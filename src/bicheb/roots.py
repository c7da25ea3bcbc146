"""Certified real-root isolation for rational-coefficient polynomials.

Sturm's theorem over exact arithmetic: the number of distinct real roots
in (a, b] equals V(a) - V(b), where V counts sign changes along the
Sturm chain.  Multiplicities come from Yun's square-free decomposition.
Chain elements are kept as primitive integer polynomials (content
stripped, sign preserved) to hold coefficient growth down.

Rational roots are recovered exactly: while an isolating interval is
refined, the smallest-denominator rational inside it is probed; once the
interval is narrower than 1/q^2 the probe provably hits a rational root
with denominator q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly
from .scalars import simplest_in_interval

DEFAULT_WIDTH = Fraction(1, 2**48)

# identity-keyed memo (the stored strong reference pins the id); hashing
# Poly coefficient tuples per sign query would dominate the isolation cost
_INT_MEMO: dict[int, tuple[Poly, tuple[int, ...]]] = {}


def _int_coeffs(p: Poly) -> tuple[int, ...]:
    """Primitive integer coefficients, sign preserved (rational p only)."""
    key = id(p)
    hit = _INT_MEMO.get(key)
    if hit is not None and hit[0] is p:
        return hit[1]
    ints = tuple(int(c) for c in primitive(p).coeffs)
    if len(_INT_MEMO) > 8192:
        _INT_MEMO.clear()
    _INT_MEMO[key] = (p, ints)
    return ints


def _require_rational(p: Poly) -> None:
    if not p.is_rational():
        raise ValueError("root isolation requires rational coefficients")


def primitive(p: Poly) -> Poly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if not p:
        return p
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    content = math.gcd(*(abs(v) for v in ints))
    return Poly([Fraction(v, content) for v in ints])


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [primitive(p), primitive(p.derivative())]
    while chain[-1]:
        rem = chain[-2] % chain[-1]
        if not rem:
            break
        chain.append(primitive(-rem))
    return chain


def sign_at(p: Poly, x: Fraction) -> int:
    """Exact sign of p(x) via integer Horner on the homogenized form.

    sign(p(a/b)) = sign(sum_k c_k a^k b^(deg-k)) for b > 0, which stays in
    (fast) integer arithmetic instead of Fraction normalization.
    """
    if not p:
        return 0
    coeffs = _int_coeffs(p)
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    acc = coeffs[-1]
    dp = 1
    for c in reversed(coeffs[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations([sign_at(q, x) for q in chain])


def count_roots_halfopen(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the chain's base polynomial in (lo, hi]."""
    return variations_at(chain, lo) - variations_at(chain, hi)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lead = abs(Fraction(p.leading()))
    m = max((abs(Fraction(c)) for c in p.coeffs[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: pairwise-coprime square-free factors with multiplicity."""
    _require_rational(p)
    if not p:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    g = p.gcd(p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out = []
    w = (p // g).monic()
    y = p.derivative() // g
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        gi = w.gcd(z)
        if gi.degree > 0:
            out.append((gi.monic(), i))
            w = (w // gi).monic()
            y = z // gi
        else:
            y = z
        z = y - w.derivative()
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    if p.degree <= 0:
        return p.monic() if p else p
    g = p.monic().gcd(p.derivative().monic())
    if g.degree == 0:
        return p.monic()
    return (p // g).monic()


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
    span = hi - lo
    probes = (lo + span / den for den in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    grid = (lo + span * Fraction(j, 1009) for j in itertools.count(1))
    for x in itertools.chain(probes, grid):
        if all(sign_at(p, x) != 0 for p in polys):
            return x


def _refine(p: Poly, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a simple root; may land exactly.

    Requires sign(p(lo)) != sign(p(hi)), both nonzero.  Every few rounds
    the smallest-denominator rational inside the interval is probed, which
    recovers rational roots exactly once the interval is tight enough.
    """
    slo = sign_at(p, lo)
    round_ = 0
    while hi - lo > width:
        if round_ % 4 == 0:
            cand = simplest_in_interval(lo, hi)
            if sign_at(p, cand) == 0:
                return cand, cand
        round_ += 1
        mid = (lo + hi) / 2
        sm = sign_at(p, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    cand = simplest_in_interval(lo, hi)
    if sign_at(p, cand) == 0:
        return cand, cand
    return lo, hi


def _past_endpoint(chain: list[Poly], a: Fraction, b: Fraction) -> Fraction:
    """a' in (a, b) such that (a, a'] contains no root."""
    eps = (b - a) / 4
    while True:
        a2 = a + eps
        if a2 < b and count_roots_halfopen(chain, a, a2) == 0:
            return a2
        eps /= 2


def _before_endpoint(chain: list[Poly], a: Fraction, b: Fraction) -> Fraction:
    """Non-root b' in (a, b) such that (b', b] contains only the root at b."""
    p = chain[0]
    eps = (b - a) / 4
    while True:
        b2 = b - eps
        if b2 > a and sign_at(p, b2) != 0 and count_roots_halfopen(chain, b2, b) == 1:
            return b2
        eps /= 2


def isolate_squarefree(
    p: Poly,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    width: Fraction = DEFAULT_WIDTH,
) -> list[IsolatedRoot]:
    """Isolating intervals for the distinct real roots of a square-free p.

    Searches the closed interval [lo, hi] (defaults to a Cauchy root
    bound).  Returned intervals are pairwise disjoint and each contains
    exactly one root; exact rational roots come out as point intervals.
    """
    _require_rational(p)
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    p = primitive(p)
    bound = root_bound(p)
    a = -bound if lo is None else Fraction(lo)
    b = bound if hi is None else Fraction(hi)
    if a > b:
        raise ValueError("empty search interval")
    out: list[IsolatedRoot] = []
    if sign_at(p, a) == 0:
        out.append(IsolatedRoot(a, a))
    if b != a and sign_at(p, b) == 0:
        out.append(IsolatedRoot(b, b))
    if a == b:
        return out
    chain = sturm_chain(p)
    if sign_at(p, a) == 0:
        a = _past_endpoint(chain, a, b)
    if sign_at(p, b) == 0:
        b = _before_endpoint(chain, a, b)
        # (b, old_b] held only the endpoint root, so (a, b] misses nothing else
    stack = [(a, b, count_roots_halfopen(chain, a, b))]
    while stack:
        x, y, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            rlo, rhi = _refine(p, x, y, width)
            out.append(IsolatedRoot(rlo, rhi))
            continue
        m = noroot_point(x, y, p)
        nl = count_roots_halfopen(chain, x, m)
        stack.append((x, m, nl))
        stack.append((m, y, n - nl))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def real_roots(
    p: Poly,
    interval: tuple[Fraction, Fraction] | None = None,
    width: Fraction = DEFAULT_WIDTH,
) -> list[IsolatedRoot]:
    """All distinct real roots of p in a closed interval, with multiplicity.

    The square-free part is isolated once (so intervals are disjoint by
    construction) and each root's multiplicity is read off from the Yun
    factor it belongs to.
    """
    _require_rational(p)
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    lo, hi = (None, None) if interval is None else interval
    factors = squarefree_decomposition(p)
    base = Poly.one()
    for f, _ in factors:
        base = base * f
    plain = isolate_squarefree(base, lo, hi, width)
    out = []
    for r in plain:
        out.append(IsolatedRoot(r.lo, r.hi, _multiplicity_of(r, factors)))
    return out


def _multiplicity_of(r: IsolatedRoot, factors: list[tuple[Poly, int]]) -> int:
    if r.exact:
        for f, m in factors:
            if sign_at(f, r.lo) == 0:
                return m
    else:
        for f, m in factors:
            if sign_at(f, r.lo) * sign_at(f, r.hi) < 0:
                return m
    raise AssertionError("isolated root does not belong to any square-free factor")
