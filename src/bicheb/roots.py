"""Certified real-root isolation for rational-coefficient polynomials.

Descartes bisection over exact arithmetic (Collins & Akritas 1976;
Rouillier & Zimmermann 2004).  A cell [a, b] carries an integer
polynomial q, a positive multiple of p(a + (b - a) x), whose roots in
(0, 1) are those of p in (a, b).  The sign variations of the
coefficients of (x + 1)^d q(1 / (x + 1)), the reversed q shifted by 1 in
integer additions, are at least that number of roots, counted with
multiplicity, and of the same parity (Descartes' rule of signs).  The
halves of a cell carry 2^d q(x / 2) and that polynomial shifted by 1.

The search starts from [-r, 0] and [0, r], where r is a power of two at
least Fujiwara's bound 2 max |a_(d-i) / a_d|^(1/i), so no root reaches
+-r.  A cell with no variation holds no root and is dropped; a cell with
one, and ends where p does not vanish, holds one root and is refined;
any other cell splits at its midpoint.  A midpoint where p vanishes is an
exact root, divided out of both halves.  So every cell is a cell
[k 2^e, (k+1) 2^e] of the one dyadic grid.

Descartes' count is never below the true one and has its parity, so the
search splits every cell that bisection on exact (Sturm) counts splits;
a cell it refines is that bisection's or lies inside it, and ``_climb``
maps one narrower than the width back up.

The result depends only on p and the root, never on r.  A rational root
comes out exactly.  An irrational one gets the largest dyadic cell, no
wider than the width, that holds no other root.  Two such cells share an
end, which is no root, when their roots lie within the width on either
side of it; each is then halved until it keeps clear of that end, so the
cells are disjoint.

A multiple root keeps two variations or more in every cell around it, or
is a split point where p' vanishes too.  So gcd(p, p') is taken once,
only on such an event: a constant one shows p square-free, and the
search goes on.  Otherwise Musser's algorithm splits p into square-free
factors with gcds and exact divisions of primitive integer polynomials,
the square-free part is isolated, and each root's multiplicity is read
off the factor it belongs to.

Every polynomial enters as the primitive integer vector ``Poly.ints``,
a positive multiple of it, so no conversion runs per call.

Isolating intervals are refined on the dyadic grid of the starting
interval (lo, hi): at level j its cells have width (hi - lo) / 2^j.
Refinement starts from a float root of p in (lo, hi), a Newton guess on
p scaled by a power of two, so that no coefficient overflows.  The guess
picks its cell at the level jw of the result; when the exact integer
values at that cell's ends have the same sign, the secant through them
picks another, at most twice.  A cell is taken only when the two exact
values have opposite signs, and a zero value is the exact root; floats
only guess.  Failing that, refinement starts from (lo, hi) itself.
From there it is quadratic interval refinement (QIR; Abbott 2006, Kerber
& Sagraloff 2011): from a cell at level j with N = 2^e subcells, the
secant through the exact integer values at the cell ends guesses the
subcell holding the root, and two exact signs certify it.  On success the
cell moves to level j + e and N becomes N^2; on failure N falls back to
its square root, and N = 2 is a plain bisection step.  The result is the
grid cell at the first level no wider than the requested width (a cell
found deeper is mapped up to it), or the exact root when it is rational,
so it is the interval that bisection on the same grid returns, whatever
the guess.  Rational roots come out exactly by the rational-root theorem:
a rational root of a primitive integer polynomial has a denominator
dividing the leading coefficient, so it is k/lead for an integer k.  Once
lead * (hi - lo) < 1 the interval holds at most one such point, which is
tested once; if it is not a root, the root is irrational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import ne

from .poly import Ints, Poly, _exact_quotient, _pseudo_remainder

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


def _signs(polys: list[Ints], x: Fraction):
    """The signs of the polys at x, lazily, on one list of powers."""
    num, pw = x.numerator, _powers(x.denominator, max(map(len, polys)) - 1)
    return (_sign_pw(p, num, pw) for p in polys)


def _sign(p: Ints, x: Fraction) -> int:
    return _sign_pw(p, x.numerator, _powers(x.denominator, len(p) - 1))


def sign_at(p: Poly, x: Fraction) -> int:
    """Exact sign of p(x)."""
    if not p:
        return 0
    return _sign(p.ints, Fraction(x))


def _derivative(a: Ints) -> Ints:
    """p' made primitive."""
    return _primitive([k * c for k, c in enumerate(a)][1:])


def sturm_chain(p: Poly) -> list[Ints]:
    """p, p' and the negated remainders, as primitive integer polynomials.

    Each element is a positive multiple of the classical chain's, so the
    signs and the root counts are the same; the last element is
    gcd(p, p') up to a constant.
    """
    return _sturm(p.ints)


def _sturm(a: Ints) -> list[Ints]:
    chain = [a, _derivative(a)]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _ceil_log2(a: int, b: int) -> int:
    """The least integer t with b 2^t >= a, for positive a and b."""
    t = a.bit_length() - b.bit_length()
    return t + (b << max(t, 0) < a << max(-t, 0))


def _root_bound(p: Ints) -> Fraction:
    """A power of two r with |z| < r for every complex root z of p.

    Fujiwara: |z| < 2M for M = max_i |a_(d-i) / a_d|^(1/i) > 0, and
    2^(e i) >= |a_(d-i) / a_d| iff e i >= t_i = _ceil_log2(|a_(d-i)|, |a_d|),
    so r = 2^(e+1) for the least e with e >= t_i / i for every i.
    """
    lead = abs(p[-1])
    e = [-(-_ceil_log2(abs(c), lead) // i) for i, c in enumerate(reversed(p[:-1]), 1) if c]
    return Fraction(2) ** (max(e) + 1) if e else Fraction(1)  # else p = a_d x^d


def _gcd(a: Ints, b: Ints) -> Ints:
    """gcd by the primitive remainder sequence, up to sign."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


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
            out.append((f, i))
        g, w, i = _exact_quotient(g, y), y, i + 1
    return out


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Pairwise-coprime monic square-free factors of p with multiplicity."""
    if not p:
        raise ValueError("zero polynomial")
    a = p.ints
    return [
        (Poly([Fraction(c, f[-1]) for c in f]), m) for f, m in _squarefree(a, _gcd(a, _derivative(a)))
    ]


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
        """The midpoint, correctly rounded by one integer division."""
        (a, b), (c, d) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        return (a * d + c * b) / (2 * b * d)

    def __repr__(self):
        if self.exact:
            return f"Root({self.lo}, mult={self.multiplicity})"
        return f"Root(({self.lo}, {self.hi}), mult={self.multiplicity})"


def noroot_signs(lo: Fraction, hi: Fraction, *polys: Poly) -> list[int]:
    """The signs of the (nonzero) polys at a point of (lo, hi) where none
    of them vanishes."""
    ints = [p.ints for p in polys]
    for x in _probes(lo, hi):
        signs = list(itertools.takewhile(bool, _signs(ints, x)))
        if len(signs) == len(ints):
            return signs


def _probes(lo: Fraction, hi: Fraction):
    """Candidate points of (lo, hi), in the order they are tried."""
    span = hi - lo
    probes = (lo + span / den for den in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    grid = (lo + span * Fraction(j, 1009) for j in itertools.count(1))
    return itertools.chain(probes, grid)


def _value_dyadic(q: Ints, num: int, j: int) -> int:
    """2^(j deg) q(num / 2^j): homogenised Horner with shifts for the powers."""
    acc, shift = q[-1], 0
    for c in q[-2::-1]:
        shift += j
        acc = acc * num + (c << shift)
    return acc


def _dyadic(k: int, e: int) -> Fraction:
    """k 2^e."""
    return Fraction(k << e) if e >= 0 else Fraction(k, 1 << -e)


def _float_root(p: Ints, lo: Fraction, hi: Fraction) -> float:
    """A float root of p in (lo, hi), across which it changes sign:
    ``_newton_root`` on p scaled by a power of two (``_scaled_floats``).
    Only a guess, NaN when the floats overflow."""
    try:
        a, b = float(lo), float(hi)
    except OverflowError:
        return math.nan
    return _newton_root(_scaled_floats(p)[1], a, b)


def _scaled_floats(p: Ints) -> tuple[int, list[float]]:
    """(shift, f): p's coefficients shifted right by shift bits, so that the
    largest fits in 64 bits, as floats in descending order."""
    shift = max(max(abs(c).bit_length() for c in p) - 64, 0)
    return shift, [float(c >> shift) for c in reversed(p)]


def _newton_root(f: list[float], a: float, b: float) -> float:
    """A float root in (a, b) of the descending coefficient list f, which
    changes sign across it: Newton steps, bisecting when one leaves the
    bracket, until a step is below float precision or no float is left
    inside the bracket.  Only a guess."""
    fa = _value_and_slope(f, a)[0]
    x = (a + b) / 2
    for _ in range(60):  # a cap: 60 halvings exhaust a float's precision
        fx, dfx = _value_and_slope(f, x)
        if (fx < 0) == (fa < 0):
            a = x
        else:
            b = x
        step = fx / dfx if dfx else math.inf
        if abs(step) <= 1e-15 * abs(x):
            return x - step
        mid = (a + b) / 2
        if not a < mid < b:  # x is an end of the collapsed bracket
            return x
        x = x - step if a < x - step < b else mid
    return x


def _value_and_slope(f: list[float], x: float) -> tuple[float, float]:
    """The value and the derivative at x of the descending coefficient list
    f, by one Horner loop."""
    v = d = 0.0
    for c in f:
        d = d * x + v
        v = v * x + c
    return v, d


def _guess_cell(q: list[int], a0: int, W: int, den: int, j: int, x: float):
    """(c, va, vb): a cell c at level j near the float x, with the values
    va, vb of q at its ends of opposite signs or one of them zero; None
    when none is found.

    The cell holding x comes first; while the values at a cell's ends have
    one sign, the secant through them picks the cell where it meets zero,
    twice at most.  Raises ValueError or OverflowError when x is NaN or
    infinite.
    """
    xn, xd = x.as_integer_ratio()
    c = ((xn * den - a0 * xd) << j) // (W * xd)
    values = {}  # the values of q at the grid points a0 2^j + k W, by k
    for _ in range(3):
        if not 0 <= c < 1 << j:
            return None
        for k in (c, c + 1):
            if k not in values:
                values[k] = _value_dyadic(q, (a0 << j) + k * W, j)
        va, vb = values[c], values[c + 1]
        if not va or not vb or (va > 0) != (vb > 0):
            return c, va, vb
        if va == vb:
            return None
        c += va // (va - vb)
    return None


def _refine(p: Ints, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a simple root; may land exactly.

    Requires p(lo) and p(hi) nonzero of opposite signs.  Cell c at level
    j is (a0 2^j + c W, a0 2^j + (c+1) W) / (den 2^j), with
    lo = a0/den and W = (hi - lo) den.  The result is the cell at level jw,
    the first no wider than width, or the exact root when it is rational.
    QIR starts from the level-jw cell that ``_guess_cell`` certifies around
    ``_float_root``'s guess, else from level 0; it runs to max(jw, jt),
    where jt is the first level with lead * W < den 2^j, tests the one
    candidate k/lead at the first level it reaches past jt, and maps its
    final cell up to level jw.
    """
    lead = abs(p[-1])
    den = math.lcm(lo.denominator, hi.denominator)
    a0 = lo.numerator * (den // lo.denominator)
    W = hi.numerator * (den // hi.denominator) - a0
    # p(t / (den 2^j)) has the sign of q(t / 2^j), q_k = p_k den^(deg - k);
    # values at one level share the positive factor (den 2^j)^deg
    q = [c * w for c, w in zip(p, reversed(_powers(den, len(p) - 1)))] + [p[-1]]
    deg = len(p) - 1
    jw = max(0, _ceil_log2(W * width.denominator, den * width.numerator))
    jt = max(0, _ceil_log2(lead * W + 1, den))
    target = max(jw, jt)
    try:
        guess = _guess_cell(q, a0, W, den, jw, _float_root(p, lo, hi))
    except (OverflowError, ValueError):  # the guess is infinite or NaN
        guess = None
    if guess is None:
        j = c = 0
        va, vb = _value_dyadic(q, a0, 0), _value_dyadic(q, a0 + W, 0)
    else:
        j, (c, va, vb) = jw, guess
        if not va or not vb:  # the end of the cell where q vanishes is the root
            x = Fraction((a0 << j) + (c + (not vb)) * W, den << j)
            return x, x
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


class _NotSquarefree(ValueError):
    """Raised by ``_descartes`` when p has a multiple root; g = gcd(p, p')."""

    def __init__(self, g: Ints):
        super().__init__("polynomial has a multiple root")
        self.g = g


def _check_squarefree(p: Ints) -> None:
    g = _gcd(p, _derivative(p))
    if len(g) > 1:
        raise _NotSquarefree(g)


def _taylor_shift(q: list[int]) -> list[int]:
    """q(x + 1): each pass of running sums over the coefficients, from the
    top, leaves the next coefficient of q(x + 1), from x^0 up, last."""
    out, a = [], q[::-1]
    while a:
        a = list(accumulate(a))
        out.append(a.pop())
    return out


def _descartes_bound(q: list[int]) -> int:
    """Descartes' bound on the roots of q in (0, 1), cut at 2: 0 or 1 only
    when q has exactly that many roots there, with q nonzero at 0 and 1.

    By Descartes' rule of signs the sign variations of a polynomial's
    coefficients are at least its positive roots, counted with
    multiplicity, and of the same parity.  Fewer than two variations of q
    itself count its roots in (0, infinity), and its signs at 0 and 1 tell
    whether the one lies in (0, 1).  Otherwise the bound is min(V, 2) for
    V the variations of (x + 1)^d q(1 / (x + 1)), whose coefficients are
    those of ``_taylor_shift`` on q reversed: its passes run on q itself,
    one coefficient each, and stop once two variations are seen.
    """
    signs = [c > 0 for c in q if c]
    count = sum(map(ne, signs, signs[1:]))
    if count < 2:  # as many roots in (0, infinity), by the same rule on q
        return count and int((q[0] > 0) != (sum(q) > 0))
    count = sign = 0
    a = q
    while a:
        a = list(accumulate(a))
        c = a.pop()
        if c:
            if sign and (c > 0) != (sign > 0):
                count += 1
                if count == 2:
                    return 2
            sign = c
    return count


def isolate_squarefree(p: Poly, width: Fraction = DEFAULT_WIDTH) -> list[IsolatedRoot]:
    """Isolating intervals for the distinct real roots of a square-free p.

    Returned intervals are pairwise disjoint and each contains exactly
    one root; exact rational roots come out as point intervals.  A p with
    a multiple real root raises ValueError.
    """
    if not p:
        raise ValueError("zero polynomial")
    return _descartes(p.ints, width)


def _descartes(p: Ints, width: Fraction) -> list[IsolatedRoot]:
    """isolate_squarefree on integers, by Descartes bisection of [-r, 0]
    and [0, r] on the dyadic grid.

    Raises _NotSquarefree when the descent meets a multiple root: a root
    at a split point that is also a root of p', or a cell narrower than
    the width with two sign variations or more, on which gcd(p, p') is
    taken once.
    """
    r = _root_bound(p)
    t = r.numerator.bit_length() - r.denominator.bit_length()  # r = 2^t
    narrow = _ceil_log2(width.numerator, width.denominator)  # 2^e < width iff e < narrow
    out, low, squarefree = [], False, False  # low: a cell was refined that may climb
    b = list(p)
    zero = not b[0]
    if zero:  # p(0) = 0: divide the root out of both first cells
        out.append(IsolatedRoot(Fraction(0), Fraction(0)))
        del b[0]
        if not b[0]:
            _check_squarefree(p)  # raises: x^2 divides p
    d = len(b) - 1
    right = [c << (t * i if t >= 0 else -t * (d - i)) for i, c in enumerate(b)]  # b(2^t x)

    def flip(v):  # v(-x)
        return [-c if i & 1 else c for i, c in enumerate(v)]

    # (k, e, q, zl, zr) for the cell [k 2^e, (k+1) 2^e]: q is a positive
    # multiple of p((k + x) 2^e), divided by the roots found at the ends,
    # and zl, zr tell whether p vanishes at the left and the right end
    stack = [(0, t, right, zero, False), (-1, t, flip(_taylor_shift(flip(right))), False, zero)]
    while stack:
        k, e, q, zl, zr = stack.pop()
        v = _descartes_bound(q)
        if not v:
            continue
        if v == 1 and not (zl or zr):
            out.append(IsolatedRoot(*_refine(p, _dyadic(k, e), _dyadic(k + 1, e), width)))
            low = low or e < narrow
            continue
        if v > 1 and e < narrow and not squarefree:
            _check_squarefree(p)
            squarefree = True
        d = len(q) - 1
        lq = [c << (d - i) for i, c in enumerate(q)]  # 2^d q(x / 2): the left half
        rq = _taylor_shift(lq)  # the right half
        k, e = 2 * k, e - 1  # split at the midpoint (k+1) 2^e of the children
        zm = not rq[0]
        if zm:
            out.append(IsolatedRoot(_dyadic(k + 1, e), _dyadic(k + 1, e)))
            del rq[0]  # rq / x
            if not rq[0]:
                _check_squarefree(p)  # raises: p' vanishes at the midpoint too
            lq = list(accumulate(lq[::-1]))[-2::-1]  # lq / (x - 1), by synthetic division
        stack.append((k + 1, e, rq, zm, zr))
        stack.append((k, e, lq, zl, zm))
    out.sort(key=lambda r: (r.lo, r.hi))
    for i, r in enumerate(out if low else ()):
        if not r.exact:
            below = out[i - 1] if i else None
            above = out[i + 1] if i + 1 < len(out) else None
            out[i] = _climb(r, below, above, width)
    # neighbouring cells share an end, which is no root, when their roots
    # lie within the width on either side of it: halve each such cell until
    # it keeps clear of the shared end
    cells = [r for r in out if not r.exact]
    shared = {r.hi for r in cells} & {r.lo for r in cells}
    for i, r in enumerate(out):
        while r.lo in shared or r.hi in shared:
            r = out[i] = IsolatedRoot(*_refine(p, r.lo, r.hi, (r.hi - r.lo) / 2))
    return out


def _climb(r: IsolatedRoot, below, above, width: Fraction) -> IsolatedRoot:
    """The cell a refined cell r is mapped up to: r itself unless r is at
    most half the width wide.

    Descartes' bound is at least the number of roots and of the same
    parity, so it splits every cell that bisection on exact root counts
    splits, and may keep a cell below the one such bisection keeps: the
    first ancestor whose closed cell holds one root and no root at its
    ends, from which ``_refine`` returns the ancestor at the first level
    no wider than the width, or that ancestor itself.  So r climbs while
    its parent is no wider than the width and holds neither the cell nor
    the point of its neighbours below and above in the sorted results.
    Those, and every other result, are dyadic cells or points nested in
    an ancestor of r or apart from it, so the nearest ones decide.
    """
    lo, hi = r.lo, r.hi
    while 2 * (hi - lo) <= width:
        w = 2 * (hi - lo)
        a = lo // w * w
        if below and (below.hi > a or below.exact and below.hi == a):
            break
        if above and (above.lo < a + w or above.exact and above.lo == a + w):
            break
        lo, hi = a, a + w
    return IsolatedRoot(lo, hi)


def real_roots(p: Poly, width: Fraction = DEFAULT_WIDTH) -> list[IsolatedRoot]:
    """All distinct real roots of p, with multiplicity.

    p is isolated as if square-free.  When the isolation meets a multiple
    root, the square-free part p / gcd(p, p') is isolated instead (so
    intervals are disjoint by construction) and each root's multiplicity
    is read off the square-free factor it belongs to.
    """
    if not p:
        raise ValueError("zero polynomial")
    a = p.ints
    try:
        return _descartes(a, width)
    except _NotSquarefree as e:
        g = e.g
    factors = _squarefree(a, g)
    plain = _descartes(_exact_quotient(a, g), width)
    return [IsolatedRoot(r.lo, r.hi, _multiplicity_of(r, factors)) for r in plain]


def _multiplicity_of(r: IsolatedRoot, factors: list[tuple[Ints, int]]) -> int:
    polys = [f for f, _ in factors]
    if r.exact:
        for (_, m), s in zip(factors, _signs(polys, r.lo)):
            if not s:
                return m
    else:
        for (_, m), a, b in zip(factors, _signs(polys, r.lo), _signs(polys, r.hi)):
            if a * b < 0:
                return m
    raise AssertionError("isolated root does not belong to any square-free factor")
