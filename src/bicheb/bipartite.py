"""Construction and verification of bipartite Chebyshev polynomials.

A degree-s polynomial u = a_0 + a_2 x^2 + ... + a_s x^s is attached to a
monic quartic p = x^4 + c1 x^3 + c2 x^2 + c3 x + c4 through the identity

    s^2 x^2 (u^2 -+ m^2) = p(x) u'(x)^2      (- circular, + hyperbolic)

Dividing by x^2 and differentiating turns the identity into a linear
ODE whose coefficient comparison yields a descending recurrence for the
a_k.  Solvability over a given quartic needs two exact conditions:

  * F_1(c) = 0   -- the recurrence value that would land on the banned
                    linear coefficient a_1;
  * aux(c) = c3*F_2 + 3*c4*F_3 = 0  -- vanishing of the x^-1 Laurent
                    coefficient of the divided ODE (equivalently the x^3
                    matching of the undivided identity).

The second condition is easy to miss because it only shows up in the
negative-power tail; a counterexample with F_1 = 0 but aux != 0 is
(s=2, c = (0,-3,1,1)).  Both conditions are enforced here and the full
identity is re-verified exactly after every construction.

The discriminant d = s^2 F_0^2 - 4 c4 F_2^2 selects the branch: d > 0
circular (lines y = +-m with m^2 = d/s^2), d < 0 hyperbolic, d = 0
logarithmic (m = 0).

The decision runs the recurrence for every divisor of n, so it runs on
integers: with D the lcm of the quartic's denominators, a_k = A_k / Q_k
over denominators Q_k = prod_{j=k}^{s-1} e_j, where each step's factor
e_k divides 2 D (s^2 - k^2) and keeps only what that step's numerator
does not cancel.  Only F_1, aux and d become Fractions; the coefficients
a_k are built on demand, for the divisor a construction selects.  The
same run, uncancelled and at a packed point, gives F_1 as a polynomial in
one coefficient (``f1_polynomial``) for completion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .partitions import FkTable, _counts, fk_table_by_recurrence
from .poly import Poly, _chebyshev_ladder, _normal, _pack, _unpack, horner
from .roots import (
    DEFAULT_WIDTH, IsolatedRoot, _dyadic, _newton_root, _primitive, _refine, _scaled_floats, _sign,
    _value_dyadic, real_roots,
)
from .scalars import is_square, rational_sqrt, reconstruct_rational


class Branch(str, Enum):
    CIRCULAR = "circular"
    HYPERBOLIC = "hyperbolic"
    LOGARITHMIC = "logarithmic"


class ConditionsNotMet(ValueError):
    """Raised when F_1 or the auxiliary condition is nonzero."""

    def __init__(self, s: int, cond: Conditions):
        self.s, self.f1, self.aux = s, cond.f1, cond.aux
        failed = [name for name, v in (("F_1", cond.f1), ("aux", cond.aux)) if v != 0]
        super().__init__(
            f"s={s}: condition(s) {', '.join(failed)} nonzero "
            f"(F_1={cond.f1}, aux={cond.aux})"
        )


class IdentityResidualNonzero(AssertionError):
    """Internal guard: the defining identity failed after conditions held."""


class EvenOuterOnHyperbolic(ValueError):
    """Hyperbolic composition requires an odd outer degree."""


class InvalidBranchIndex(ValueError):
    pass


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients (c1, c2, c3, c4) of the monic quartic x^4 + c1 x^3 + ..."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction

    @staticmethod
    def of(c1, c2, c3, c4) -> "QuarticCoeffs":
        return QuarticCoeffs(Fraction(c1), Fraction(c2), Fraction(c3), Fraction(c4))

    @staticmethod
    def from_list(vals: Sequence) -> "QuarticCoeffs":
        if len(vals) != 4:
            raise ValueError("expected exactly four coefficients c1,c2,c3,c4")
        return QuarticCoeffs.of(*vals)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3, self.c4)

    def poly(self) -> Poly:
        return Poly((self.c4, self.c3, self.c2, self.c1, Fraction(1)))


# largest inner degree s a command accepts (fk, construct and perturb --s,
# complete's divisor): at s = 60 fk prints 3 MB of text in about 0.2 s (15 MB
# of JSON in about 1.5 s); time and size grow faster than s^4 beyond it
FK_MAX_S = 60

# largest n that decide and complete scan: a prime n runs the recurrence at
# s = n, in time and memory that grow as n^2 (0.3 s at n = 4000)
SCAN_MAX_N = 5040
# largest n whose closed form is built: decide --n 240 on x^4 - 3x^2 - 5
# takes about 0.5 s and prints 4 MB, G of degree n once per piece; time and
# size grow faster than n^2 (about 2 s and 13 MB at n = 360)
COMPOSE_MAX_N = 240


@lru_cache(maxsize=64)
def fk_table(s: int) -> FkTable:
    return fk_table_by_recurrence(s)


def coefficients_from_recurrence(s: int, c: QuarticCoeffs):
    """Inner coefficients a_0..a_s (a_s = 1, a_1 = 0) plus the F_1 value.

    Exact rational values, read from conditions(s, c).
    """
    cond = conditions(s, c)
    return list(cond.a), cond.f1


def _recurrence(s: int, cvals: Sequence):
    """The recurrence on any field's values: the float tracker's route, and
    the reference the integer route in conditions() is tested against."""
    zero = cvals[0] * 0
    a = [zero] * (s + 4)
    a[s] = zero + 1
    f1 = zero

    def step(k):
        acc = zero
        for i in range(1, 5):
            acc += (k + i) * (2 * k + i) * cvals[i - 1] * a[k + i]
        return acc / (2 * (s * s - k * k))

    for k in range(s - 1, -1, -1):
        if k == 1:
            f1 = step(1)
            a[1] = zero  # pinned: the inner polynomial has no linear term
        else:
            a[k] = step(k)
    return a[: s + 1], f1


@dataclass(frozen=True)
class Conditions:
    """One run of the recurrence for a divisor s and the values it decides.

    f1 and aux must both vanish for a solution to exist, and the sign of
    the discriminant d selects its branch.  The run is kept as integers:
    a_k = nums[k] / dens[k], where dens[k] = Q_k = prod_{j=k}^{s-1} e_j with
    the factors e_j = 2 D (s^2 - j^2) / g_j, D the lcm of the quartic's
    denominators and g_j the gcd that step j cancelled (see ``_run``).
    dens and the inner coefficients a (a_0..a_s, a_s = 1, a_1 = 0) are
    built on first access, which only the selected divisor's construction
    does.
    """

    f1: Fraction
    aux: Fraction
    d: Fraction
    nums: tuple[int, ...] = field(repr=False)
    factors: tuple[int, ...] = field(repr=False)

    @property
    def met(self) -> bool:
        return self.f1 == 0 and self.aux == 0

    @cached_property
    def dens(self) -> tuple[int, ...]:
        q = [1]
        for e in reversed(self.factors):
            q.append(q[-1] * e)
        return tuple(reversed(q))

    @cached_property
    def a(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.nums, self.dens))


def _run(s: int, C: Sequence[int], D: int, *, cancel: bool = False
         ) -> tuple[list[int], list[int], int]:
    """The recurrence on the cleared coefficients C_i = c_i * D.

    Returns the factors e_j, the numerators A_k over Q_k = prod_{j=k}^{s-1}
    e_j, with A_1 pinned to 0, and F_1's numerator over Q_1, the k = 1 value
    before the pin.  Each step computes

        R_k = sum_i (k+i)(2k+i) C_i A_{k+i} prod_{j=k+1}^{k+i-1} e_j,

    so a_k = R_k / (2 D (s^2 - k^2) Q_{k+1}).  By default no step reduces:
    A_k = R_k and e_k = 2 D (s^2 - k^2).  With cancel, each step divides
    g = gcd(R_k, 2 D (s^2 - k^2)) out of both, as in Bareiss's exact-division
    elimination: A_k = R_k / g and e_k = 2 D (s^2 - k^2) / g, the factor
    later steps multiply by (a zero R_k gives e_k = 1).  ``conditions``
    cancels; ``f1_polynomial``'s packed run cannot (see there).
    """
    if s < 2:
        raise ValueError("inner degree s must be at least 2")
    C1, C2, C3, C4 = C
    e = [D * 2 * (s * s - j * j) for j in range(s + 3)]
    A = [0] * (s + 4)
    A[s] = 1
    for k in range(s - 1, -1, -1):
        # the sum in Horner form over the factors e_{k+1}, e_{k+2}, e_{k+3}
        acc = (k + 4) * (2 * k + 4) * C4 * A[k + 4]
        acc = (k + 3) * (2 * k + 3) * C3 * A[k + 3] + e[k + 3] * acc
        acc = (k + 2) * (2 * k + 2) * C2 * A[k + 2] + e[k + 2] * acc
        A[k] = (k + 1) * (2 * k + 1) * C1 * A[k + 1] + e[k + 1] * acc
        if cancel:
            g = math.gcd(A[k], e[k])
            A[k] //= g
            e[k] //= g
        if k == 1:
            f1_num = A[1]
            A[1] = 0  # pinned: the inner polynomial has no linear term
    return e, A, f1_num


def conditions(s: int, c: QuarticCoeffs) -> Conditions:
    """Run the recurrence once and evaluate the conditions on it.

    aux = c3*F_2 + 3*c4*F_3 (F_3 = 0 when s = 2) and d = s^2 F_0^2 - 4 c4 F_2^2.
    The recurrence runs on integers and cancels each step's factor
    (``_run``), so Q_1 keeps little more than F_1's reduced denominator;
    F_1, aux and d are the only Fractions made, and they need only Q_2,
    Q_1 = Q_2 e_1 and Q_0 = Q_1 e_0.
    """
    D = math.lcm(*(v.denominator for v in c.as_tuple()))
    C = [v.numerator * (D // v.denominator) for v in c.as_tuple()]
    e, A, f1_num = _run(s, C, D, cancel=True)
    _, _, C3, C4 = C
    Q2 = math.prod(e[2:s])
    Q1 = Q2 * e[1]
    Q0 = Q1 * e[0]
    r = e[1] * e[0]  # Q_0 / Q_2
    aux = Fraction(C3 * A[2] + 3 * C4 * A[3] * e[2], D * Q2)
    d = Fraction(s * s * D * A[0] ** 2 - 4 * C4 * (A[2] * r) ** 2, D * Q0**2)
    return Conditions(Fraction(f1_num, Q1), aux, d, tuple(A[: s + 1]), tuple(e[:s]))


def f1_polynomial(s: int, target: int, fixed: dict[int, Fraction]) -> Poly:
    """F_1 as a polynomial in c_<target>, the other three coefficients fixed.

    With D the lcm of the fixed denominators and t = c_<target>, F_1's
    numerator over Q_1 is an integer polynomial N(t), and one ``_run`` with
    C_target = D t packs it (Kronecker substitution).  Every factor of the
    recurrence is positive, so the run on |C_i| with t = 1 gives a bound B
    on every |coefficient| of N; at t = 2^w, with w = B.bit_length() + 1
    rounded up to whole bytes, each coefficient fills its own w-bit slot,
    and ``poly._unpack`` reads it back as a signed digit.  A value of m
    such digits, the top one nonzero, has w (m - 1) to w m - 1 bits, so
    |N(2^w)|.bit_length() // w + 1 counts them.  The run does not cancel
    (unlike ``conditions``): a step's value here packs a polynomial in t,
    and a common factor of that value and 2 D (s^2 - k^2) need not divide
    every coefficient, so dividing it out would corrupt the digits.
    """
    c = [Fraction(1 if k == target else fixed[k]) for k in range(1, 5)]  # t = 1
    D = math.lcm(*(v.denominator for v in c))
    C = [v.numerator * (D // v.denominator) for v in c]
    w = (_run(s, [abs(v) for v in C], D)[2].bit_length() + 8) & ~7  # whole bytes
    C[target - 1] = D << w
    e, _, packed = _run(s, C, D)
    digits = _unpack(packed, w, packed.bit_length() // w + 1)
    return Poly(digits).scale(Fraction(1, math.prod(e[1:s])))


def branch_of(d) -> Branch:
    if d > 0:
        return Branch.CIRCULAR
    if d < 0:
        return Branch.HYPERBOLIC
    return Branch.LOGARITHMIC


UNIT_LEADING = "unit-leading"
UNIT_AMPLITUDE = "unit-amplitude"


@dataclass(frozen=True)
class BipartiteSolution:
    """A verified inner polynomial with its branch data.

    The data is always unit-leading: a_s = 1, every a_k rational and
    m^2 = |d| / s^2.  Unit-amplitude (m = 1) is a way of printing it: the
    same u scaled by lambda = s / sqrt(|d|) > 0 (see ``shown_a``).
    """

    s: int
    c: QuarticCoeffs
    a: tuple[Fraction, ...]
    m2: Fraction
    d: Fraction
    branch: Branch
    normalization: str
    residual_zero = True  # build_solution raises IdentityResidualNonzero otherwise

    @cached_property
    def u(self) -> Poly:
        return Poly(self.a)

    def residual(self) -> Poly:
        """s^2 x^2 (u^2 -+ m^2) - p u'^2; the zero polynomial for valid data."""
        return identity_residual(self.u, "g", self.c.poly(), self.s, self.m2, self.branch)

    def shown_a(self) -> tuple:
        """The printed coefficients: a_k, or amplitude_coeff(a_k) under unit-amplitude."""
        if self.normalization == UNIT_LEADING:
            return self.a
        return tuple(amplitude_coeff(ak, self.s, self.d) for ak in self.a)

    def shown_m2(self) -> Fraction:
        return self.m2 if self.normalization == UNIT_LEADING else Fraction(1)

    def u_text(self) -> str:
        """u as ``construct`` prints it: shown_a in the layout of Poly.format."""
        shown = self.shown_a()
        if all(isinstance(v, Fraction) for v in shown):
            return Poly(shown).format()
        parts = []
        for k in range(self.s, -1, -1):
            ak = self.a[k]
            if ak:
                body = amplitude_coeff(abs(ak), self.s, self.d)
                body += "" if k == 0 else "*x" if k == 1 else f"*x^{k}"
                sign = ("- " if ak < 0 else "+ ") if parts else ("-" if ak < 0 else "")
                parts.append(sign + body)
        return " ".join(parts)

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "c": [str(v) for v in self.c.as_tuple()],
            "a": [str(v) for v in self.shown_a()],
            "m2": str(self.shown_m2()),
            "d": str(self.d),
            "branch": self.branch.value,
            "normalization": self.normalization,
            "residual_zero": self.residual_zero,
        }


def amplitude_coeff(ak: Fraction, s: int, d: Fraction) -> Fraction | str:
    """lambda * a_k with lambda = s / sqrt(|d|), exact, for printing.

    A Fraction when |d| is a rational square; otherwise
    lambda * a_k = (a_k s / |d|) sqrt(|d|), written "(0 + b*sqrt(|d|))",
    or "0" when a_k = 0.
    """
    rad = abs(d)
    if is_square(rad):
        return ak * s / rational_sqrt(rad)
    return f"(0 + {ak * s / rad}*sqrt({rad}))" if ak else "0"


def build_solution(
    s: int, c: QuarticCoeffs, normalization: str = UNIT_LEADING
) -> BipartiteSolution:
    """Construct and exactly verify the inner polynomial for (s, c).

    Requires F_1(c) = 0 and aux(c) = 0 exactly; raises ConditionsNotMet
    otherwise.  The defining identity is then re-checked with zero
    tolerance; IdentityResidualNonzero is unreachable when the
    preconditions hold and exists as an internal consistency guard.

    The check always runs on the rational unit-leading data (u, |d|/s^2),
    also under unit-amplitude.  That loses nothing: the identity
    s^2 x^2 (u^2 -+ m^2) - p u'^2 is homogeneous of degree 2 in (u, m), so
    residual(lambda u, 1) = lambda^2 residual(u, |d|/s^2) with
    lambda^2 = s^2/|d| a nonzero rational, and one vanishes exactly iff
    the other does.
    """
    cond = conditions(s, c)
    if not cond.met:
        raise ConditionsNotMet(s, cond)
    d = cond.d
    if normalization not in (UNIT_LEADING, UNIT_AMPLITUDE):
        raise ValueError(f"unknown normalization {normalization!r}")
    if normalization == UNIT_AMPLITUDE and d == 0:
        raise ValueError("unit-amplitude normalization undefined when d = 0")
    m2 = abs(d) / Fraction(s * s)
    sol = BipartiteSolution(s, c, cond.a, m2, d, branch_of(d), normalization)
    if sol.residual():
        raise IdentityResidualNonzero(
            f"internal error: nonzero residual for s={s}, c={c}"
        )
    return sol


def identity_residual(
    G: Poly, convention: str, p: Poly, n: int, m2, branch: Branch, q: Poly = Poly.x()
) -> Poly:
    """Residual n^2 q^2 (G^2 -+ M) - p G'^2 with M = m^2 or 1 per convention.

    convention "g": G is the composed polynomial itself (odd outer degree),
    M = m2.  convention "g-over-m": G = g/m (even outer degree), M = 1.
    The sign is + for the hyperbolic branch, - otherwise.  q = x is the
    quartic case; a general monic q gives the multipartite identity.

    The residual is a rational times one integer polynomial T, and one
    big-int evaluation of T decides whether it is zero.  With G = g I_G, p = c_p I_p and q = c_q I_q for primitive
    integer vectors, -+M / g^2 = -a/b in lowest terms and I_G' = [k I_G[k]],
    it is g^2 / (b e) T for

        T = A I_q^2 (b I_G^2 - a) - B I_p I_G'^2,

    A = n^2 c_q^2 e and B = b c_p e, with e the least positive integer
    making both integers.  No coefficient of T exceeds

        A |I_q|^2 (b |I_G|^2 + |a|) + B |I_p| |I_G'|^2

    in magnitude (|.| the sum of absolute values), so for a slot width w
    of whole bytes with 2^(w-1) above that bound, V = T(2^w) is exactly
    zero iff T is: a nonzero top coefficient t_d gives
    |V| >= 2^(w d) - (2^(w-1) - 1) (2^(w d) - 1) / (2^w - 1) > 0.  The same
    bound lets ``_unpack`` read T's coefficients from the slots of V.
    """
    if convention == "g":
        M = m2
    elif convention == "g-over-m":
        M = Fraction(1)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    g = G.content
    mu = (-M if branch is Branch.HYPERBOLIC else M) / (g * g)
    a, b = mu.numerator, mu.denominator
    r1, r2 = n * n * q.content**2, b * p.content
    e = math.lcm(r1.denominator, r2.denominator)
    A, B = r1.numerator * (e // r1.denominator), r2.numerator * (e // r2.denominator)
    IG, Ip, Iq = G.ints, p.ints, q.ints
    dG = [k * v for k, v in enumerate(IG)][1:]

    def l1(v) -> int:
        return sum(map(abs, v))

    bound = A * l1(Iq) ** 2 * (b * l1(IG) ** 2 + abs(a)) + B * l1(Ip) * l1(dG) ** 2
    w = (bound.bit_length() + 8) & ~7
    PG, PdG, Pq = _pack(IG, w), _pack(dG, w), _pack(Iq, w)
    V = A * Pq * Pq * (b * PG * PG - a) - B * _pack(Ip, w) * PdG * PdG
    if not V:
        return Poly.zero()
    return _normal(g * g / (b * e), _unpack(V, w, V.bit_length() // w + 1))


def compose_outer(u: Poly, m2, N: int, branch: Branch) -> tuple[Poly, str]:
    """Outer composition of degree N on an inner polynomial u.

    Returns (G, convention): G = g = m*T_N(u/m) when N is odd (rational
    coefficients even for irrational m), or G = g/m = T_N(u/m) when N is
    even; the logarithmic branch uses g = u^N.  H_N = m^N T_N(u/m) is a
    polynomial in u and M = m^2, built by the doubling ladder H_2k =
    2 H_k^2 - M^k, H_(2k+1) = 2 H_k H_(k+1) - M^k u (Lucas's V_k(2u, M)
    halved) on integer vectors scaled to clear u's content and M's
    denominator (``poly._chebyshev_ladder``), and G = H_N / m^(2 (N // 2))
    covers both conventions.  The hyperbolic branch demands odd N and gives
    g = m*S_N(u/m), S_N(y) = sinh(N arcsinh y): as T_N(i y) = (-1)^((N-1)/2)
    i S_N(y), it is H_N at M = -m^2 divided by (-m^2)^(N // 2), times
    (-1)^(N // 2), so again H_N / m^(2 (N // 2)).
    """
    if N < 1:
        raise ValueError("outer degree must be positive")
    if branch is Branch.LOGARITHMIC:
        return u ** N, "g"
    if branch is Branch.HYPERBOLIC and N % 2 == 0:
        raise EvenOuterOnHyperbolic(
            f"outer degree {N} is even; the hyperbolic family needs n/s odd"
        )
    M = -m2 if branch is Branch.HYPERBOLIC else m2
    return _chebyshev_ladder(u, M, N), "g" if N % 2 == 1 else "g-over-m"


# cuts answers an irrational root of G' with its cell of the dyadic grid of
# step 2^-GRID = DEFAULT_WIDTH, the cell real_roots isolates it in
GRID = DEFAULT_WIDTH.denominator.bit_length() - 1
# the y_k are enclosed in fixed point with unit 2^-YBITS
YBITS = 160
# pi in [_PI, _PI + 1] 2^-256
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89


class _Undecided(Exception):
    """The cut finder cannot certify an answer; ``cuts`` falls back."""


def cuts(u: Poly, m2, N: int) -> list[IsolatedRoot]:
    """The points where sigma flips, for G = compose_outer(u, m2, N,
    Branch.CIRCULAR)[0]: the real roots of G' of odd multiplicity but 0, in
    the cells real_roots(G') gives them.

    G' is a nonzero constant times u' W(u), where W = m^(N-1) U_(N-1)(y/m)
    = m^(N-1) T_N'(y/m) / N has the N - 1 distinct roots y_k = m cos(k
    pi/N).  So the real roots of G' are those of u', isolated on their own
    (degree s - 1), and the solutions of u = y_k; neither G' nor W is
    built.  The identity p u'^2 = s^2 x^2 (u^2 - m^2) makes each of them
    simple but 0: a nonzero root c of u' is simple and has u(c) = +-m,
    never a y_k.  x = 0, a root of u' as a_1 = 0, is no cut, since x
    changes sign there too.

    Every y_k, exact where it is rational and otherwise in an integer
    enclosure (``_outer_values``), has its solutions certified on u by one
    sweep over u's monotone branches (``_crossings``): rational ones
    exact, the others in their grid cells.

    Each irrational root is then alone in its grid cell, the cell that
    real_roots isolates it in, unless two answers touch or overlap or a
    cell ends at 0.  Then, and whenever a y_k, a branch end or a grid point
    cannot be placed against an enclosure or a root is not certified
    (``_Undecided``), this keeps the odd roots of real_roots(G') but 0.
    """
    crit = real_roots(u.derivative())
    try:
        found = crit + _crossings(u, _outer_values(m2, N), _branch_ends(u, m2, crit))
        return _disjoint([r for r in found if r.lo or r.hi])
    except _Undecided:
        G = compose_outer(u, m2, N, Branch.CIRCULAR)[0]
        return [r for r in real_roots(G.derivative()) if r.multiplicity % 2 and (r.lo or r.hi)]


# cos^2(j pi/12) where it is rational.  By Niven's theorem cos(2 k pi/N) is
# rational only where 2 k pi/N is a multiple of pi/3 or pi/2, so
# y_k^2 = m^2 cos^2(k pi/N) is rational only at these j = 12 k/N
_RATIONAL_COS2 = {2: Fraction(3, 4), 3: Fraction(1, 2), 4: Fraction(1, 4)}


def _outer_values(m2, N: int) -> list[IsolatedRoot]:
    """The y_k = m cos(k pi/N), 0 < k < N, ascending, each in a cell.

    y_(N-k) = -y_k, so each cell is made once, for i = min(k, N - k), and
    y_(N/2) = 0 at even N.  m cos(i pi/N) is exact when it is rational: at
    the j = 12 i/N of _RATIONAL_COS2 where m^2 cos^2(i pi/N) is a rational
    square.  Every other one gets a cell of relative width about 2^-150 in
    integers: i pi/N, in (0, pi/2), lies in [x_lo, x_hi] 2^-YBITS by _PI,
    cos decreases there with slope at most 1, so cos(i pi/N) is below the
    upper bound of cos at x_lo and above its lower bound minus x_hi - x_lo
    (``_cos``); with m^2 = a/b in lowest terms, m = sqrt(a b) / b is in
    [M, M + 1] / (b 2^YBITS) for M = isqrt(a b 2^(2 YBITS)).  Raises
    _Undecided when two cells touch.
    """
    a, b = Fraction(m2).as_integer_ratio()
    M, shift, half = math.isqrt(a * b << 2 * YBITS), 256 - YBITS, []
    for i in range(1, (N + 1) // 2):
        j, rest = divmod(12 * i, N)
        c2 = None if rest else _RATIONAL_COS2.get(j)
        if c2 is not None and is_square(m2 * c2):
            lo = hi = rational_sqrt(m2 * c2)
        else:
            x_lo, x_hi = i * _PI // (N << shift), -(-i * (_PI + 1) // (N << shift))
            c_lo, c_hi = _cos(x_lo)
            lo = Fraction(M * (c_lo - (x_hi - x_lo)), b << 2 * YBITS)
            hi = Fraction((M + 1) * c_hi, b << 2 * YBITS)
        if half and half[-1].lo <= hi:
            raise _Undecided
        half.append(IsolatedRoot(lo, hi))
    if half and half[-1].lo <= 0:
        raise _Undecided
    zero = [IsolatedRoot(Fraction(0), Fraction(0))] if N % 2 == 0 else []
    return [IsolatedRoot(-r.hi, -r.lo) for r in half] + zero + half[::-1]


def _cos(X: int) -> tuple[int, int]:
    """(lo, hi) with lo < cos(x) 2^YBITS < hi at x = X 2^-YBITS, for
    0 <= x < 2.

    Term n of the series is T_n = x^(2n) / (2n)! in units of 2^-YBITS, and
    the sum takes t_0 = T_0 and t_n = floor(t_(n-1) x^2 / ((2n - 1) 2n)),
    one integer division, until t_n = 0.  Every truncated term is at most 2
    units low: t_n <= T_n, and with e_n = T_n - t_n, e_0 = 0 and r_n = x^2
    / ((2n - 1) 2n), e_n < r_n e_(n-1) + 1, so e_1 < 1 and, as r_n < 1/2
    for n >= 2, e_n < 2.  The tail after t_n = 0 alternates with terms
    decreasing from T_n < t_n + 2 = 2, so it is below 2 units too.  The
    sum C of n + 1 terms is therefore within 2 (n + 1) units.
    """
    X2, t = X * X, 1 << YBITS
    C, n = t, 0
    while t:
        n += 1
        t = t * X2 // ((2 * n - 1) * 2 * n << 2 * YBITS)
        C += -t if n % 2 else t
    return C - 2 * (n + 1), C + 2 * (n + 1)


def _branch_ends(u: Poly, m2, crit: list[IsolatedRoot]) -> list[tuple]:
    """The ends of u's branches, ascending: -R, the real roots of u' and R.

    Each is (lo, hi, v_lo, v_hi): the end lies in [lo, hi]
    and u there in [v_lo, v_hi].  R bounds the roots of every u - y with
    |y| <= m, and u is +-infinity there.  At an irrational root c of u' in
    the cell [lo, hi], u'(c) = 0 gives |u(lo) - u(c)| <= max |u''| (hi -
    lo)^2 / 2, and sum k (k-1) |a_k| r^(k-2), r = max(|lo|, |hi|), bounds
    |u''| on the cell.
    """
    lead, a = u.leading(), u.coeffs
    # Cauchy: every root of u - y has |x| <= 1 + max(|a_k|, |a_0 - y|) / |a_s|
    R = Fraction(math.ceil(1 + (max(map(abs, a[:-1])) + max(1, m2)) / abs(lead)))
    below = math.inf if lead * (-1) ** u.degree > 0 else -math.inf
    ends = [(-R, -R, below, below)]
    for r in crit:
        v = u(r.lo)
        e = 0
        if not r.exact:
            x = max(abs(r.lo), abs(r.hi))
            d2 = sum(k * (k - 1) * abs(c) * x ** (k - 2) for k, c in enumerate(a) if k > 1)
            e = d2 * (r.hi - r.lo) ** 2 / 2
        ends.append((r.lo, r.hi, v - e, v + e))
    above = math.inf if lead > 0 else -math.inf
    return ends + [(R, R, above, above)]


def _crossings(u: Poly, ys: list[IsolatedRoot], ends: list[tuple]) -> list[IsolatedRoot]:
    """The solutions of u = y_k for every y_k in the ascending, disjoint
    cells ys, in the cells real_roots(u - y_k) would give them.

    u is strictly monotone between consecutive ends of ``_branch_ends``.
    A binary search places each end's value among the cells: at 2 i above
    i of them and below the rest, at 2 i + 1 on the exact y_i, which only
    x = 0 may be (a double root of u - y_i, no cut).  A branch then holds
    one simple root of u - y_k for each k strictly between its ends'
    places, met in x order.  Each gets the grid cell [K, K+1] 2^-48 at
    whose ends the exact signs of u - y_k differ, read off u's integer
    value at a grid point (cached by K) against y_k's cell; a zero, at an
    exact y_k, is the root.  The search narrows [Ka, Kb], from the previous
    root's cell to the branch's end: it probes a float Newton guess
    (``_newton_root``) first, steps away by doubling strides and bisects
    once a stride leaves the bracket, so a wrong guess costs time, never a
    different answer.  At an exact y_k ``_exact_root`` finds a rational
    root in its cell.  A value that meets y_k's cell raises _Undecided.
    """
    ints, (cn, cd), scale = u.ints, u.content.as_integer_ratio(), 1 << GRID
    shift, f = _scaled_floats(ints)
    # at x = K 2^-48, u(x) = cn V / (cd 2^(48 deg)) for V = _value_dyadic(ints, K, GRID)
    values: dict[int, int] = {}
    # (ln, ld, hn, hd) by k: u(x) <= y_k.lo iff V ld <= ln, u(x) >= y_k.hi iff V hd >= hn
    bounds, floats, exact = [], [], [y.exact for y in ys]
    for y in ys:
        (ln, ld), (hn, hd) = y.lo.as_integer_ratio(), y.hi.as_integer_ratio()
        bounds.append(((ln * cd) << GRID * u.degree, ld * cn, (hn * cd) << GRID * u.degree, hd * cn))
        try:  # u - y_k scaled as f is, for the guess
            floats.append(f[:-1] + [f[-1] - (hn * cd) / ((hd * cn) << shift)])
        except OverflowError:
            floats.append(f[:-1] + [math.nan])

    def side(k: int, K: int) -> int:
        """The sign of u - y_k at K 2^-48."""
        V = values.get(K)
        if V is None:
            V = values[K] = _value_dyadic(ints, K, GRID)
        ln, ld, hn, hd = bounds[k]
        low = V * ld - ln
        if exact[k]:
            return (low > 0) - (low < 0)
        if low <= 0:
            return -1
        if V * hd >= hn:
            return 1
        raise _Undecided

    his = [y.hi for y in ys]

    def place(lo, hi, v_lo, v_hi) -> int:
        i = bisect_left(his, v_lo)  # the cells with hi < v_lo
        if i < len(ys) and not exact[i] and his[i] == v_lo:
            i += 1
        if i == len(ys) or v_hi < ys[i].lo or v_hi == ys[i].lo and not exact[i]:
            return 2 * i
        if exact[i] and v_lo == v_hi == ys[i].lo and lo == hi == 0:
            return 2 * i + 1
        raise _Undecided

    out = []
    places = [place(*end) for end in ends]
    for (_, a, *_), (b, *_), pa, pb in zip(ends, ends[1:], places, places[1:]):
        sa, ks = (-1, range((pa + 1) // 2, pb // 2)) if pa < pb else (1, range(pa // 2 - 1, (pb - 1) // 2, -1))
        Ka, Kb = (_grid_key(a) + 1) // 2, _grid_key(b) // 2  # the grid points in [a, b]
        for k in ks:
            lo, hi = Ka, Kb  # u - y_k has the sign sa at lo and -sa at hi
            if lo >= hi or side(k, lo) != sa or side(k, hi) != -sa:
                raise _Undecided
            try:
                K = math.floor(_newton_root(floats[k], lo / scale, hi / scale) * scale)
            except (OverflowError, ValueError):  # the guess is infinite or NaN
                K = lo
            stride = 1
            while hi - lo > 1:
                if not lo < K < hi:
                    K = (lo + hi) // 2
                s = side(k, K)
                if not s:
                    lo = hi = K
                    break
                if s == sa:
                    lo, K = K, K + stride
                else:
                    hi, K = K, K - stride
                stride *= 2
            Ka = lo
            if lo < hi and exact[k]:
                out.append(IsolatedRoot(*_exact_root(u, ys[k].lo, lo)))
            else:
                out.append(IsolatedRoot(_dyadic(lo, -GRID), _dyadic(hi, -GRID)))
    return out


def _exact_root(u: Poly, y: Fraction, K: int) -> tuple[Fraction, Fraction]:
    """The root of u - y in the grid cell [K, K+1] 2^-48, at whose ends
    u - y has nonzero opposite signs: the point when it is rational, else
    the cell.  A rational root of the primitive integer p = u - y is
    k/lead for an integer k, and the cell holds at most one such point
    when lead < 2^48; otherwise ``_refine`` refines the cell to its root
    or back to itself."""
    (cn, cd), (yn, yd) = u.content.as_integer_ratio(), y.as_integer_ratio()
    p = _primitive([cn * yd * u.ints[0] - cd * yn] + [cn * yd * c for c in u.ints[1:]])
    lead, lo, hi = abs(p[-1]), _dyadic(K, -GRID), _dyadic(K + 1, -GRID)
    if lead >> GRID:
        return _refine(p, lo, hi, DEFAULT_WIDTH)
    x = Fraction((lead * K >> GRID) + 1, lead)  # the least k/lead above lo
    return (x, x) if x < hi and not _sign(p, x) else (lo, hi)


def _grid_key(x: Fraction) -> int:
    """2 K when x = K 2^-48, 2 K + 1 when x is inside (K, K+1) 2^-48."""
    K, rest = divmod(x.numerator << GRID, x.denominator)
    return 2 * K + (rest > 0)


def _disjoint(found: list[IsolatedRoot]) -> list[IsolatedRoot]:
    """The roots in order; _Undecided when one has even multiplicity, two
    touch or overlap (a root found twice among them) or share a grid cell,
    or an inexact one is no grid cell or ends at 0, where real_roots(G')
    narrows it if G'(0) = 0.  Each end is compared by its ``_grid_key``
    alone: two roots in one open grid cell count as overlapping."""
    keyed = []
    for r in found:
        lo, hi = _grid_key(r.lo), _grid_key(r.hi)
        if r.multiplicity % 2 == 0 or not r.exact and (lo % 2 or hi != lo + 2 or not lo * hi):
            raise _Undecided
        keyed.append((lo, hi, r))
    keyed.sort(key=lambda t: t[0])
    if any(a[1] >= b[0] for a, b in zip(keyed, keyed[1:])):
        raise _Undecided
    return [r for *_, r in keyed]


def solve_c1(s: int, c2, c3, c4) -> list[IsolatedRoot]:
    """All real roots of F_1 viewed as a univariate polynomial in c1."""
    return real_roots(f1_polynomial(s, 1, {2: c2, 3: c3, 4: c4}))


# ---------------------------------------------------------------------------
# Continuation: tracking roots of F_1 while (c3, c4) moves away from (0, 0)
# ---------------------------------------------------------------------------
#
# At c3 = c4 = 0 the quartic degenerates to x^2 (x^2 + c1 x + c2) and the
# inner polynomial is a shifted/scaled classical Chebyshev polynomial; for
# c2 < 0 the condition F_1(c1) = 0 has s-1 distinct real roots, one per
# choice of which extremum sits on the y-axis.  The continuation follows a
# chosen root along the straight-line homotopy (c3, c4) = tau * targets.
# Only F_1 = 0 is being tracked; whether the full quartic identity holds at
# the endpoint additionally requires aux = 0 there, which is reported (and
# a full solution attached) whenever the final c1 reconstructs to an exact
# rational.


@dataclass
class PathResult:
    """Outcome of one continuation path."""

    s: int
    c2: Fraction
    target_c3: Fraction
    target_c4: Fraction
    branch_index: int
    tau_star: float
    reached: bool
    c1_start: Fraction
    c1_final: float
    f1_residual: float
    c1_exact: Fraction | None
    aux_at_target: Fraction | None
    solution: BipartiteSolution | None
    message: str

    @property
    def f1_exact_zero(self) -> bool:
        """Whether the final c1 reconstructs to an exact root of F_1."""
        return self.c1_exact is not None

    def ode_polypart_residual_bound(self, lo: float = -2.0, hi: float = 2.0) -> float:
        """Upper bound for sup over [lo, hi] of the divided-ODE residual.

        The residual is 2 s^2 u - (2 u'' ptilde + u' ptilde'), polynomial
        part only, with u rebuilt from the recurrence at the final c1.
        Bounded by sum |coef| * B^k, B = max(|lo|, |hi|), which dominates
        the sup norm.
        """
        cvals = (
            self.c1_final,
            float(self.c2),
            float(self.target_c3) * self.tau_star,
            float(self.target_c4) * self.tau_star,
        )
        a, _ = _recurrence(self.s, cvals)
        P = [cvals[3], cvals[2], cvals[1], cvals[0], 1.0]  # ptilde = P x^-2
        dP = [c * (k - 2) for k, c in enumerate(P)]  # ptilde' = dP x^-3
        du = _fderiv(a)
        d2p = _fmul([c * 2 for c in _fderiv(du)], P)  # 2 u'' ptilde = d2p x^-2
        d1p = _fmul(du, dP)  # u' ptilde' = d1p x^-3
        res = [c * (2 * self.s * self.s) - (d2p[k + 2] + d1p[k + 3]) for k, c in enumerate(a)]
        B = max(abs(lo), abs(hi), 1e-30)
        return float(sum(abs(c) * B**k for k, c in enumerate(res)))

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "branch": self.branch_index,
            "tau_star": self.tau_star,
            "reached": self.reached,
            "c1_start": str(self.c1_start),
            "c1_final": self.c1_final,
            "c1_exact": None if self.c1_exact is None else str(self.c1_exact),
            "f1_exact_zero": self.f1_exact_zero,
            "aux_at_target": None
            if self.aux_at_target is None
            else str(self.aux_at_target),
            "f1_residual": self.f1_residual,
            "solution": None if self.solution is None else self.solution.as_dict(),
            "message": self.message,
        }


# The tracker's polynomials are float coefficient lists, ascending powers.


def _fderiv(f: list[float]) -> list[float]:
    return [c * k for k, c in enumerate(f)][1:]


def _fmul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _f1_float(s: int, c2: float, c3: float, c4: float) -> list[float]:
    """F_1 as a polynomial in c1 with float coefficients, for the tracker.

    The float image of the table's F_1 row, not of ``f1_polynomial``: each
    coefficient n / den is correctly rounded, as float(Fraction(n, den))
    is, and each monomial's other parts multiply in floats (c4, c3, then
    c2), in row order.
    """
    table = fk_table(s)
    base, den = s + 1, table.dens[1]
    out: dict[int, float] = {}
    for key, n in table.rows[1].items():
        m1, m2, m3, m4 = _counts(key, base)
        rest = 1.0
        for c, m in ((c4, m4), (c3, m3), (c2, m2)):
            for _ in range(m):
                rest *= c
        out[m1] = out.get(m1, 0.0) + n / den * rest
    return [out.get(e, 0.0) for e in range(max(out, default=0) + 1)]


# continuation tracker: the first and largest tau step, the step below which
# tracking gives up, the distance at which two tracked roots have collided,
# and Newton's residual tolerance (relative to the largest coefficient) and
# iteration cap
INITIAL_STEP = 1 / 16
MIN_STEP = 1e-10
COLLISION_DIST = 1e-6
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


def _newton(f: list[float], x0: float, tol: float):
    scale = max(1.0, max(abs(c) for c in f))
    df = _fderiv(f)
    x = x0
    for _ in range(NEWTON_MAX_ITER):
        fx = horner(f, x)
        if abs(fx) <= tol * scale:
            return x, True
        dfx = horner(df, x)
        if dfx == 0 or x != x or abs(x) > 1e12:
            return x, False
        x = x - fx / dfx
    return x, abs(horner(f, x)) <= 10 * tol * scale


def continuation(
    s: int,
    c2,
    target_c3,
    target_c4,
    branch_index: int,
) -> PathResult:
    """Track the branch_index-th real root of F_1 from (c3,c4)=(0,0) to targets.

    Straight-line homotopy with Euler prediction and Newton correction;
    the step halves when Newton stalls and the path aborts (reporting the
    largest achieved tau) when tracked roots come within COLLISION_DIST
    of each other.  At tau = 1 an exact rational reconstruction of c1 is
    attempted and, when it verifies F_1 = 0 exactly and aux = 0 as well,
    a fully verified solution is attached.
    """
    if s < 2:
        raise ValueError("s must be at least 2")
    c2, t3, t4 = Fraction(c2), Fraction(target_c3), Fraction(target_c4)
    start_roots = solve_c1(s, c2, 0, 0)
    if not 1 <= branch_index <= len(start_roots):
        raise InvalidBranchIndex(
            f"branch index {branch_index} outside 1..{len(start_roots)}"
        )
    roots = [r.value() for r in start_roots]
    sel = branch_index - 1
    c1_start_repr = (
        start_roots[sel].lo if start_roots[sel].exact else start_roots[sel].mid
    )

    f2, f4 = float(c2), float(t4)
    f3 = float(t3)
    tau, h = 0.0, INITIAL_STEP
    f_cur = _f1_float(s, f2, tau * f3, tau * f4)
    message = "reached tau = 1"
    reached = True
    while tau < 1.0:
        step = min(h, 1.0 - tau)
        tau_next = tau + step
        f_next = _f1_float(s, f2, tau_next * f3, tau_next * f4)
        df_cur = _fderiv(f_cur)
        new_roots = []
        ok = True
        for r in roots:
            df = horner(df_cur, r)
            pred = r
            if df != 0:
                pred = r - (horner(f_next, r) - horner(f_cur, r)) / df
            x, good = _newton(f_next, pred, NEWTON_TOL)
            if not good:
                ok = False
                break
            new_roots.append(x)
        if not ok:
            h = step / 2
            if h < MIN_STEP:
                message = "step size underflow during Newton correction"
                reached = False
                break
            continue
        collided = any(
            abs(a - b) < COLLISION_DIST
            for i, a in enumerate(new_roots)
            for b in new_roots[i + 1 :]
        )
        if collided:
            message = f"root collision at tau = {tau_next:.6g}"
            reached = False
            break
        roots, tau, f_cur = new_roots, tau_next, f_next
        h = min(max(h * 2, INITIAL_STEP / 8), INITIAL_STEP)

    c1f, _ = _newton(f_cur, roots[sel], 1e-15)
    f1_res = abs(horner(f_cur, c1f))

    c1_exact = None
    aux_val = None
    sol = None
    if reached:
        cand = reconstruct_rational(c1f)
        if cand is not None:
            c_full = QuarticCoeffs(cand, c2, t3, t4)
            cond = conditions(s, c_full)
            if cond.f1 == 0:
                c1_exact = cand
                aux_val = cond.aux
                if aux_val == 0:
                    sol = build_solution(s, c_full)
                    message = "exact solution verified at tau = 1"
                else:
                    message = (
                        "exact F_1 root at tau = 1; auxiliary condition nonzero, "
                        "no quartic-identity solution at the target"
                    )

    return PathResult(
        s=s,
        c2=c2,
        target_c3=t3,
        target_c4=t4,
        branch_index=branch_index,
        tau_star=tau,
        reached=reached,
        c1_start=Fraction(c1_start_repr),
        c1_final=c1f,
        f1_residual=f1_res,
        c1_exact=c1_exact,
        aux_at_target=aux_val,
        solution=sol,
        message=message,
    )
