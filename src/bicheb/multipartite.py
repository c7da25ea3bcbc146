"""General multipartite machinery: arbitrary outside data (p, q), not just q = x.

For monic p of degree r and monic square-free q of degree ell with
r = 2*ell + 2, the defining identity

    s^2 q(x)^2 (u^2 - m^2) = p(x) u'(x)^2

divided by q^2 and differentiated becomes the linear ODE

    2 s^2 q^3 u = (p' q - 2 p q') u' + 2 p q u''.

Comparing x-coefficients yields a descending recurrence for the u
coefficients driven by the weights

    e_i^(j) = (tc_ij - 2 s^2 td_i) / (2 (s^2 - j^2)),

where td_i are the descending coefficients of q^3 and
tc_ij = (i+j) * sum_k (4i + 2j - 3k) c_k d_{i-k} mixes the descending
coefficients of p and q.  Indices j = -1 .. -3*ell give no new
coefficients; instead they are solvability conditions on (p, q).  The
denominator vanishes at j = -s (reachable when 3*ell >= s), so every
negative-index condition is evaluated in the cleared form
E_i^(j) = tc_ij - 2 s^2 td_i with the division deferred.

Every coefficient and every condition comes from this one recurrence.
It runs on integers from the integer vectors of p and q to the returned
Fractions, and each step j >= 0 cancels its gcd with 2(s^2 - j^2), as in
Bareiss's exact division (``coefficients_general``).

The test suite holds two oracles that the recurrence must equal exactly:
the same recurrence on Fractions, and sums over the distinct permutations
of bounded partitions, closed forms whose cost grows exponentially in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bipartite import Branch, identity_residual
from .poly import Poly


class NoConsistentConstants(ValueError):
    """No (c, m^2) makes the quadrature-constant identity hold exactly."""


@dataclass(frozen=True)
class OutsideData:
    """Crossing abscissae (alphas) and exceptional-extremum abscissae (betas).

    Determines monic p (roots alphas, degree r) and monic q (roots betas,
    degree ell) with r = 2*ell + 2; alphas must be distinct and disjoint
    from the betas, and q square-free (betas distinct).
    """

    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = tuple(Fraction(a) for a in self.alphas)
        betas = tuple(Fraction(b) for b in self.betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        if len(set(alphas)) != len(alphas):
            raise ValueError("alphas must be distinct")
        if len(set(betas)) != len(betas):
            raise ValueError("betas must be distinct (q square-free)")
        if set(alphas) & set(betas):
            raise ValueError("alphas and betas must be disjoint")
        if len(alphas) != 2 * len(betas) + 2:
            raise ValueError("need r = 2*ell + 2 crossings for ell exceptional points")

    def p(self) -> Poly:
        return Poly.from_roots(self.alphas)

    def q(self) -> Poly:
        return Poly.from_roots(self.betas)


def _check_pq(p: Poly, q: Poly) -> tuple[int, int]:
    # content * ints, with ints primitive, is monic iff content = 1 / ints[-1]
    for f in (p, q):
        if not f or f.content.numerator != 1 or f.content.denominator != f.ints[-1]:
            raise ValueError("p and q must be monic")
    r, ell = p.degree, q.degree
    if r != 2 * ell + 2:
        raise ValueError(f"degree mismatch: deg p = {r}, expected 2*{ell} + 2")
    return r, ell


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two coefficient vectors.  At the few coefficients of
    q this loop beats ``poly._kmul``'s packing."""
    out = [0] * (len(a) + len(b) - 1)
    for k, x in enumerate(a):
        for m, y in enumerate(b):
            out[k + m] += x * y
    return out


def _tc_sums(c: list, d: list) -> tuple[list, list]:
    """A_i = sum_k (4i - 3k) c_k d_{i-k} and B_i = sum_k c_k d_{i-k}.

    c and d are descending coefficient lists (zero out of range), and
    i runs over 0..len(c) + len(d) - 2; with them
    tc(i, j) = (i + j) (A_i + 2 j B_i).  Both sums are homogeneous: when
    every c_k and d_k is scaled by D^k, A_i and B_i scale by D^i.
    """
    A = [0] * (len(c) + len(d) - 1)
    B = [0] * (len(c) + len(d) - 1)
    for k, ck in enumerate(c):
        for m, dm in enumerate(d):
            A[k + m] += (4 * m + k) * ck * dm
            B[k + m] += ck * dm
    return A, B


def _scaled_desc(poly: Poly, D: int) -> list[int]:
    """Descending coefficients c_k times D^k of a monic poly, for D a
    multiple of its content's denominator ints[-1]."""
    lead, pw, out = poly.ints[-1], 1, []
    for v in reversed(poly.ints):
        out.append(v * pw // lead)
        pw *= D
    return out


@dataclass
class MultipartiteSystem:
    """Solved coefficient system for one (s, p, q) triple.

    a holds a_0..a_s with a_s = 1, so a_j = F_j on the recurrence
    route.  neg_residuals[j-1] is the cleared condition at
    index -j (j = 1..3 ell); all zero iff the divided ODE has a
    polynomial solution of degree s.  When q(0) = 0 the original
    (undivided) identity additionally pins a_1 = 0; origin_residual then
    records the cleared value the j = 1 recurrence step wanted to assign
    (zero iff that pin is consistent).
    """

    a: list[Fraction]
    neg_residuals: list[Fraction]
    pinned_origin: bool
    origin_residual: Fraction | None

    @cached_property
    def u(self) -> Poly:
        return Poly(self.a)

    def solvable(self) -> bool:
        ok = all(v == 0 for v in self.neg_residuals)
        if self.pinned_origin:
            ok = ok and self.origin_residual == 0
        return ok


def coefficients_general(
    s: int, p: Poly, q: Poly, pin_origin: bool | None = None
) -> MultipartiteSystem:
    """Run the general descending recurrence and collect the conditions.

    pin_origin None chooses automatically: the pin applies exactly when
    q(0) = 0, where the undivided identity forces u'(0) = 0.  Pass False
    to get the plain divided-ODE recurrence (a_1 determined, not pinned),
    which is the run solvability_residuals reads.  Each step sums the
    cleared weights E_i^(j) times a_(i+j); a step j >= 0 sets a_j to that
    sum over R_j = 2 (s^2 - j^2), and the steps j < 0 are the conditions.

    The run is on integers from p.ints and q.ints to the returned
    Fractions.  With D the lcm of the denominators of p and q, the
    descending coefficients scaled by D^k are integers, and E_i^(j) D^i
    is one too, because E_i^(j) is weighted-homogeneous of degree i.  So
    a_j = N_j / (D^(s-j) Q_j) for an integer N_j, with Q_j = e_j ... e_(s-1)
    over factors e_k that divide R_k, and the step at index j sums
    E_i^(j) D^i N_(i+j) e_lo ... e_(i+j-1) over a common denominator
    D^(s-j) Q_lo, with lo = max(j + 1, 0) the lowest index it reads.  A
    step j >= 0 divides g = gcd(sum, R_j) out of the sum and of R_j, as
    in Bareiss's exact-division elimination: N_j = sum / g and
    e_j = R_j / g (a zero sum, such as the pinned a_1, gives e_j = 1).
    Fractions are made only for the returned values.
    """
    if s < 1:
        raise ValueError("s must be positive")
    r, ell = _check_pq(p, q)
    top = r + ell
    if pin_origin is None:
        pin_origin = q.ints[0] == 0
    # the lcm of every coefficient denominator: a Poly's integer vector is
    # primitive, so its content's denominator is the lcm of its own
    D = math.lcm(p.content.denominator, q.content.denominator)
    dq = _scaled_desc(q, D)
    A, B = _tc_sums(_scaled_desc(p, D), dq)
    two_s2 = 2 * s * s
    T = [two_s2 * v for v in _convolve(_convolve(dq, dq), dq)] + [0] * (top - 3 * ell)
    N = [0] * (s + 1)
    N[s] = 1
    e = [1] * (s + 1)  # e[s] = 1 only starts the Horner sums

    def step(j: int) -> int:
        """The step's sum over D^(s-j) Q_lo, in Horner form over the e_m;
        the term at m = i + j has tc(i, j) = m (A_i + 2 j B_i)."""
        acc, j2 = 0, 2 * j
        for m in range(min(top + j, s), max(j + 1, 0) - 1, -1):
            i = m - j
            acc = (m * (A[i] + j2 * B[i]) - T[i]) * N[m] + e[m] * acc
        return acc

    origin_res: Fraction | None = None
    den = [1] * (s + 1)  # den[j] = D^(s-j) Q_j
    for j in range(s - 1, -1, -1):
        acc = step(j)
        if pin_origin and j == 1:
            origin_res = Fraction(acc, D * den[2])
            acc = 0
        R = two_s2 - 2 * j * j
        g = math.gcd(acc, R)
        N[j], e[j] = acc // g, R // g
        den[j] = D * e[j] * den[j + 1]
    neg, d = [], den[0]
    for j in range(1, 3 * ell + 1):
        d *= D
        neg.append(Fraction(step(-j), d))
    return MultipartiteSystem(
        a=list(map(Fraction, N, den)),
        neg_residuals=neg,
        pinned_origin=pin_origin,
        origin_residual=origin_res,
    )


def solvability_residuals(s: int, p: Poly, q: Poly) -> list[Fraction]:
    """The 3*ell cleared conditions for a degree-s polynomial solution.

    All zero iff the divided ODE admits a polynomial solution of degree s.
    These are the negative-index residuals of the unpinned recurrence run;
    they differ from coefficients_general(s, p, q).neg_residuals only when
    q(0) = 0, because that run pins a_1 = 0.
    """
    return coefficients_general(s, p, q, pin_origin=False).neg_residuals


def integration_constant(s: int, p: Poly, q: Poly, u: Poly):
    """(c, m^2) = (0, m^2) with  s^2 q^2 (u^2 - m^2) = p u'^2.

    The identity says W = s^2 q^2 u^2 - p u'^2, the residual at m^2 = 0, is
    s^2 m^2 times q^2, and q^2 is monic, so m^2 = lc(W) / s^2.  The residual
    at that m^2 is W - lc(W) q^2; NoConsistentConstants is raised when it
    is nonzero, which is when W is no constant multiple of q^2.  c is
    always 0.

    The u of a solvable coefficients_general(s, p, q) never raises: it
    satisfies the divided ODE at every index (at j = 1 too, which the
    origin pin checks), and

        d/dx (W / q^2) = (u' / q^3) (2 s^2 q^3 u - (p' q - 2 p q') u' - 2 p q u'')

    is then 0, so W = lc(W) q^2.
    """
    _check_pq(p, q)
    W = identity_residual(u, "g", p, s, 0, Branch.CIRCULAR, q)
    lc = W.leading() if W else Fraction(0)
    if W != (q * q).scale(lc):
        raise NoConsistentConstants("no exact (c, m^2) pair satisfies the identity")
    return Fraction(0), lc / (s * s)
