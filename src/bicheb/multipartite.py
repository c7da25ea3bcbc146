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
Sums over the distinct permutations of bounded partitions give closed
forms for the same quantities, but their cost grows exponentially in s;
they live in the test suite as an oracle that the recurrence must equal
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def r(self) -> int:
        return len(self.alphas)

    @property
    def ell(self) -> int:
        return len(self.betas)

    def p(self) -> Poly:
        return Poly.from_roots(self.alphas)

    def q(self) -> Poly:
        return Poly.from_roots(self.betas)


def _check_pq(p: Poly, q: Poly) -> tuple[int, int]:
    if not p or p.leading() != 1 or not q or q.leading() != 1:
        raise ValueError("p and q must be monic")
    r, ell = p.degree, q.degree
    if r != 2 * ell + 2:
        raise ValueError(f"degree mismatch: deg p = {r}, expected 2*{ell} + 2")
    return r, ell


def _desc(poly: Poly) -> list[Fraction]:
    """Descending coefficient list: index k holds the x^(deg-k) coefficient."""
    return [poly[poly.degree - k] for k in range(poly.degree + 1)]


def qcube(q: Poly) -> list[Fraction]:
    """Descending coefficients td_0..td_{3 ell} of q^3 (td_0 = 1)."""
    if not q or q.leading() != 1:
        raise ValueError("q must be monic")
    return _desc(q**3)


def tc(i: int, j: int, p: Poly, q: Poly) -> Fraction:
    """(i+j) * sum_{k=0}^{i} (4i + 2j - 3k) c_k d_{i-k}.

    c and d are the descending coefficients of p and q, taken as zero out
    of range; tc(0, j) = 2 j^2 always.
    """
    c, d = _desc(p), _desc(q)
    total = Fraction(0)
    for k in range(i + 1):
        ck = c[k] if k < len(c) else Fraction(0)
        dk = d[i - k] if i - k < len(d) else Fraction(0)
        total += (4 * i + 2 * j - 3 * k) * ck * dk
    return (i + j) * total


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

    s: int
    p: Poly
    q: Poly
    a: list[Fraction]
    neg_residuals: list[Fraction]
    pinned_origin: bool
    origin_residual: Fraction | None

    @property
    def u(self) -> Poly:
        return Poly(self.a)

    @property
    def tdq(self) -> list[Fraction]:
        return qcube(self.q)

    def solvable(self) -> bool:
        ok = all(v == 0 for v in self.neg_residuals)
        if self.pinned_origin:
            ok = ok and self.origin_residual == 0
        return ok

    def constants(self) -> tuple[Fraction, Fraction]:
        """(c, m^2) of the constant-adjusted identity; needs a solvable system."""
        return integration_constant(self.s, self.p, self.q, self.u)


def coefficients_general(
    s: int, p: Poly, q: Poly, pin_origin: bool | None = None
) -> MultipartiteSystem:
    """Run the general descending recurrence and collect the conditions.

    pin_origin None chooses automatically: the pin applies exactly when
    q(0) = 0, where the undivided identity forces u'(0) = 0.  Pass False
    to get the plain divided-ODE recurrence (a_1 determined, not pinned),
    which is the run solvability_residuals reads.  Each step sums the
    cleared weights E_i^(j) times a_(i+j); only the steps j >= 0 divide.
    """
    if s < 1:
        raise ValueError("s must be positive")
    r, ell = _check_pq(p, q)
    td = qcube(q)
    top = r + ell
    if pin_origin is None:
        pin_origin = q.eval(Fraction(0)) == 0
    a = [Fraction(0)] * (s + 1)
    a[s] = Fraction(1)

    def step(j: int) -> Fraction:
        acc = Fraction(0)
        for i in range(max(1, -j), min(top, s - j) + 1):
            tdi = td[i] if i < len(td) else Fraction(0)
            acc += (tc(i, j, p, q) - 2 * s * s * tdi) * a[i + j]
        return acc

    origin_res: Fraction | None = None
    for j in range(s - 1, -1, -1):
        acc = step(j)
        if pin_origin and j == 1:
            origin_res = acc
            a[1] = Fraction(0)
        else:
            a[j] = acc / (2 * (s * s - j * j))
    neg = [step(-j) for j in range(1, 3 * ell + 1)]
    return MultipartiteSystem(
        s=s,
        p=p,
        q=q,
        a=a,
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
    """Solve for (c, m^2) in  s^2 q^2 (u^2 - m^2) = p u'^2 + c q^2.

    u must satisfy the divided ODE; then s^2 q^2 u^2 - p u'^2 is an exact
    constant multiple of q^2, the lowest-degree matching of the undivided
    identity determines m^2, and c is the leftover constant (c = 0 means
    the true multipartite identity holds).  Raises NoConsistentConstants
    when no exact pair exists.
    """
    _check_pq(p, q)
    du = u.derivative()
    W = (q * q * u * u).scale(Fraction(s * s)) - p * du * du
    quot, rem = W.divmod(q * q)
    if rem or quot.degree > 0:
        raise NoConsistentConstants(
            "s^2 q^2 u^2 - p u'^2 is not a constant multiple of q^2"
        )
    c0 = quot[0] if quot else Fraction(0)
    q0 = q.eval(Fraction(0))
    if q0 != 0:
        m2 = u.eval(Fraction(0)) ** 2 - p.eval(Fraction(0)) * du.eval(
            Fraction(0)
        ) ** 2 / (Fraction(s * s) * q0 * q0)
    else:
        if u[1] != 0:
            raise NoConsistentConstants(
                "q(0) = 0 requires u'(0) = 0 for the undivided identity"
            )
        dq0 = q.derivative().eval(Fraction(0))
        m2 = u.eval(Fraction(0)) ** 2 - p.eval(Fraction(0)) * 4 * u[2] ** 2 / (
            Fraction(s * s) * dq0 * dq0
        )
    c = c0 - s * s * m2
    residual = identity_residual(u, "g", p, s, m2, Branch.CIRCULAR, q) - (q * q).scale(c)
    if residual:
        raise NoConsistentConstants("no exact (c, m^2) pair satisfies the identity")
    return c, m2
