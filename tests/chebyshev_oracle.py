"""Chebyshev polynomials, the outer composition and the identity residual
by Poly arithmetic, as oracles.

The program composes G by an integer doubling ladder
(``bicheb.poly._chebyshev_ladder``) and checks the identity by one packed
integer evaluation (``bicheb.bipartite.identity_residual``).  This module
keeps the earlier, independent routes: T_N by the three-term recurrence,
the sinh analogue S_N from T_N's coefficients, G by Horner over the
coefficients of matching parity in u^2/m^2 (``Poly.compose``), and the
residual from Poly products, sums and ``Poly.derivative``.
"""

from fractions import Fraction

from bicheb.bipartite import Branch
from bicheb.poly import Poly


def chebyshev_t(n: int) -> Poly:
    """Chebyshev polynomial of the first kind, T_n.

    T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}; leading coefficient
    2^(n-1) for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = [1], [0, 1]  # T_0, T_1
    if n == 0:
        return Poly.one()
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return Poly(cur)


def sinh_chebyshev(n: int) -> Poly:
    """Hyperbolic analogue sinh(n * arcsinh(x)), a polynomial iff n is odd.

    For odd n, T_n(i x) = (-1)^((n-1)/2) i S_n(x).  T_n has only odd
    powers, with signs alternating from a positive leading one, so S_n's
    coefficients are the absolute values of T_n's.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("sinh-Chebyshev polynomials exist only for odd n >= 1")
    return Poly([abs(c) for c in chebyshev_t(n).coeffs])


def parity_compose(outer: Poly, u: Poly, m2, convention: str) -> Poly:
    """m outer(u/m) (convention "g", odd outer) or outer(u/m) (even outer).

    Only the parity-matching coefficients t_k of outer are nonzero, so
    outer(y) = y^e P(y^2) with e = 0 or 1 and P(z) = sum_j t_(2j+e) z^j.
    Then m outer(u/m) = u P(u^2/m^2) and outer(u/m) = P(u^2/m^2), composed
    by Horner.
    """
    odd = convention == "g"
    G = Poly(outer.coeffs[odd::2]).compose((u * u).scale(1 / Fraction(m2)))
    return u * G if odd else G


def compose_outer(u: Poly, m2, N: int, branch: Branch) -> tuple[Poly, str]:
    """``bicheb.bipartite.compose_outer`` by Horner on T_N or S_N; an even
    N on the hyperbolic branch raises ValueError."""
    if branch is Branch.LOGARITHMIC:
        return u ** N, "g"
    outer = sinh_chebyshev(N) if branch is Branch.HYPERBOLIC else chebyshev_t(N)
    convention = "g" if N % 2 == 1 else "g-over-m"
    return parity_compose(outer, u, m2, convention), convention


def outer_derivative(m2, N: int) -> Poly:
    """A positive multiple of m^(N-1) U_(N-1)(y/m), from T_N' / N."""
    return parity_compose(chebyshev_t(N).derivative(), Poly.x(), m2, "g" if N % 2 == 0 else "g-over-m")


def identity_residual(
    G: Poly, convention: str, p: Poly, n: int, m2, branch: Branch, q: Poly = Poly.x()
) -> Poly:
    """``bicheb.bipartite.identity_residual``, n^2 q^2 (G^2 -+ M) - p G'^2,
    by Poly arithmetic."""
    if convention == "g":
        M = m2
    elif convention == "g-over-m":
        M = Fraction(1)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    gsq = G * G
    inner = gsq + M if branch is Branch.HYPERBOLIC else gsq - M
    dG = G.derivative()
    return q * q * inner.scale(n * n) - p * dG * dG
