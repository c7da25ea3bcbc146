"""Independent output checker for the benchmark workloads.

Each ``check_*`` function takes one operation's input and output and
returns the list of failed checks (empty when the output is correct).
Identities and signs are recomputed here with a few lines of dense
polynomial arithmetic on Fraction lists, so the checks do not run
through ``bicheb.poly``, the root isolator or the quartic recurrence
they are checking.  The refusal triples and completion roots are checked
against the general (p, q = x) route of ``bicheb.multipartite``, the
independent route the acceptance criteria compare the quartic module to.

Failure tags (they become the ``check.*`` counters):

  verdict_wrong            decided yes/no against the independent verdict
  residual_nonzero         n^2 x^2 (G^2 -+ M) - p G'^2 (or its multipartite
                           analogue) is not the zero polynomial
  sigma_mismatch           a piece's sign (or arccosh inner sign) disagrees
                           with the exact-sign rule
  piece_outside_region     a piece's interior leaves the region -+p > 0
  verify_over_tol          the quadrature cross-check exceeds the tolerance
  refusal_triple_mismatch  some divisor's (F_1, aux, d) differs from the
                           general route
  completion_root_wrong    a completion root is not a root of F_1, an
                           interval brackets no sign change, or two overlap
  table_mismatch           an F_k table or its text disagrees with an
                           independent evaluation
"""

from __future__ import annotations

import json
from fractions import Fraction

import bicheb.multipartite as multipartite
import bicheb.partitions as partitions
from bicheb.poly import Poly

VERIFY_TOL = 1e-8

# -- dense polynomial helpers (ascending Fraction lists) ----------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def pneg(a) -> list:
    return [-v for v in a]


def pmul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return _trim(out)


def pderiv(a) -> list:
    return _trim([k * a[k] for k in range(1, len(a))])


def peval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(a):
        acc = acc * x + v
    return acc


def sgn(v) -> int:
    return (v > 0) - (v < 0)


def quartic(c) -> list:
    """Ascending coefficients of x^4 + c1 x^3 + c2 x^2 + c3 x + c4."""
    c1, c2, c3, c4 = (Fraction(v) for v in c)
    return [c4, c3, c2, c1, Fraction(1)]


# -- decide_yes ------------------------------------------------------------------

def expected_sigma(fn: str, x: Fraction, g: Fraction, dg: Fraction) -> int:
    """Exact-sign rule for the piece sign sigma at an interior point x.

    d/dx of (sigma/n) f(G/m) must have the sign of x / sqrt(-+p), i.e. of x:
    arccos gives -sgn x sgn G', arcsinh sgn x sgn G', and arccosh (with
    inner sign sgn G) and log give sgn x sgn G sgn G'.
    """
    if fn == "arccos":
        return -sgn(x) * sgn(dg)
    if fn == "arcsinh":
        return sgn(x) * sgn(dg)
    return sgn(x) * sgn(g) * sgn(dg)


def _interior_points(lo, hi):
    """Rational points strictly inside the piece (lo, hi); None is infinite."""
    a = None if lo is None else Fraction(lo.hi)
    b = None if hi is None else Fraction(hi.lo)
    fracs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
             Fraction(4, 5), Fraction(2, 7), Fraction(5, 7), Fraction(3, 11)]
    if a is not None and b is not None:
        return [a + (b - a) * t for t in fracs]
    if a is None and b is None:
        return [Fraction(k, 3) for k in (1, -1, 2, -2, 4, -4, 5, -5)]
    if a is None:
        return [b - k * t for k in (1, 2) for t in fracs[:4]]
    return [a + k * t for k in (1, 2) for t in fracs[:4]]


def identity_residual(n: int, c, cf, G: list) -> list:
    """n^2 x^2 (G^2 -+ M) - p G'^2 for a closed form (empty when zero).

    M is m^2 under the "g" convention and 1 under "g-over-m"; the sign is
    + only for the hyperbolic (arcsinh) branch.
    """
    p = quartic(c)
    M = Fraction(cf.m2) if cf.convention == "g" else Fraction(1)
    shifted = padd(pmul(G, G), [M if cf.branch == "HyperbolicArcsinh" else -M])
    dG = pderiv(G)
    lhs = pmul([Fraction(0), Fraction(0), Fraction(n * n)], shifted)
    return padd(lhs, pneg(pmul(p, pmul(dG, dG))))


def check_closed_form(n: int, c, out, err) -> list[str]:
    """A decide-yes output: verdict, exact identity, piece signs, verify."""
    if not getattr(out, "decided", False) or not hasattr(out, "pieces"):
        return ["verdict_wrong"]
    fails = []
    p = quartic(c)
    G = [Fraction(v) for v in out.G.coeffs]
    dG = pderiv(G)
    if identity_residual(n, c, out, G):
        fails.append("residual_nonzero")
    rad_sign = -1 if out.branch == "CircularArccos" else 1
    for piece in out.pieces:
        for x in _interior_points(piece.lo, piece.hi):
            g, dg = peval(G, x), peval(dG, x)
            if x != 0 and g != 0 and dg != 0:
                break
        else:
            fails.append("sigma_mismatch")
            continue
        if rad_sign * peval(p, x) <= 0:
            fails.append("piece_outside_region")
        want = expected_sigma(piece.fn, x, g, dg)
        inner_ok = piece.fn != "arccosh" or piece.inner_sign == sgn(g)
        if piece.sigma != want or not inner_ok:
            fails.append("sigma_mismatch")
    if err is None or not err <= VERIFY_TOL:
        fails.append("verify_over_tol")
    return sorted(set(fails))


# -- general-route conditions ------------------------------------------------------


def general_conditions(s: int, c) -> tuple[Fraction, Fraction, Fraction]:
    """(F_1, aux, d) for divisor s from the general (p, q = x) route.

    origin residual = 2 (s^2 - 1) F_1 and neg_residuals[0] = 2 aux; d is
    rebuilt from that route's a_0 and a_2.
    """
    c4 = Fraction(c[3])
    sys_ = multipartite.coefficients_general(s, Poly(quartic(c)), Poly.x())
    f1 = sys_.origin_residual / (2 * (s * s - 1))
    aux = sys_.neg_residuals[0] / 2
    a = sys_.a
    d = s * s * a[0] * a[0] - 4 * c4 * a[2] * a[2]
    return f1, aux, d


def expected_decision(n: int, triples: dict) -> bool:
    """Is the first divisor passing F_1 = aux = 0 (if any) admissible?"""
    for s in sorted(triples):
        f1, aux, d = triples[s]
        if f1 == 0 and aux == 0:
            return not (d < 0 and (n // s) % 2 == 0)
    return False


def check_refusal_cli(n: int, c, rc: int, stdout: str) -> list[str]:
    """A `decide --json` CLI refusal: exit code 3 and every divisor's triple."""
    divisors = [s for s in range(2, n + 1) if n % s == 0]
    triples = {s: general_conditions(s, c) for s in divisors}
    fails = []
    if expected_decision(n, triples) or rc != 3:
        fails.append("verdict_wrong")
    try:
        payload = json.loads(stdout)
        rows = payload["divisors"]
        got = {
            int(r["s"]): (Fraction(r["F1"]), Fraction(r["aux"]), Fraction(r["d"]))
            for r in rows
        }
        if payload["status"] != "decided-no" or len(rows) != len(got):
            fails.append("verdict_wrong")
    except (ValueError, KeyError, TypeError):
        return sorted(set(fails + ["verdict_wrong"]))
    if got != triples:
        fails.append("refusal_triple_mismatch")
    return sorted(set(fails))


# -- complete_sweep -----------------------------------------------------------------


def _with_target(fixed: dict, target: int, value: Fraction) -> tuple:
    vals = dict(fixed)
    vals[target] = value
    return tuple(Fraction(vals[k]) for k in (1, 2, 3, 4))


def f1_sign(s: int, c) -> int:
    """Sign of F_1 through the general route (2 (s^2 - 1) > 0 keeps it)."""
    sys_ = multipartite.coefficients_general(s, Poly(quartic(c)), Poly.x())
    return sgn(sys_.origin_residual)


def check_completion(n: int, fixed: dict, target: int, result) -> list[str]:
    """Roots of F_1 in the target coefficient: exact, bracketing, disjoint."""
    fails = []
    s = result.s
    if n % s or not result.entries:
        fails.append("completion_root_wrong")
    prev_hi = None
    for e in result.entries:
        r = e.root
        if prev_hi is not None and not prev_hi < r.lo:
            fails.append("completion_root_wrong")
        prev_hi = r.hi
        if r.exact:
            if f1_sign(s, _with_target(fixed, target, r.lo)) != 0:
                fails.append("completion_root_wrong")
            if getattr(e.outcome, "decided", False):
                cf = e.outcome
                G = [Fraction(v) for v in cf.G.coeffs]
                if identity_residual(n, e.c.as_tuple(), cf, G):
                    fails.append("residual_nonzero")
        else:
            lo = f1_sign(s, _with_target(fixed, target, r.lo))
            hi = f1_sign(s, _with_target(fixed, target, r.hi))
            odd = r.multiplicity % 2 == 1
            if not r.lo < r.hi or lo == 0 or hi == 0 or (odd and lo == hi):
                fails.append("completion_root_wrong")
    return sorted(set(fails))


# -- multi_fk -----------------------------------------------------------------------

PRODUCTS_MAX_S = 8


def eval_table(entries: dict, c) -> Fraction:
    """Sum of coeff * prod c_part over one F_k entry, evaluated directly."""
    total = Fraction(0)
    for lam, coeff in entries.items():
        term = Fraction(coeff)
        for part in lam.parts:
            term *= c[part - 1]
        total += term
    return total


def check_fk(s: int, point, table, lines: list[str]) -> list[str]:
    """F_k tables: products route for small s, general route at a point."""
    if s <= PRODUCTS_MAX_S and table != partitions.fk_table_by_products(s):
        return ["table_mismatch"]
    c = [Fraction(v) for v in point]
    sys_ = multipartite.coefficients_general(s, Poly(quartic(c)), Poly.x())
    for k in range(s + 1):
        got = eval_table(table[k], c)
        want = sys_.origin_residual / (2 * (s * s - 1)) if k == 1 else sys_.a[k]
        if got != want:
            return ["table_mismatch"]
    if len(lines) != s + 1 or any(
        not line.startswith(f"F_{k} = ") for k, line in enumerate(lines)
    ):
        return ["table_mismatch"]
    return []


def check_multi(s: int, p: Poly, q: Poly, solvable_expected: bool | None, out) -> list[str]:
    """General (p, q) system: the two condition routes agree; constants verify."""
    system, lem, constants = out
    fails = []
    neg_zero = all(v == 0 for v in system.neg_residuals)
    if neg_zero != all(v == 0 for v in lem):
        fails.append("verdict_wrong")
    if solvable_expected is not None and system.solvable() != solvable_expected:
        fails.append("verdict_wrong")
    if system.solvable():
        if constants is None:
            fails.append("verdict_wrong")
        else:
            cval, m2 = constants
            P = [Fraction(v) for v in p.coeffs]
            Q = [Fraction(v) for v in q.coeffs]
            U = [Fraction(v) for v in system.a]
            dU = pderiv(U)
            q2 = pmul(Q, Q)
            lhs = pmul([Fraction(s * s)], pmul(q2, padd(pmul(U, U), [-m2])))
            rhs = padd(pmul(P, pmul(dU, dU)), pmul([cval], q2))
            if padd(lhs, pneg(rhs)):
                fails.append("residual_nonzero")
    return sorted(set(fails))
