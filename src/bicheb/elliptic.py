"""Decision procedure and closed forms for int x / sqrt(+-p(x)) dx, p quartic.

The integral has an elementary antiderivative of composed-Chebyshev shape
iff some divisor s >= 2 of n admits an inner polynomial: F_1(c) = 0 and
aux(c) = 0 exactly.  The divisor scan runs in ascending order and stops
at the first divisor satisfying both conditions; the discriminant's sign
then selects the branch,

    d > 0   circular      +-(1/n) arccos(g/m)   on p < 0,
                          +-(1/n) arccosh(g/m)  on p > 0,
    d < 0   hyperbolic    +-(1/n) arcsinh(g/m)  (needs n/s odd),
    d = 0   logarithmic   +-(1/n) log|g|,

and a first hit whose branch is incompatible (d < 0 with n/s even) is a
refusal.  Decisions are made only in exact rational arithmetic: the
conditions cut a measure-zero set, so floating tolerance would be
unsound.

Within one sign region of p, the circular antiderivative formula is only
valid between consecutive cuts: the extrema of g on the lines |g| = m,
where the arc-function hits its branch point and the correct sign sigma
flips.  They are the roots of g' but the exceptional point x = 0, and
``bipartite.cuts`` takes them from the composition g = m T_N(u/m): the
nonzero roots of u' (degree s - 1) and the solutions of u = y_k,
y_k = m cos(k pi/N).  A rational y_k (Niven) is exact, and every other
one is enclosed in an integer cell about 2^-150 wide relative to it; one
sweep over u's monotone branches certifies every solution on u, a
rational one exactly and the others in the cells real_roots would isolate
them in.  Floats only guess.  G' itself, of degree n - 1, is isolated
only when that route cannot certify its answer.
Emitted forms are therefore piecewise, each piece carrying its own
sigma.  The identity n^2 x^2 (G^2 -+ M) = p G'^2 fixes the sign of d/dx
f(G/m), so sigma = -sgn x sgn G' for arccos, sgn x sgn G' for arcsinh,
and sgn x sgn G sgn G' for arccosh and log.  arccosh is used only where p
is nowhere negative; there u^2 >= m^2 on the whole line, so u >= m, G > 0
and its argument needs no sign.  Those signs are evaluated exactly at one
rational point of each sign region's first piece; sgn x sgn G' changes
exactly at each cut and sgn G not at all inside a region, so sigma flips
from piece to piece.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bipartite import (
    COMPOSE_MAX_N,
    FK_MAX_S,
    SCAN_MAX_N,
    Branch,
    BipartiteSolution,
    IdentityResidualNonzero,
    QuarticCoeffs,
    build_solution,
    compose_outer,
    conditions,
    cuts,
    f1_polynomial,
    identity_residual,
)
from .poly import Poly, horner
from .quadrature import Integrand, integrate_adaptive
from .roots import IsolatedRoot, noroot_signs, real_roots, sign_at
from .scalars import is_square, rational_sqrt

BRANCH_ARCCOS = "CircularArccos"
BRANCH_ARCCOSH = "CircularArccosh"
BRANCH_ARCSINH = "HyperbolicArcsinh"
BRANCH_LOG = "Logarithmic"

# branch tag and function of each family where p > 0; the circular family
# takes (BRANCH_ARCCOS, "arccos") where p < 0 if p is negative anywhere
_WHERE_P_POSITIVE = {
    Branch.CIRCULAR: (BRANCH_ARCCOSH, "arccosh"),
    Branch.HYPERBOLIC: (BRANCH_ARCSINH, "arcsinh"),
    Branch.LOGARITHMIC: (BRANCH_LOG, "log"),
}


class IntervalNotValid(ValueError):
    """Numeric check interval is not strictly inside one rendered piece."""


class ClassNotCovered(ValueError):
    """No divisor of n guarantees a real completion for the target index."""


class ComposeBoundExceeded(ValueError):
    """A divisor meets the conditions, but n is above COMPOSE_MAX_N."""


def divisors_from_two(n: int) -> list[int]:
    return [s for s in range(2, n + 1) if n % s == 0]


@dataclass(frozen=True)
class DivisorDiagnostics:
    s: int
    f1: Fraction
    aux: Fraction
    d: Fraction
    note: str

    def line(self) -> str:
        return f"s={self.s}: F_1={self.f1}, aux={self.aux}, d={self.d} [{self.note}]"

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "F1": str(self.f1),
            "aux": str(self.aux),
            "d": str(self.d),
            "note": self.note,
        }


@dataclass(frozen=True)
class Refusal:
    """Decided-no outcome with the exact per-divisor condition values."""

    n: int
    reason: str
    divisors: tuple[DivisorDiagnostics, ...]
    decided = False

    def as_dict(self) -> dict:
        return {
            "status": "decided-no",
            "n": self.n,
            "reason": self.reason,
            "divisors": [dv.as_dict() for dv in self.divisors],
        }


def _endpoint_str(e: Optional[IsolatedRoot], low_side: bool) -> str:
    if e is None:
        return "-inf" if low_side else "inf"
    if e.exact:
        return str(e.lo)
    return _certified_digits(e.lo, e.hi)


def _certified_digits(lo: Fraction, hi: Fraction) -> str:
    """The longest decimal truncation shared by every point of (lo, hi).

    For a dyadic cell no wider than 1: it has lo >= 0 or hi <= 0 and lies
    in one integer interval, so its integer part is certified.  Each
    printed digit is then a digit of the root the cell isolates.
    """
    sign, a, b = ("-", -hi, -lo) if hi <= 0 else ("", lo, hi)
    # L and H, the truncations at a and just below b at a scale 10^D finer
    # than the cell, have one length, since a and b share an integer part.
    # Dropping a digit of each gives the truncations at 10^(D-1), so the
    # digits that every point of the cell shares are their common prefix.
    w = b - a
    D = len(str(w.denominator // w.numerator))  # 10^-D < b - a
    scale = 10**D
    L = str(a.numerator * scale // a.denominator).zfill(D + 1)
    H = str(-(-b.numerator * scale // b.denominator) - 1).zfill(D + 1)
    digits = os.path.commonprefix((L, H))
    d = len(digits) - (len(L) - D)  # the digits after the point
    return f"{sign}{digits[:-d]}.{digits[-d:]}" if d else f"{sign}{digits}"


@dataclass(frozen=True)
class Piece:
    """One maximal stretch on which a single-sigma formula is an antiderivative."""

    lo: Optional[IsolatedRoot]
    hi: Optional[IsolatedRoot]
    sigma: int
    fn: str
    inner_sign: int = 1  # sgn G on arccosh, always +1; perfbench's checker reads it

    def contains_strict(self, a: float, b: float) -> bool:
        """Conservative containment: [a, b] strictly inside the certified piece."""
        lo_ok = self.lo is None or a > float(self.lo.hi)
        hi_ok = self.hi is None or b < float(self.hi.lo)
        return lo_ok and hi_ok and a <= b


@dataclass(frozen=True)
class ClosedForm:
    """A verified elementary antiderivative of x / sqrt(+-p(x))."""

    n: int
    s: int
    c: QuarticCoeffs
    branch: str
    d: Fraction
    m2: Fraction
    G: Poly
    convention: str
    solution: BipartiteSolution
    pieces: tuple[Piece, ...]
    divisors: tuple[DivisorDiagnostics, ...]
    decided = True
    residual_zero = True  # _closed_form raises IdentityResidualNonzero otherwise

    @property
    def N(self) -> int:
        return self.n // self.s

    @property
    def radicand_sign(self) -> int:
        """+1 when the integrand is x/sqrt(p), -1 when it is x/sqrt(-p)."""
        return -1 if self.branch == BRANCH_ARCCOS else 1

    def residual(self) -> Poly:
        br = self.solution.branch
        return identity_residual(
            self.G, self.convention, self.c.poly(), self.n, self.m2, br
        )

    # -- numeric evaluation -------------------------------------------------

    def antiderivative(self, piece: Piece, x: float) -> float:
        """(sigma/n) f(G/m) at x, evaluated through the inner u, never G.

        With y = u/m, G/m is T_N(y) (S_N(y) for arcsinh, u^N for log), so
        arccos(T_N(y)) = arccos(cos(N arccos y)), arccosh|T_N(y)| =
        N arccosh|y|, arcsinh(S_N(y)) = N arcsinh y and log|u^N| = N log|u|.
        """
        u = horner(self.solution.u.float_coeffs(), x)
        if piece.fn == "log":
            return piece.sigma / self.n * self.N * math.log(abs(u))
        y = u / math.sqrt(float(self.m2))
        if piece.fn == "arccos":
            theta = self.N * math.acos(max(-1.0, min(1.0, y)))
            return piece.sigma / self.n * math.acos(math.cos(theta))
        if piece.fn == "arccosh":
            return piece.sigma / self.n * self.N * math.acosh(max(1.0, abs(y)))
        return piece.sigma / self.n * self.N * math.asinh(y)

    def piece_for(self, a: float, b: float) -> Piece:
        for piece in self.pieces:
            if piece.contains_strict(a, b):
                return piece
        raise IntervalNotValid(
            f"[{a}, {b}] is not strictly inside any rendered piece"
        )

    def default_check_interval(self) -> tuple[float, float] | None:
        """Middle third of the widest piece (clipped to [-8, 8])."""
        best = None
        for piece in self.pieces:
            lo = -8.0 if piece.lo is None else max(piece.lo.value(), -8.0)
            hi = 8.0 if piece.hi is None else min(piece.hi.value(), 8.0)
            if hi - lo > 1e-6 and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
        if best is None:
            return None
        lo, hi = best
        return lo + (hi - lo) / 3, hi - (hi - lo) / 3

    def as_dict(self, numeric_error: float | None = None) -> dict:
        return {
            "status": "decided-yes",
            "n": self.n,
            "s": self.s,
            "branch": self.branch,
            "d": str(self.d),
            "m2": str(self.m2),
            "G": {
                "convention": self.convention,
                "coeffs": [str(cf) for cf in self.G.coeffs],
            },
            "intervals": [
                {"lo": lo, "hi": hi, "sigma": p.sigma, "fn": p.fn}
                for p, (lo, hi) in zip(self.pieces, _ends_text(self.pieces))
            ],
            "residual_zero": self.residual_zero,
            "numeric_error": numeric_error,
        }


def _check_n(n: int) -> None:
    """ValueError unless 1 <= n <= SCAN_MAX_N, the outer degrees scanned."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SCAN_MAX_N:
        raise ValueError(f"n must be at most {SCAN_MAX_N}, the bound of the divisor scan, got {n}")


def decide(n: int, c: QuarticCoeffs) -> ClosedForm | Refusal:
    """Decide whether int x/sqrt(+-p) dx has a degree-n composed closed form.

    Scans divisors s of n (s >= 2) in ascending order, testing F_1 = 0
    and aux = 0 exactly; the first divisor passing both fixes the
    decision.  If its discriminant is negative with n/s even the result
    is a refusal (the hyperbolic family needs an odd outer degree).  The
    returned ClosedForm carries an exactly verified identity; the
    refusal carries every divisor's condition values.  Raises ValueError
    when n exceeds SCAN_MAX_N, before the scan, and ComposeBoundExceeded
    when a closed form is due at an n above COMPOSE_MAX_N, before it is
    composed.
    """
    _check_n(n)
    diags: list[DivisorDiagnostics] = []
    hit: int | None = None
    fatal: str | None = None
    for s in divisors_from_two(n):
        cond = conditions(s, c)
        note = "conditions-satisfied" if cond.met else "conditions-failed"
        if cond.met and hit is None and fatal is None:
            # the decision is fixed by the first conditions-satisfying
            # divisor; later divisors are reported but never selected
            N = n // s
            if cond.d < 0 and N % 2 == 0:
                note = "rejected-even-outer-on-hyperbolic"
                fatal = (
                    f"first divisor satisfying the coefficient conditions (s={s}) "
                    f"has d < 0 with an even outer degree n/s={N}"
                )
            else:
                note = "selected"
                hit = s
        diags.append(DivisorDiagnostics(s, cond.f1, cond.aux, cond.d, note))
    if hit is None:
        reason = fatal or "no divisor s of n satisfies F_1 = 0 and aux = 0"
        return Refusal(n, reason, tuple(diags))
    return _closed_form(n, hit, c, tuple(diags))


def _closed_form(
    n: int, s: int, c: QuarticCoeffs, diags: tuple[DivisorDiagnostics, ...]
) -> ClosedForm:
    if n > COMPOSE_MAX_N:
        raise ComposeBoundExceeded(
            f"s={s} meets the conditions, but n must be at most {COMPOSE_MAX_N}, "
            f"the bound of the closed form, got {n}"
        )
    sol = build_solution(s, c)
    G, convention = compose_outer(sol.u, sol.m2, n // s, sol.branch)
    p = c.poly()
    if identity_residual(G, convention, p, n, sol.m2, sol.branch):
        raise IdentityResidualNonzero(
            f"internal error: composed identity residual nonzero for n={n}, s={s}, c={c}"
        )
    gaps = sign_regions(p)
    neg = [(lo, hi) for lo, hi, sign in gaps if sign < 0]
    if sol.branch is Branch.CIRCULAR and neg:
        tag, fn, regions = BRANCH_ARCCOS, "arccos", neg
    else:
        tag, fn = _WHERE_P_POSITIVE[sol.branch]
        regions = [(lo, hi) for lo, hi, sign in gaps if sign > 0]
    flips = cuts(sol.u, sol.m2, n // s) if sol.branch is Branch.CIRCULAR else []
    pieces = _build_pieces(G, fn, regions, flips)
    return ClosedForm(n, s, c, tag, sol.d, sol.m2, G, convention, sol, pieces, diags)


def sign_regions(p: Poly) -> list[tuple[Optional[IsolatedRoot], Optional[IsolatedRoot], int]]:
    """Every open gap between consecutive real roots of p, with p's sign on it.

    Returns (lo, hi, sign) triples in ascending order; endpoints are
    isolated roots (None for +-infinity).  The sign is evaluated exactly
    at the middle of the gap between the two intervals, whose ends are no
    roots of p.
    """
    bounds: list[Optional[IsolatedRoot]] = [None, *real_roots(p), None]
    return [
        (lo, hi, sign_at(p, sum(_gap(lo, hi)) / 2))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _gap(lo: Optional[IsolatedRoot], hi: Optional[IsolatedRoot]) -> tuple[Fraction, Fraction]:
    """The rational interval strictly between lo and hi."""
    if lo is None and hi is None:
        return Fraction(-1), Fraction(1)
    a = hi.lo - 1 if lo is None else lo.hi
    b = lo.hi + 1 if hi is None else hi.lo
    return a, b


def _build_pieces(G: Poly, fn: str, regions, flips: list[IsolatedRoot]) -> tuple[Piece, ...]:
    """The pieces of each region, split at the cuts (``flips``) inside it."""
    dG, x_poly = G.derivative(), Poly.x()
    pieces: list[Piece] = []
    for lo, hi in regions:
        inner = [r for r in flips if _strictly_inside(r, lo, hi)]
        ends: list[Optional[IsolatedRoot]] = [lo] + inner + [hi]
        # exact signs at one point of the region's first piece.  Inside the
        # region sgn(x G') changes exactly at the cuts (bipartite.cuts).  G
        # does not vanish on a region of arccosh (|g| >= m where p > 0), so
        # sgn G is the region's.
        sx, sg, sdg = noroot_signs(*_gap(lo, ends[1]), x_poly, G, dG)
        sxdg = sx * sdg  # sgn x * sgn G'
        sigma = {"arccos": -sxdg, "arcsinh": sxdg}.get(fn, sxdg * sg)
        for a, b in zip(ends, ends[1:]):
            pieces.append(Piece(a, b, sigma, fn))
            sigma = -sigma
    return tuple(pieces)


def _strictly_inside(r: IsolatedRoot, lo, hi) -> bool:
    lo_ok = lo is None or r.lo > lo.hi
    hi_ok = hi is None or r.hi < hi.lo
    return lo_ok and hi_ok


def numeric_check(
    cf: ClosedForm, interval: tuple[float, float], tol: float = 1e-10
) -> float:
    """Max |quadrature - antiderivative difference| over endpoint pairs.

    The interval must sit strictly inside one rendered piece (the formula
    is only an antiderivative piecewise); raises IntervalNotValid
    otherwise.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise IntervalNotValid("empty interval")
    piece = cf.piece_for(a, b)
    f = Integrand(cf.c.poly().float_coeffs(), cf.radicand_sign)
    mid = (a + b) / 2
    worst = 0.0
    for x0, x1 in ((a, mid), (mid, b), (a, b)):
        val, _ = integrate_adaptive(f, x0, x1, tol)
        diff = cf.antiderivative(piece, x1) - cf.antiderivative(piece, x0)
        worst = max(worst, abs(val - diff))
    return worst


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _m_string(m2: Fraction, latex: bool) -> str:
    if is_square(m2):
        m = rational_sqrt(m2)
        # text parenthesises a fraction as Poly.format does: (g)/(1/4)
        return str(m) if latex or m.denominator == 1 else f"({m})"
    return (rf"\sqrt{{{m2}}}" if latex else f"sqrt({m2})")


def render(cf: ClosedForm, fmt: str = "text") -> str:
    """Deterministic serialization of a closed form (text or latex)."""
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    latex = fmt == "latex"
    lines = []
    sign = "-" if cf.radicand_sign < 0 else ""
    if latex:
        integral = rf"\int \frac{{x\,dx}}{{\sqrt{{{sign}p(x)}}}}"
    else:
        integral = f"int x/sqrt({sign}p(x)) dx"
    arg = cf.G.format(latex=latex)
    if cf.convention == "g" and cf.branch != BRANCH_LOG and cf.m2 != 1:
        ms = _m_string(cf.m2, latex)
        arg = rf"\frac{{{arg}}}{{{ms}}}" if latex else f"({arg})/{ms}"
    for piece, (lo, hi) in zip(cf.pieces, _ends_text(cf.pieces)):
        sg = "-" if piece.sigma < 0 else "+"
        inner = arg
        if piece.fn == "log":
            inner = rf"\left|{arg}\right|" if latex else f"|{arg}|"
        if latex:
            fn = {"arccos": r"\arccos", "arccosh": r"\operatorname{arccosh}",
                  "arcsinh": r"\operatorname{arcsinh}", "log": r"\log"}[piece.fn]
            body = rf"{sg}\frac{{1}}{{{cf.n}}}{fn}\left({inner}\right) + C"
            where = rf"\quad\text{{on }} ({lo},\ {hi})"
        else:
            body = f"{sg}(1/{cf.n})*{piece.fn}({inner}) + C"
            where = f"   on ({lo}, {hi})"
        lines.append(f"{integral} = {body}{where}")
    return "\n".join(lines)


def _ends_text(pieces):
    """Each piece's (lo, hi) as text; an end that is the hi of the piece
    before it is formatted once."""
    prev, prev_text = None, ""
    for piece in pieces:
        lo = prev_text if piece.lo is not None and piece.lo == prev else _endpoint_str(piece.lo, True)
        prev, prev_text = piece.hi, _endpoint_str(piece.hi, False)
        yield lo, prev_text


def render_refusal(r: Refusal) -> str:
    lines = [f"no elementary form of degree n={r.n}: {r.reason}"]
    lines += [f"  {dv.line()}" for dv in r.divisors]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# coefficient completion
# ---------------------------------------------------------------------------

_TARGET_CLASS = {
    1: ("even", lambda s: s % 2 == 0),
    2: ("congruent to 3 mod 4", lambda s: s % 4 == 3),
    4: ("congruent to 5 mod 8", lambda s: s % 8 == 5),
}


@dataclass
class CompletionEntry:
    root: IsolatedRoot
    c: Optional[QuarticCoeffs]
    outcome: ClosedForm | Refusal | None
    note: str

    def as_dict(self) -> dict:
        d: dict = {
            "root": str(self.root.lo) if self.root.exact else [str(self.root.lo), str(self.root.hi)],
            "exact": self.root.exact,
            "note": self.note,
        }
        if self.outcome is not None:
            d["decision"] = self.outcome.as_dict()
        return d


@dataclass
class CompletionResult:
    n: int
    s: int
    target: int
    fixed: dict[int, Fraction]
    entries: list[CompletionEntry]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "target": f"c{self.target}",
            "fixed": {f"c{k}": str(v) for k, v in sorted(self.fixed.items())},
            "solutions": [e.as_dict() for e in self.entries],
        }


def complete_coefficient(
    n: int,
    fixed: dict[int, Fraction],
    target: int,
    force_s: int | None = None,
) -> CompletionResult:
    """Solve F_1 = 0 for one missing quartic coefficient, then re-decide.

    The divisor s is the largest divisor of n in the parity class that
    guarantees an odd-degree (hence real-solvable) univariate condition:
    even s for c1, s = 3 mod 4 for c2, s = 5 mod 8 for c4.  Roots are
    isolated exactly; rational roots get a full exact decision, which may
    still refuse (a root of F_1 alone does not guarantee the auxiliary
    condition), or whose closed form may be due above COMPOSE_MAX_N: that
    root's note then names the divisor and the bound.  Raises ClassNotCovered when no divisor qualifies, and
    ValueError when n exceeds SCAN_MAX_N or s exceeds FK_MAX_S, before
    F_1 is built, or when F_1 vanishes identically in the target.
    """
    if target not in (1, 2, 3, 4):
        raise ValueError("target must identify one of c1..c4")
    if set(fixed) != {1, 2, 3, 4} - {target}:
        raise ValueError("fixed must carry exactly the other three coefficients")
    _check_n(n)
    fixed = {k: Fraction(v) for k, v in fixed.items()}
    if force_s is not None:
        if force_s < 2 or n % force_s:
            raise ValueError("forced s must be a divisor of n, at least 2")
        s = force_s
    else:
        if target not in _TARGET_CLASS:
            raise ClassNotCovered(
                f"no parity class guarantees a real completion for c{target}"
            )
        name, member = _TARGET_CLASS[target]
        candidates = [s for s in divisors_from_two(n) if member(s)]
        if not candidates:
            raise ClassNotCovered(
                f"n={n} has no divisor {name}; no completion guarantee for c{target}"
            )
        s = max(candidates)
    if s > FK_MAX_S:
        raise ValueError(
            f"complete solves F_1 = 0 at s={s}, of degree up to {(s - 1) // target} "
            f"in c{target}; the divisor s must be at most {FK_MAX_S}"
        )
    f1 = f1_polynomial(s, target, fixed)
    if not f1:
        values = ", ".join(f"c{k} = {v}" for k, v in sorted(fixed.items()))
        raise ValueError(f"F_1 vanishes identically in c{target} at s = {s} for {values}")
    entries: list[CompletionEntry] = []
    for root in real_roots(f1):
        if root.exact:
            vals = dict(fixed)
            vals[target] = root.lo
            c = QuarticCoeffs.of(vals[1], vals[2], vals[3], vals[4])
            try:
                outcome = decide(n, c)
            except ComposeBoundExceeded as exc:
                entries.append(CompletionEntry(root, c, None, str(exc)))
                continue
            note = "decided-yes" if isinstance(outcome, ClosedForm) else "decided-no"
            entries.append(CompletionEntry(root, c, outcome, note))
        else:
            entries.append(
                CompletionEntry(
                    root,
                    None,
                    None,
                    "irrational root isolated; exact decision needs rational input",
                )
            )
    return CompletionResult(n, s, target, fixed, entries)
