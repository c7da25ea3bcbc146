"""Floating-point integration oracle, independent of all exact decisions.

Adaptive 7-15-point Gauss-Kronrod quadrature (QUADPACK's QK15 pair,
without its extrapolation), on the standard library only, behind a
region-guarded integrand: the quartic under the square root must keep
the required sign at every node.  Nodes lie strictly inside each panel,
so the integrand is not evaluated at an endpoint (unless bisection
shrinks a panel to a few ulps).  Used only to cross-check emitted
antiderivatives, never to decide anything.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .poly import horner

# QUADPACK's QK15 tables as doubles: the Kronrod nodes on [0, 1) in
# decreasing order and their weights; the odd positions and the centre
# are the 7-point Gauss nodes, with weights _WG.
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
MAX_PANELS = 200


class RegionViolation(ValueError):
    """Evaluation requested where sign * p(x) is not positive."""


class ToleranceNotReached(RuntimeError):
    """The adaptive scheme could not certify the requested tolerance."""


@dataclass
class Integrand:
    """x / sqrt(sign * p(x)) with a guarded radicand.

    p holds the float coefficients of p, ascending powers
    (``Poly.float_coeffs``).  A node where sign * p(x) is not positive
    raises RegionViolation instead of returning garbage.
    """

    p: Sequence[float]
    sign: int = 1

    def __call__(self, x: float) -> float:
        radicand = self.sign * horner(self.p, x)
        if radicand <= 0:
            raise RegionViolation(f"radicand {radicand:.3g} at x={x:.6g} is not positive")
        return x / math.sqrt(radicand)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10):
    """Integrate f over [a, b]; returns (value, error_estimate).

    Bisects the panel of largest |K15 - G7| until the summed estimate is
    at most tol/10 or MAX_PANELS panels are reached.  Raises
    ToleranceNotReached when the estimate is then above max(tol,
    machine-level); RegionViolation propagates from the integrand
    untouched.
    """
    if a == b:
        return 0.0, 0.0
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    while err > tol / 10 and len(heap) < MAX_PANELS:
        worst, lo, hi, _ = heapq.heappop(heap)
        mid = (lo + hi) / 2
        err += worst
        for x0, x1 in ((lo, mid), (mid, hi)):
            v, e = _gk15(f, x0, x1)
            heapq.heappush(heap, (-e, x0, x1, v))
            err += e
    value, err = math.fsum(v for *_, v in heap), math.fsum(-e for e, *_ in heap)
    if not err <= max(tol, 1e-13 * max(1.0, abs(value))):
        raise ToleranceNotReached(
            f"quadrature error estimate {err:.3g} exceeds tolerance {tol:.3g}"
        )
    return value, err


def _gk15(f, a, b):
    """(K15 value, |K15 - G7|) on one panel."""
    centre, half = (a + b) / 2, (b - a) / 2
    fc = f(centre)
    kronrod, gauss = _WK[7] * fc, _WG[3] * fc
    for j in range(7):
        pair = f(centre - half * _XK[j]) + f(centre + half * _XK[j])
        kronrod += _WK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return kronrod * half, abs((kronrod - gauss) * half)
