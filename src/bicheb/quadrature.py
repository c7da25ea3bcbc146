"""Floating-point integration oracle, independent of all exact decisions.

Wraps adaptive Gauss-Kronrod quadrature (scipy's QUADPACK) behind a
region-guarded integrand: the quartic under the square root must keep
the required sign, with a standoff margin, on the whole panel.  Used
only to cross-check emitted antiderivatives, never to decide anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from scipy.integrate import quad

from .poly import horner


class RegionViolation(ValueError):
    """Evaluation requested where sign * p(x) is not safely positive."""


class ToleranceNotReached(RuntimeError):
    """The adaptive scheme could not certify the requested tolerance."""


@dataclass
class Integrand:
    """x / sqrt(sign * p(x)) with a guarded radicand.

    p holds the float coefficients of p, ascending powers
    (``Poly.float_coeffs``).  standoff is an absolute floor for
    sign * p(x); panels that dip below it raise RegionViolation instead of
    returning garbage.
    """

    p: Sequence[float]
    sign: int = 1
    standoff: float = 0.0

    def __call__(self, x: float) -> float:
        radicand = self.sign * horner(self.p, x)
        if radicand <= self.standoff:
            raise RegionViolation(
                f"radicand {radicand:.3g} at x={x:.6g} under standoff {self.standoff:.3g}"
            )
        return x / math.sqrt(radicand)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10):
    """Integrate f over [a, b]; returns (value, error_estimate).

    Raises ToleranceNotReached when the error estimate cannot be pushed
    below max(tol, machine-level); RegionViolation propagates from the
    integrand untouched.
    """
    if a == b:
        return 0.0, 0.0
    value, err = _quad_checked(f, a, b, tol)
    if err > max(tol, 1e-13 * max(1.0, abs(value))):
        raise ToleranceNotReached(
            f"quadrature error estimate {err:.3g} exceeds tolerance {tol:.3g}"
        )
    return value, err


def _quad_checked(f, a, b, tol):
    out = quad(f, a, b, epsabs=tol * 0.1, epsrel=tol * 0.1, limit=200, full_output=1)
    return out[0], out[1]
