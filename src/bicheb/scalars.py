"""Exact rational scalars: parsing, rational square roots, interval search.

Every exact value in the program is an int or a Fraction.  The one
irrational quantity of the method, the line half-width m = sqrt(|d|)/s,
is never formed: it is carried as its rational square m^2 (see
``bipartite.build_solution``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# the interpreter's default int-to-str limit: the CLI lifts the limit while
# a command runs, so a longer run of input digits is refused here
MAX_DIGITS = 4300
# the largest denominator reconstruct_rational tries
RECONSTRUCT_MAX_DEN = 10**6


class NumberTooLong(ValueError):
    """A number's digit run or decimal exponent is past MAX_DIGITS."""


_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", integer, or decimal strings into an exact Fraction.

    Decimals are rationalized exactly: "0.01" -> 1/100, "1e-3" -> 1/1000.
    Anything else, "nan" and "inf" included, raises a ValueError that
    names the text.  A run of more than MAX_DIGITS digits, or a decimal
    exponent above MAX_DIGITS in absolute value, raises NumberTooLong,
    which names the bound and shows the text's start, before any
    conversion.
    """
    text = text.strip()
    shown = repr(text if len(text) <= 20 else text[:20] + "...")
    if len(text) > MAX_DIGITS:  # a shorter text holds no longer run
        # Fraction reads "1_000" as 1000, so underscores do not end a run
        runs = re.findall(r"\d[\d_]*", text)
        digits = max((len(run) - run.count("_") for run in runs), default=0)
        if digits > MAX_DIGITS:
            raise NumberTooLong(
                f"{shown} has a run of {digits} digits; "
                f"numbers are limited to {MAX_DIGITS} digits"
            )
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_DIGITS:
        # Fraction would build 10^|exponent| before anything else
        raise NumberTooLong(
            f"{shown} has a decimal exponent past {MAX_DIGITS}; "
            f"exponents are limited to {MAX_DIGITS} in absolute value"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(
            f"{text!r} is not a rational number (a/b, integer or decimal)"
        ) from None


def is_square(q: Fraction) -> bool:
    """True iff q is the square of a rational."""
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def rational_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational.  Raises otherwise."""
    if not is_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the open interval (lo, hi).

    Continued-fraction descent.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_in_interval(-hi, -lo)
    # now 0 <= lo < hi
    f = lo.numerator // lo.denominator
    if f + 1 < hi:
        return Fraction(f + 1)
    if lo == f:
        # interval (f, hi) with hi <= f+1: answer is f + 1/k, minimal k
        inv = 1 / (hi - f)
        k = inv.numerator // inv.denominator + 1
        return f + Fraction(1, k)
    return f + 1 / simplest_in_interval(1 / (hi - f), 1 / (lo - f))


def reconstruct_rational(x: float) -> Fraction | None:
    """Candidate exact rational for a float, or None.

    Tries escalating denominator bounds and accepts the first candidate
    within float round-off distance of x.  Purely a candidate generator:
    callers must verify the value exactly before trusting it.
    """
    target = Fraction(x)
    bound = 1
    while bound <= RECONSTRUCT_MAX_DEN:
        cand = target.limit_denominator(bound)
        if abs(float(cand) - x) <= 1e-11 * max(1.0, abs(x)):
            return cand
        bound *= 10
    return None
