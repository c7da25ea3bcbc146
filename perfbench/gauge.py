"""Machine-speed gauge: scales measured times to a fixed nominal speed.

Other tenants of a shared virtual machine slow it by up to 1.8x, in
phases of seconds to minutes, and a whole run can fall inside one slow
phase.  The gauge times a fixed reference computation (pure-Python
Fraction arithmetic, the kind of work bicheb does, and no bicheb code)
every READ_EVERY_S seconds between operations.  A time t measured at
some moment is reported as t * NOMINAL_S / r, where r is the median of
the reference times read within WINDOW_S of it: the time t would take
on a machine where the reference takes NOMINAL_S.  A phase that slows
bicheb and the reference alike cancels; a change to bicheb does not
touch the reference.

On a two-vCPU VM, over 4-second stretches of a 40-second loop, the time
of one `decide` call spread by 0.23-0.27 (quartile distance over
median) and its gauged time by 0.03-0.05.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.004  # the reference's time on a quiet stretch of that VM
READ_EVERY_S = 0.1
WINDOW_S = 0.25
MIN_READINGS = 3


def reference() -> Fraction:
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k)
    return total


class Gauge:
    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (midpoint, seconds), by time
        self._last = float("-inf")

    def read(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.readings.append(((t0 + t1) / 2, t1 - t0))
        self._last = t1

    def maybe_read(self) -> None:
        """Read unless the last reading is less than READ_EVERY_S old."""
        if time.perf_counter() - self._last >= READ_EVERY_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S / the median reference time near [start, end]: the
        readings within WINDOW_S of it, widened to the MIN_READINGS
        nearest when there are fewer."""
        mids = [m for m, _ in self.readings]
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, end + WINDOW_S)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(mids)):
            before = start - mids[lo - 1] if lo > 0 else float("inf")
            after = mids[hi] - end if hi < len(mids) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(s for _, s in self.readings[lo:hi])
