"""Elapsed times scaled to a reference host speed.

On a shared host the speed of interpreter-bound work can change by half
or more, in stretches from under a second to minutes.  Process CPU time
moves with wall time, so the cause is contention for the core, not
scheduling, and taking medians over more repetitions does not remove it.

So, while a repetition runs, a timer signal every ``INTERVAL_S`` times one
fixed unit of work (``calibration_unit``) between two bytecodes of
whatever is running.  A span's time is its elapsed time minus the time
spent in those units, scaled by (``REFERENCE_UNIT_S`` / the mean unit time
measured during and around the span).  Figures therefore read as seconds
on a host where the unit takes ``REFERENCE_UNIT_S``.  The unit is a frozen
copy of the bitmask work lattice construction does, so contention slows it
about as much as it slows finlat, and no change to finlat can change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REFERENCE_UNIT_S = 0.00075
INTERVAL_S = 0.02


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibration_unit(side: int = 5) -> float:
    """Seconds taken to build the order and join/meet tables of a fixed grid."""
    start = perf_counter()
    n = side * side
    up = [0] * n
    for x in reversed(range(n)):
        up[x] = 1 << x
        if x + side < n:
            up[x] |= up[x + side]
        if (x + 1) % side:
            up[x] |= up[x + 1]
    down = [0] * n
    for x in range(n):
        for y in _bits(up[x]):
            down[y] |= 1 << x
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = up[i] & up[j]
            join[i][j] = [k for k in _bits(common) if down[k] & common == 1 << k][0]
            common = down[i] & down[j]
            join[j][i] = [k for k in _bits(common) if up[k] & common == 1 << k][0]
    return perf_counter() - start


class HostClock:
    """A context that samples host speed; ``now()`` marks span ends."""

    def __init__(self):
        self._times: list[float] = []  # when each unit ended
        self._units: list[float] = []  # how long each unit took
        self._spent = 0.0  # total time inside the sampler

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        unit = calibration_unit()
        end = perf_counter()
        self._times.append(end)
        self._units.append(unit)
        self._spent += end - start

    def __enter__(self) -> "HostClock":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        # A median of three neighbouring units damps one hit by an interrupt.
        units = self._units
        self._units = [statistics.median(units[max(0, j - 1) : j + 2]) for j in range(len(units))]

    def now(self) -> tuple[float, float]:
        return perf_counter(), self._spent

    @property
    def units(self) -> int:
        return len(self._units)

    def raw(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Elapsed seconds between two marks, sampler time excluded."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Reference seconds between two marks; call after the context exits."""
        lo = max(bisect.bisect_left(self._times, start[0]) - 1, 0)
        hi = bisect.bisect_right(self._times, end[0]) + 1
        mean_unit = statistics.fmean(self._units[lo:hi])
        return self.raw(start, end) * REFERENCE_UNIT_S / mean_unit
