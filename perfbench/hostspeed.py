"""Scale measured times to a reference interpreter speed.

The benchmark's host switches between a fast and a slow state every one to
fifteen seconds: a ``structure_report`` of Z48 takes 0.075 s in one and
0.125 s in the other (2-vCPU x86-64 VM).  CPU time inflates with wall time,
so neither clock hides it, and a 20-second run sees an unpredictable mix.  The
meter below times a fixed calibration loop from a SIGALRM handler every
``INTERVAL`` seconds while a measurement runs, and ``scaled`` turns a wall
interval into the seconds it would have taken at ``REFERENCE`` speed:

    scaled = (wall - time spent in the handler) * mean(REFERENCE / cost_i)

over the samples taken during the interval.  The calibration cost is read
from the thread's CPU clock, so time the main thread spends waiting for the
GIL or for another process does not count as host slowness.  The program
must not be able to slow the calibration either, or part of a regression
would be divided out: garbage collection is held off during a sample, so a
larger heap does not make it slower, and each timed pass follows an
untimed one, so the caches are in the same state whatever the program did
before.  sensitivity.py checks this.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL = 0.02
# thread CPU seconds of one timed _calibrate() pass with the host in its
# fast state (the lower of the two modes; the slow one is near 5.5e-4),
# measured on a 2-vCPU x86-64 VM under Python 3.11.7, the machine of
# BASELINE.md.  Scaled times are therefore close to wall times in the fast
# state.
REFERENCE = 3.35e-4


# The calibration imitates the three kinds of code bolkit spends its time
# in: nested-index checks over a table (identity checks, nuclei), set
# closures (generated_subloop, extend_partial_hom) and bit-mask rows
# (search_left_bol).  The slow state slows each kind by a different factor;
# the mix tracked report, classify and search times better than any one
# kind alone.
_Z12 = tuple(tuple((a + b) % 12 + 1 for b in range(12)) for a in range(12))


def _table_check() -> bool:
    c, r = _Z12, range(12)
    return all(c[c[x][y] - 1][z] == c[x][c[y][z] - 1] for x in r for y in r for z in r)


def _closure() -> int:
    rows = _Z12
    members = {1, 3}
    grown = True
    while grown:
        grown = False
        for a in sorted(members):
            ra = rows[a - 1]
            for b in sorted(members):
                for v in (ra[b - 1], ra.index(b) + 1):
                    if v not in members:
                        members.add(v)
                        grown = True
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return len(members) + len(counts)


def _bit_rows() -> int:
    used = [0] * 12
    total = 0
    for r in range(40):
        row = used.copy()
        for z in range(12):
            row[z] |= 1 << ((z * r) % 12)
        total += tuple(v >> 1 for v in row)[r % 12]
    return total


def _calibrate() -> None:
    _table_check()
    _closure()
    _bit_rows()


class HostSpeed:
    """Samples the interpreter's speed while active; use as a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # wall time at which each sample began
        self.walls: list[float] = []  # wall seconds each sample took
        self.ratios: list[float] = []  # REFERENCE / CPU seconds of each sample

    def _sample(self, signum: int, frame: object) -> None:
        # A collection started by the sample's allocations would scan the
        # program's heap and be billed to the host; deferred, it runs in
        # the program's own time once the handler returns.
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0 = time.perf_counter()
            # The program's work has evicted the loop's code and data from
            # the caches, by an amount that depends on the program; a first,
            # untimed pass brings them back, so that the timed one reads the
            # host alone.
            _calibrate()
            c0 = time.thread_time()
            _calibrate()
            cost = time.thread_time() - c0
        finally:
            if collecting:
                gc.enable()
        self.starts.append(w0)
        self.ratios.append(REFERENCE / cost if cost > 0 else 1.0)
        self.walls.append(time.perf_counter() - w0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that the wall interval [t0, t1] would take at REFERENCE speed.

        An interval shorter than a few samples borrows the samples around it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        handler = sum(self.walls[lo:hi])
        pad = max(0, 5 - (hi - lo))
        ratios = self.ratios[max(0, lo - pad) : hi + pad]
        if not ratios:
            return t1 - t0
        return (t1 - t0 - handler) * sum(ratios) / len(ratios)
