"""Host speed, sampled during a run, so times can be given at a fixed speed.

On a shared host the same Python code runs up to 1.7x slower for seconds to
minutes at a time, and the slowdown shows in CPU time as much as in wall time
(it is not time stolen by the hypervisor).  Every benchmark time is therefore
also given at a reference speed: while a unit runs, a fixed pure-Python
kernel is timed at step boundaries, at most every INTERVAL_S, and each step's
duration is scaled by REF_SLICE_S over the kernel's duration around it.  The
kernel does the kind of work gaskit does (field arithmetic on small objects,
affine point arithmetic with modular inverses, SHA-256) and calls no gaskit
code, so a faster gaskit still reads faster.  Kernel time is left out of
every step.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
from time import perf_counter

# Kernel time at the reference speed: its typical duration on a quiet
# 2-vCPU Intel Xeon (family 6, model 143) KVM guest under CPython 3.11.
REF_SLICE_S = 0.0025
# Shortest time between two kernel runs; they cost about 5% of a run.
INTERVAL_S = 0.05
# Kernel runs on each side of an instant that set the speed there.
NEIGHBOURS = 2

_P = (1 << 160) - 47
# secp160r1, a = -3
_CURVE_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF
_G = (0x4A96B5688EF573284664698968C38BB913CBFC82,
      0x23A628553168947D59DCC912042351377AC5FB32)


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % _P

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


def _add(p1, p2):
    if p1 is None:
        return p2
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        lam = (3 * x1 * x1 - 3) * pow(2 * y1, -1, _CURVE_P) % _CURVE_P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, _CURVE_P) % _CURVE_P
    x3 = (lam * lam - x1 - x2) % _CURVE_P
    return x3, (lam * (x1 - x3) - y1) % _CURVE_P


def kernel() -> tuple:
    """The fixed calibration work: about REF_SLICE_S on a quiet host."""
    a, b, seen = _Residue(12345678901234567890123), _Residue(987654321987654321), {}
    for i in range(300):
        a = a * b + a
        seen[i & 31] = a
    acc, q, k = None, _G, 0xC0FFEE1234567890ABCDEF12
    while k:
        if k & 1:
            acc = _add(acc, q)
        q = _add(q, q)
        k >>= 1
    h = b"gasbench"
    for _ in range(50):
        h = hashlib.sha256(h).digest()
    return acc, a.v, h


class HostSpeed:
    """Kernel timings over a run, and the scaling they imply."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.at: list[float] = []      # when each kernel run started
        self.took: list[float] = []    # how long it took
        self._due = 0.0

    def sample(self) -> float:
        """Run the kernel now; returns the time it ended."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self._due = end + INTERVAL_S
        return end

    def tick(self, now: float) -> float:
        """At a step boundary: run the kernel if one is due.

        Returns the time the next step starts from, which is `now` or the
        end of the kernel run.
        """
        if self.enabled and now >= self._due:
            return self.sample()
        return now

    def scale(self, at: float) -> float:
        """REF_SLICE_S over the median kernel time of the runs around `at`."""
        if not self.took:
            return 1.0
        i = bisect.bisect_left(self.at, at)
        near = self.took[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return REF_SLICE_S / statistics.median(near)

    def at_ref(self, laps: list[tuple[float, float]]) -> list[float]:
        """(end, duration) laps as durations at the reference speed."""
        return [dur * self.scale(end) for end, dur in laps]
