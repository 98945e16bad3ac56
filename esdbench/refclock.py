"""A fixed reference kernel, timed between commands, to factor out machine speed.

On a shared host the speed of the benchmark's CPU drifts by up to ~1.7x
over seconds to minutes, and CPU time tracks wall time through it: the
process is slowed, not descheduled, so no clock of the process itself
removes the drift.  A fixed kernel that does the same kind of work as the
program (4x4 complex eigendecompositions, products and Kronecker products
through numpy, float formatting and arithmetic in Python) slows with it.
Timed right around each command, it gives the machine's speed at that
moment; a command's time divided by the kernel's time at that moment is
the same whichever stretch of speed the command fell in.

Times are reported in *reference seconds*: the measured seconds scaled to
the speed at which one kernel run takes `REF_KERNEL_S`.  The kernel is
part of the benchmark, not of esdsim, so a change to the program cannot
change it.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The nominal duration of one kernel run: the unit of reference seconds.
# The kernel is sized to take about this long on the hardware the README
# describes, so that reference seconds read close to wall seconds there.
REF_KERNEL_S = 1e-3
KERNEL_ROUNDS = 24

# Kernel runs within this many seconds of either end of a timed interval
# set its speed.
WINDOW_PAD_S = 0.3


def _operands() -> list[np.ndarray]:
    rng = np.random.default_rng(20121012)
    mats = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    return [m + m.conj().T for m in mats]


class RefClock:
    """Kernel runs taken during a measurement, and the speed they give for
    any interval of it."""

    def __init__(self) -> None:
        self._ops = _operands()
        self._mid: list[float] = []  # perf_counter at the middle of each run
        self._dur: list[float] = []
        self.sink = 0.0

    def tick(self) -> None:
        """One timed kernel run."""
        t0 = time.perf_counter()
        self.sink += self._kernel()
        t1 = time.perf_counter()
        self._mid.append((t0 + t1) / 2)
        self._dur.append(t1 - t0)

    def since_tick(self) -> float:
        """Seconds since the middle of the last kernel run; needs one run."""
        return time.perf_counter() - self._mid[-1]

    def _kernel(self) -> float:
        acc = 0.0
        ops = self._ops
        for i in range(KERNEL_ROUNDS):
            a = ops[i % 8]
            w, v = np.linalg.eigh(a)
            b = np.kron(a[:2, :2], a[2:, 2:]) @ v
            acc += float(np.abs(np.trace(b))) + float(w[-1])
            s = 0.0
            for k in range(40):
                s += k * 0.5 - s * 1e-3
            acc += len(repr(float(s + w[0])))
        return acc

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1], from the
        median time of the kernel runs within `WINDOW_PAD_S` of the
        interval.  The harness runs the kernel right before every interval
        it times, so the window is never empty."""
        lo = bisect.bisect_left(self._mid, t0 - WINDOW_PAD_S)
        hi = bisect.bisect_right(self._mid, t1 + WINDOW_PAD_S)
        return REF_KERNEL_S / statistics.median(self._dur[lo:hi])
