"""Times counted at a fixed reference host speed.

The shared machines this benchmark runs on change speed by up to half in
phases of seconds to minutes, whatever runs, and the process CPU time moves
with the wall time. To take that out, a timer interrupts the work every
`TICK_S` seconds and runs a fixed reference kernel: small numpy calls and a
Python loop, the same kind of work azqsl does. The time it takes tracks the
host's speed at that moment. A stretch of work is then counted in reference
seconds: each piece between two ticks is scaled by `KERNEL_REF_S` over the
kernel time near it (the median of the `SMOOTH` nearest ticks). The time
spent in the kernel itself is not counted as work.

Set-up time is scaled the same way by `touch_s()`, the time to touch fresh
pages, since fresh-process imports follow that rather than the kernel.

A reference second is a second on a host where the kernel takes exactly
`KERNEL_REF_S`. A program change that makes the work slower or faster moves
the reference time as it moves the wall time. A host phase moves both the
wall time and the kernel, so the reference time stays.
"""

from __future__ import annotations

import bisect
import mmap
import signal
import statistics
import time

import numpy as np

TICK_S = 0.1
SMOOTH = 9
KERNEL_REF_S = 1.0e-3
# Set-up is scaled by a different reference: fresh-process imports take
# many page faults, and on the tuning machine their slow phases followed
# the time to touch fresh pages, not the kernel.
TOUCH_BYTES = 64 << 20
TOUCH_REF_S = 0.05
# Samples taken before and after a timed stretch, so even a stretch shorter
# than one tick has a speed to be scaled by.
EDGE_SAMPLES = 5

_MATRIX = np.array([[4.0, 1.0, 0.5, 0.0],
                    [1.0, 3.0, 0.25, 0.5],
                    [0.5, 0.25, 2.0, 1.0],
                    [0.0, 0.5, 1.0, 1.0]])


def kernel() -> float:
    """Run the reference kernel once; return how long it took, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(60):
        np.linalg.eigh(_MATRIX)
    return time.perf_counter() - t0


def touch_s() -> float:
    """Time to map `TOUCH_BYTES` of fresh memory and write one byte per page."""
    t0 = time.perf_counter()
    buf = mmap.mmap(-1, TOUCH_BYTES)
    for offset in range(0, TOUCH_BYTES, mmap.PAGESIZE):
        buf[offset] = 1
    took = time.perf_counter() - t0
    buf.close()
    return took


class HostSpeed:
    """Context manager: while open, samples the kernel on a timer; after
    it closes, `ref_s(a, b)` converts a stretch between two
    `time.perf_counter()` readings into reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None
        self._cum: list[float] = []
        self._factors: list[float] = []

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        took = kernel()
        self.starts.append(t0)
        self.kernel_s.append(took)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "HostSpeed":
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._finish()

    def _finish(self) -> None:
        """Factor per tick from the running median of kernel times, and the
        reference time accumulated up to the start of each tick."""
        n, half = len(self.kernel_s), SMOOTH // 2
        self._factors = [
            KERNEL_REF_S / statistics.median(self.kernel_s[max(0, k - half):k + half + 1])
            for k in range(n)
        ]
        self._cum = [0.0]
        for k in range(1, n):
            self._cum.append(self._cum[-1]
                             + (self.starts[k] - self.ends[k - 1]) * self._factors[k])

    def _at(self, t: float) -> float:
        """Reference seconds of work from the first tick's start to `t`.
        Work before a tick is scaled by that tick's factor; work after the
        last tick by the last factor; time inside a tick counts nothing."""
        k = bisect.bisect_right(self.starts, t)
        if k == 0:
            return (t - self.starts[0]) * self._factors[0]
        if t <= self.ends[k - 1]:
            return self._cum[k - 1]
        factor = self._factors[min(k, len(self._factors) - 1)]
        return self._cum[k - 1] + (t - self.ends[k - 1]) * factor

    def ref_s(self, a: float, b: float) -> float:
        """Reference seconds of the work done between readings `a` < `b`."""
        return self._at(b) - self._at(a)

    def ticks_s(self, a: float, b: float) -> float:
        """Wall seconds between `a` and `b` spent in the kernel, not in work."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts, self.ends))
