"""Host-speed correction: rescale each operation's time by the speed of a
fixed pure-Python reference loop run just before, during and just after it.

On a shared host the interpreter's speed drifts by tens of percent within
seconds, and CPU time drifts with it, so neither wall nor CPU time repeats
from run to run.  The reference loop does the same kind of work as the
program (Python integer arithmetic, masking, branches), so the ratio
op_time / ref_time is far steadier than op_time alone.

Each operation is bracketed by one reference loop before and one after.  A
long operation sees the host change under it, so while it runs an interval
timer (SIGALRM every SAMPLE_INTERVAL_S) runs the loop again from a signal
handler; the handler's time is taken out of the operation's time.  The host
estimate is the median of all the loop times, and the corrected time is

    op_time * NOMINAL_REF_S / median(loop times)

where NOMINAL_REF_S is a constant of the benchmark.  Python runs signal
handlers in the main thread between bytecodes, so this starts no thread.
"""

from __future__ import annotations

import signal
import statistics
import time

MASK64 = (1 << 64) - 1

#: Iterations of the reference loop.
REF_ITERS = 600
#: Nominal reference-loop duration in seconds, about its median on the
#: 2-core reference host (see README.md).  Corrected times are expressed as
#: if every reference loop had taken exactly this long.
NOMINAL_REF_S = 0.0002
#: Period of the in-operation reference samples.
SAMPLE_INTERVAL_S = 0.005


def ref_loop() -> int:
    """The fixed reference workload: an LCG with 64-bit masking and shifts."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    for _ in range(REF_ITERS):
        x = (x * 0x5851F42D4C957F2D + 1442695040888963407) & MASK64
        acc ^= x >> 29
        if acc & 1:
            acc += 3
    return acc


class Clock:
    """Times operations against the reference loop.

    ``timed`` returns the operation's result; per-kind raw and corrected
    durations accumulate in ``raw`` and ``corrected``.  ``factors`` keeps
    the correction factor of every operation in call order, so a tracer can
    rescale the spans recorded inside it; ``in_op`` is true while an
    operation runs, and ``stolen`` counts the seconds the in-operation
    samples have taken so far.
    """

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.corrected: dict[str, list[float]] = {}
        self.factors: list[float] = []
        self.in_op = False
        self.stolen = 0.0
        self._loops: list[float] = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        ref_loop()
        t1 = time.perf_counter()
        self._loops.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def timed(self, kind: str, fn, *args):
        self._loops = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        stolen = self.stolen
        self.in_op = True
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            op = time.perf_counter() - t0 - (self.stolen - stolen)
            self.in_op = False
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            factor = NOMINAL_REF_S / statistics.median(self._loops)
            self.factors.append(factor)
            self.raw.setdefault(kind, []).append(op)
            self.corrected.setdefault(kind, []).append(op * factor)

    def median(self, kind: str, corrected: bool = True) -> float:
        return statistics.median((self.corrected if corrected else self.raw)[kind])
