"""Correction of timed intervals for the machine's changing speed.

The benchmark was built on a 2-vCPU virtual machine (Intel Xeon, Python 3.11)
whose cores are shared with other tenants. There a fixed loop takes from 1.0
to more than 2.5 times its fastest time, and the factor changes within a
tenth of a second, so raw wall times of one program at one commit differ by
tens of percent between runs minutes apart.

While a phase is timed, a timer signal runs a short fixed reference loop every
``PERIOD_S`` seconds of wall time and records when it ran. The loop is the
benchmark's own code and does what the program's hot paths do (small numpy
operations driven from the interpreter), so a program change cannot alter
it; of the loops tried, it tracked the program's slowdown closest. The
corrected time of an interval is each slice of it between two reference runs,
scaled by ``REF_S`` over the reference time measured at the end of the slice,
with the reference runs themselves left out: the time the interval would have
taken on a core that runs the reference loop in ``REF_S``. Raw wall times,
less the reference runs, are reported beside the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy

# Short calls see the speed change within a tenth of a second, so the samples
# are dense; the reference loop is short enough to cost 1-3% of wall time.
PERIOD_S = 0.01
# The reference loop's time on the machine above while its core was not
# shared (the fastest few percent of a few thousand runs).
REF_S = 0.00011


_MATRIX = numpy.arange(64.0).reshape(8, 8) / 100.0


def _reference() -> numpy.ndarray:
    out = _MATRIX
    for _ in range(60):
        out = numpy.tanh(out @ _MATRIX)
    return out


class SpeedSampler:
    """Samples the reference loop's time while the ``with`` block runs.

    Uses ``SIGALRM`` and ``ITIMER_REAL``, so it must be entered in the main
    thread and the measured code must not use them itself.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _reference()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` less the reference runs in it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return (end - start) - sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def corrected(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at reference speed, as above.

        Reference runs never straddle ``start`` or ``end``: both are read in
        the main thread, where the signal handler also runs.
        """
        if not self.starts:
            raise RuntimeError("no speed samples were taken")
        total = 0.0
        cursor = start
        i = bisect.bisect_left(self.starts, start)
        while i < len(self.starts) and self.starts[i] < end:
            total += (self.starts[i] - cursor) * REF_S / (self.ends[i] - self.starts[i])
            cursor = self.ends[i]
            i += 1
        # The tail is timed by the next sample, or by the last one taken.
        j = min(i, len(self.starts) - 1)
        total += (end - cursor) * REF_S / (self.ends[j] - self.starts[j])
        return total
