"""Host seconds corrected for the host's changing speed.

The virtual machine this benchmark was tuned on (2 vCPUs, Intel Xeon,
Python 3.11) runs a thread at a speed that changes by up to about 1.8x. It
switches every few seconds and drifts over minutes. CPU time tracks wall
time and steal time stays near 1%, so the vCPU is not descheduled: it runs
slower. Raw seconds of the same code then spread by 20-50% between runs,
more than any bound a benchmark can usefully set.

`SpeedClock` samples the host's speed while it is active. Every `PERIOD`
seconds a timer signal times a fixed pure-Python kernel of dict look-ups
and small-tuple allocation, the kinds of work sqf's layers do most. A
sample's speed factor is `KERNEL_REF_S` divided by the kernel's time: about
1 when the host runs at its fast speed, about 0.6 when it is slow. An
interval's reference seconds are its raw seconds, less the time the kernel
took inside it, times the mean factor of the samples taken inside it (or of
the latest sample, when none fell inside). That is about the time the work
would have taken had the host run at its fast speed throughout.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD = 0.05  # seconds between samples; the kernel costs about 1.5% of that
KERNEL_REF_S = 0.0005  # the kernel's time on the fast spells of that host

_TABLE = {i: i for i in range(1024)}
_KEYS = list(range(1024))


def kernel() -> int:
    """The fixed work a sample times: dict and list look-ups and stores,
    then small tuples built and stored in a fresh dict."""
    table, keys = _TABLE, _KEYS
    x = 0
    for i in range(600):
        j = (i * 613) & 1023
        x += table[j] + keys[j ^ 5]
        table[j] = x & 1023
    rows = {}
    for i in range(1200):
        k = (i * 2654435761) & 1023
        rows[k] = (k, i & 7, "ab")
        x += len(rows[k])
    return x


class SpeedClock:
    """Times intervals in raw and in reference seconds; sampling runs while
    the clock is entered as a context manager. One process, one thread: the
    samples run in the main thread's signal handler."""

    def __init__(self):
        # (sum of factors, samples, seconds in the kernel), replaced as a whole
        # so that `mark` reads a consistent triple
        self.totals = (0.0, 0, 0.0)
        self.last = 1.0
        self._saved = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection inside the kernel would time the heap, not the host
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        self.last = KERNEL_REF_S / dt
        factors, samples, kernel_s = self.totals
        self.totals = (factors + self.last, samples + 1, kernel_s + dt)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> tuple:
        """Now, with the sample totals so far."""
        while True:
            totals = self.totals
            now = perf_counter()
            if totals is self.totals:  # no sample ran in between
                return (now, *totals)

    def since(self, mark) -> tuple[float, float]:
        """(raw, reference) seconds from `mark` to now, the kernel's own
        time left out of both."""
        now = self.mark()
        raw = now[0] - mark[0] - (now[3] - mark[3])
        samples = now[2] - mark[2]
        factor = (now[1] - mark[1]) / samples if samples else self.last
        return raw, raw * factor

    def mean_factor(self) -> float:
        factors, samples, _ = self.totals
        return factors / samples if samples else 1.0
