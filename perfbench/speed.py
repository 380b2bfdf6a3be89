"""Machine-speed probe: a fixed reference slice sampled through the timed window.

On a 2-vCPU VM of a shared host, the speed the benchmark gets drifts by
20-40% over minutes. The drift slows every kind of operation by about the
same factor, and the process's CPU time grows with its wall time, so it is
the host's load on the cores and caches, not time spent descheduled. A pass
timed at one moment and the same pass timed a few minutes later can differ
by more than any bound a regression check could use.

`SpeedProbe` runs a fixed ~1.2 ms slice of pure-Python work from a SIGALRM
timer every PERIOD_S of wall time while the timed passes run, in the same
process and thread. The slice samples the speed the workload is getting at
that moment. A pass's wall time divided by the mean slice time during that
pass is its cost in reference units, which the drift leaves nearly
unchanged. The time spent in the handler is excluded from `clock()`, which
the workloads use for every op and pass timing, so the raw wall times stay
the program's own.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
_MODULUS = (1 << 521) - 1
_BUFFER_BITS = 23  # 8 MiB: past the per-core L2, so loads go to the shared L3
_LOADS = 1250


def reference_slice(buffer: bytearray, j: int) -> int:
    """Fixed work; returns the walk position for the next slice.

    521-bit modular powers and an integer bytecode loop sample core speed;
    scattered byte loads from an 8 MiB buffer sample the shared cache, which
    the scan layers lean on more than the big-integer layers do.
    """
    x = 3
    for _ in range(24):
        x = pow(x, 65537, _MODULUS)
    s = 0
    for i in range(1500):
        s = (s * 31 + i) & 0xFFFFFFFF
    mask = (1 << _BUFFER_BITS) - 1
    for _ in range(_LOADS):
        j = (j * 1103515245 + 12345) & mask  # full-period walk over the buffer
        s ^= buffer[j]
    return j


class SpeedProbe:
    """Samples reference_slice every PERIOD_S of wall time between start and stop."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock() at sample, seconds)
        self.spent = 0.0  # wall seconds spent in the handler
        self._previous = None
        self._buffer = bytearray(range(256)) * ((1 << _BUFFER_BITS) // 256)
        self._j = 0

    def clock(self) -> float:
        """perf_counter minus the time the probe took; retried if a sample lands mid-read."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._j = reference_slice(self._buffer, self._j)
        end = time.perf_counter()
        self.samples.append((start - self.spent, end - start))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_slice_s(self, start: float, end: float) -> float:
        """Mean slice time over samples taken between two clock() readings."""
        inside = [s for t, s in self.samples if start <= t < end]
        return sum(inside) / len(inside)
