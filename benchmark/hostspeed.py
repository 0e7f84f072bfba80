"""Host-speed reference for timing on a shared host.

The hosts this benchmark runs on share their cores with other tenants, and
a fixed piece of code can take 1.5x longer in one minute than in the next
(measured on a 2-vCPU Intel Xeon host: the same round read 0.45 s and
0.9 s within one minute).  A median over a 20 s run does not remove that,
so each timed region is sampled while it runs: SIGALRM fires every
SAMPLE_INTERVAL_S and its handler times `kernel`, a fixed mix of
interpreter and numpy work that touches no shearbeam code.  A region is
then reported

    raw   wall seconds, with the time spent in the handler left out;
    norm  raw * REF_KERNEL_S / (median kernel time while the region ran),

that is, in seconds of a host that runs the kernel in REF_KERNEL_S.  On
that host both coincide; under contention `norm` stays put while `raw`
grows.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
# Time of `kernel()` on a 2-vCPU Intel Xeon host when not contended (its
# fastest decile; the median under contention was 1.5 ms).
REF_KERNEL_S = 0.0009


def _step(x: int) -> int:
    return x + 1


_SMALL = np.arange(400.0)
_LARGE = np.arange(5000.0)


def kernel() -> float:
    """Time one pass of a fixed mix of interpreter work (calls, dict and
    list operations) and small and medium numpy operations.  Either half
    alone tracked the workloads' slow-downs less well than the mix."""
    start = time.perf_counter()
    x, table = 0, {}
    for k in range(4000):
        x = _step(x)
        table[k & 255] = x
    values = [float(i) for i in range(2000)]
    sum(values)
    sorted(values, reverse=True)
    for _ in range(60):
        _SMALL.sum()
        _SMALL * 2.0
        _SMALL[1:] + _SMALL[:-1]
    for _ in range(40):
        _LARGE.sum()
        _LARGE * 2.0
    return time.perf_counter() - start


class Sampler:
    """Samples `kernel` before, during (from SIGALRM) and after a region."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the SIGALRM handler

    def _on_alarm(self, signum, frame) -> None:
        elapsed = kernel()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        self.samples.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())

    def scale(self) -> float:
        """Factor that turns this region's raw seconds into norm seconds."""
        return scale(self.samples)


def scale(samples: list[float]) -> float:
    return REF_KERNEL_S / statistics.median(samples)
