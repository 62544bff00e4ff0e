"""Machine-speed calibration for the benchmark's timings.

On a shared VM the speed of a vCPU drifts with what the host's other
tenants run: a fixed loop can take 30% more CPU time for seconds or minutes
at a stretch, and that drift moves every timing of a run alike.  While a
workload runs, a profiling timer interrupts it every EVERY_S seconds of CPU
time and runs a fixed kernel; each operation is then scaled by how fast the
kernel ran while it ran:

    normalised = (cpu - kernel time inside it) * REF_S / (mean kernel time during it)

The mean, not the median: when the host's load comes and goes within
milliseconds the samples fall into a fast and a slow cluster, an operation
runs at their average, and a median would jump from one cluster to the
other.
The kernel is code of the benchmark's own, never of gwinv, so a change to
the library moves the operations and not the scale.  REF_S is the kernel's
median CPU time on the machine the benchmark was written on (2-vCPU x86
VM, Intel Xeon at 2.1 GHz, CPython 3.11), so normalised times read as CPU
times there.  The raw CPU times stay in the run's details line.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_S = 0.9e-3
# CPU seconds of work between two kernel samples (the kernel adds ~5%).
EVERY_S = 0.02
# An operation is scaled by the samples taken while it ran, widened to the
# MIN_NEAR nearest when it was too short to be interrupted that often.
MIN_NEAR = 10

_MASK = (1 << 64) - 1
_MOD = (1 << 61) - 1
_spent = 0.0


def spent() -> float:
    """CPU seconds that kernel samples of this thread have taken so far;
    workloads.Timer takes them out of the operations they interrupt."""
    return _spent


class _Term:
    __slots__ = ("key", "coeff")

    def __init__(self, key: tuple, coeff: int):
        self.key = key
        self.coeff = coeff

    def plus(self, other: "_Term") -> "_Term":
        return _Term(self.key, (self.coeff + other.coeff) % _MOD)


def kernel() -> int:
    """Fixed interpreter-bound work shaped like the library's hot paths:
    small objects, method calls, dictionary updates keyed by small tuples
    and a sort.  (Big-integer arithmetic is left out: it ran up to 10%
    further ahead of the library's code than this in the machine's fast
    phases.)"""
    x = 0x9E3779B97F4A7C15
    table: dict = {}
    for _ in range(900):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        term = _Term((x & 15, (x >> 4) & 15), x >> 40)
        old = table.get(term.key)
        table[term.key] = term if old is None else old.plus(term)
    acc = 1
    for key, term in sorted(table.items()):
        acc = (acc * (term.coeff | 1) + key[0]) % _MOD
    return acc


class Speed:
    """Kernel samples in order: the thread CPU time each was taken at and
    the CPU seconds it took.  Thread CPU time, because while a profiling
    timer is armed Linux updates the process CPU clock only at ticks."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._old = None

    def sample(self, *_signal) -> None:
        global _spent
        h0 = time.thread_time()
        kernel()
        h1 = time.thread_time()
        self.at.append(h0)
        self.took.append(h1 - h0)
        _spent += time.thread_time() - h0

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def __enter__(self):
        """Sample every EVERY_S seconds of this process's CPU time."""
        self.burst(MIN_NEAR)
        self._old = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.burst(MIN_NEAR)

    def scale(self, c0: float, c1: float) -> float:
        """REF_S over the mean kernel time of the samples taken between CPU
        times c0 and c1, widened to MIN_NEAR."""
        lo = bisect.bisect_left(self.at, c0)
        hi = bisect.bisect_right(self.at, c1)
        while hi - lo < MIN_NEAR and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REF_S / statistics.fmean(self.took[lo:hi])

    def overall(self) -> float:
        """REF_S over the mean of every sample."""
        return REF_S / statistics.fmean(self.took)
