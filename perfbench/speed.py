"""Machine-speed probe: express measured times at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  There the same work
can take 1.5x longer a minute later, in CPU time as well as wall time, so
raw times of one run say as much about the neighbours as about chowcheck.
The probe measures the machine's speed through the same interval as the
work and scales the work's time by it:

    time at reference speed = measured time * REF_KERNEL_S / mean kernel time

A SIGPROF interval timer interrupts the process every INTERVAL_S of CPU
time and runs a fixed calibration kernel: sparse multiplication of two
integer polynomials held as dicts of exponent tuples, the operation mix of
chowcheck's Groebner engine.  Because the samples are spread evenly over
the CPU time of the work, their mean slowdown is the work's mean slowdown.
The speed changes within a second too, so each request is scaled by the
samples taken while it ran and the WINDOW samples on either side of it.
The kernel is the benchmark's own code, so a change to chowcheck cannot
speed it up; it runs with the garbage collector off, so chowcheck's heap
size cannot slow it down either.  clock() is perf_counter() minus the time
spent in the kernel, so the probe's own time never counts as work.

Set-up is timed in fresh interpreters, which import this module only after
the timed import and run the kernel a few times then (run.py).
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# CPU time between two kernel samples
INTERVAL_S = 0.05
# mean kernel time on an unloaded 2-core Xeon (CPython 3.11); only a scale:
# every comparison is between times scaled by the same constant
REF_KERNEL_S = 0.0017
# samples on each side of a request that also count towards its speed; a
# request of a few milliseconds has no sample of its own
WINDOW = 4


def _poly(seed: int, nvars: int, count: int) -> dict:
    out = {}
    x = seed
    for _ in range(count):
        x = (x * 1103515245 + 12345) % (1 << 31)
        mono = tuple((x >> (3 * i)) % 4 for i in range(nvars))
        out[mono] = (x % 2000003 - 1000001) * (1 << 40) + x
    return out


_LEFT = _poly(7, 4, 40)
_RIGHT = _poly(11, 4, 40)


def kernel() -> float:
    """Run the calibration kernel once; return its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out = {}
        for m1, c1 in _LEFT.items():
            for m2, c2 in _RIGHT.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Samples the kernel on a CPU-time timer while it is started."""

    def __init__(self):
        self.samples = []   # kernel durations since the last take()
        self.spent = 0.0    # total time spent in the kernel
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:      # a tick that lands inside a sample is dropped
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.samples.append(kernel())
        finally:
            self.spent += perf_counter() - t0
            self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def clock(self) -> float:
        """perf_counter() without the time spent in the kernel."""
        return perf_counter() - self.spent

    def take(self) -> list:
        """Kernel samples since the previous take()."""
        out, self.samples = self.samples, []
        return out


def scale(samples) -> float:
    """Factor that turns measured seconds into reference-speed seconds."""
    if not samples:
        # work shorter than one interval: sample the speed once right now
        samples = [kernel() for _ in range(3)]
    return REF_KERNEL_S * len(samples) / sum(samples)


def span_factors(samples, spans):
    """scale() of each (first, end) range of sample indices, widened by WINDOW."""
    return [scale(samples[max(0, first - WINDOW):end + WINDOW])
            for first, end in spans]
