"""Host speed, read from a fixed standard-library kernel.

On a shared host the speed of the CPU the benchmark gets drifts by up to a
half from one ten-second stretch to the next, and the drift slows every
piece of Python code alike. A `Sampler` times this kernel a few times
before each call the benchmark measures and after the last, and, from a
SIGALRM handler, every `INTERVAL_S` during the calls. Each call's time,
less the handler's, is scaled by `REFERENCE_S` over the median kernel time
from the gap before the call to the gap after it: times are reported in
seconds of a host on which the kernel takes `REFERENCE_S`. The kernel uses
no `superkappa` code, so a change to the library moves scaled times by the
same share as raw ones.
"""

import gc
import signal
import statistics
import time

# median kernel time on the host the benchmark was written on (2 vCPUs,
# "Intel(R) Xeon(R) Processor", Python 3.11); scaled times are in its seconds
REFERENCE_S = 4.0e-4
GAP = 3  # samples taken before each call and after the last
BLOCK = 25  # samples added before the first call and after the last
INTERVAL_S = 0.02  # wall time between samples taken during a call

_N = 64
_ADJ = {
    i: ((i * 7 + 1) % _N, (i * 13 + 5) % _N, (i * 3 + 2) % _N, (i + 1) % _N)
    for i in range(_N)
}


def sample():
    """Seconds one run of the kernel takes now: breadth-first searches from
    16 sources of a fixed 64-vertex graph, with the garbage collector off so
    that the library's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for source in range(0, _N, 4):
            seen = {source}
            queue = [source]
            for u in queue:
                for v in _ADJ[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(kernel_s):
    """Factor that turns a time measured while the kernel times `kernel_s`
    were taken into seconds of the reference host."""
    return REFERENCE_S / statistics.median(kernel_s)


class Sampler:
    """Kernel times of one pass, in the order taken, and the per-call scales
    they give. Use as a context manager around the pass: while it is open,
    SIGALRM times the kernel every INTERVAL_S, and `clock()` is a wall clock
    that stops while the handler runs."""

    def __init__(self):
        self.samples = []
        self.marks = []  # where each gap starts in `samples`
        self._spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self._spent += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self._spent

    def take(self, k):
        for _ in range(k):
            self.samples.append(sample())

    def gap(self):
        """Samples taken before a call, or after the last."""
        self.marks.append(len(self.samples))
        self.take(GAP)

    def call_scales(self):
        """scale per call, from the samples between the start of the gap
        before it and the end of the gap after it; the first and the last
        call also take in the samples before the first gap and after the
        last."""
        bounds = [0] + self.marks[1:-1] + [len(self.samples) - GAP]
        return [
            scale(self.samples[lo:hi + GAP]) for lo, hi in zip(bounds, bounds[1:])
        ]
