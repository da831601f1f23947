"""Timing corrected for the speed of a shared host.

On a few vCPUs of a shared machine the same pass can take half again as long
one minute as the next, and CPU time rises with wall time, so neither tells a
slow host from slow code.  `Stopwatch` therefore runs a fixed pure-Python
kernel from an interval timer (SIGALRM) every `PERIOD_S` seconds while a
section runs, and once just before and just after it.  The median kernel time
says how fast the host ran during the section.  The section's scaled time is
its wall time, less the time spent in the kernel, times `NOMINAL_KERNEL_S`
over that median: the seconds the section would take on a host that runs the
kernel in `NOMINAL_KERNEL_S`.

The kernel is the benchmark's own code, so no change to beamlab can move it.
The handler runs between bytecodes of the main thread; during one long call
into C it waits, and the section gets fewer samples.  Use a `Stopwatch` only
in the main thread.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
KERNEL_LOOPS = 15_000
#: Only sets the scale.  On the 2-vCPU Intel Xeon host the baseline was
#: recorded on, the kernel's median time in one run was 0.90-1.50 ms.
NOMINAL_KERNEL_S = 1.0e-3


def kernel_seconds() -> float:
    """Seconds the host takes for the fixed kernel, once."""
    start = perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return perf_counter() - start


class Stopwatch:
    """Times a `with` block; afterwards `wall_s`, `speed` and `scaled_s` are set.

    With `sample=False` it only measures wall time; `speed` is then None and
    `scaled_s` equals `wall_s`.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []
        self.wall_s = self.scaled_s = 0.0
        self.speed: float | None = None
        self._inside = 0.0

    def _on_alarm(self, signum, frame) -> None:
        took = kernel_seconds()
        self.samples.append(took)
        self._inside += took

    def __enter__(self) -> Stopwatch:
        if self.sample:
            self.samples.append(kernel_seconds())
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if not self.sample:
            self.wall_s = self.scaled_s = perf_counter() - self._start
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._start  # an alarm already due ran above
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())
        self.speed = NOMINAL_KERNEL_S / statistics.median(self.samples)
        self.scaled_s = (self.wall_s - self._inside) * self.speed
        return False
