"""Host-speed normalisation of measured times.

The CPU throughput of a small shared virtual machine drifts within
seconds. A fixed loop timed in 1 s chunks varied from 0.76 to 1.13 s on a
2-core one, and whole benchmark runs of one job set differed by a third in
throughput. That drift
is larger than the changes the benchmark must resolve. So a probe times a
short reference loop right before a job, every ``PERIOD_S`` while it runs
(from a SIGALRM handler) and right after it. The job's time, minus the time
spent in the probe, is multiplied by ``REFERENCE_S / mean(loop times)``.
The loop does the same kind of work as a verify job: small numpy operations
and Python arithmetic. It is benchmark code, so a change to funclag cannot
change it. A scaled time reads as seconds on a host whose reference loop
takes ``REFERENCE_S``.

The samples taken while a job runs are needed for jobs of seconds. Back to
back on a 2-core virtual machine, five seeds each of random-stochastic and
wide-ood (jobs of 0.5-4 s) spread the p50 job time by 14 % and 5 % and the
tail by 12 % and 20 % (interquartile range over median) when probed only
before and after each job; with the samples during the job, by 5 %, 6 %, 6 %
and 4 %.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# typical reference-loop time on the 2-core virtual machine the bounds were set on
REFERENCE_S = 0.0005
ITERATIONS = 100
PERIOD_S = 0.02

_MATRIX = np.linspace(0.1, 1.0, 64).reshape(8, 8)


def reference_loop() -> float:
    """Seconds the fixed reference work takes right now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(ITERATIONS):
        total += float(np.exp(-(_MATRIX @ _MATRIX)).sum()) + math.sqrt(i)
    return time.perf_counter() - start


class Probe:
    """Samples host speed around and during a timed interval (main thread only).

    ``inside`` is the time the samples took while the interval ran, to be
    subtracted from it; ``scale`` takes the remainder to reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0
        self._previous = None

    def __enter__(self) -> "Probe":
        self.samples.append(reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_loop())
        return False

    def _on_alarm(self, signum, frame) -> None:
        seconds = reference_loop()
        self.samples.append(seconds)
        self.inside += seconds

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)
