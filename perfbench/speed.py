"""Speed-rescaled timing on a machine whose speed drifts.

On shared cores the same work can take 20-40 % longer for minutes at a time,
which no number of repetitions inside one run averages out.  So an untraced
call is cut into stretches by probes: a short fixed reference kernel, timed
at the start and end of the call and, from a timer signal, every
INTERVAL_S in between.  Each stretch is rescaled by NOMINAL_S over the mean
reference time of the probes around it.  The sum is the call's time at the
speed at which the kernel takes NOMINAL_S.  Probe time is left out of both
the raw and the rescaled figure.  Probes change no output of the program.
In a traced call each probe is recorded as a span of its own, so that no
layer is charged for it.
"""

from __future__ import annotations

import signal
from contextlib import nullcontext
from time import perf_counter

import numpy as np

NOMINAL_S = 0.01
INTERVAL_S = 0.5
# batched small-matrix products and interpreted Python, the two kinds of
# work quadsim's time goes to
_MATRICES = np.full((8192, 3, 3), 0.5 + 0.5j)


def reference_s() -> float:
    started = perf_counter()
    for _ in range(2):
        _MATRICES @ _MATRICES
    x = 0
    for i in range(20_000):
        x += i * i
    return perf_counter() - started


class Speedometer:
    def __init__(self, probe_span=nullcontext):
        self.probe_span = probe_span  # context manager factory around each probe
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe

    def probe(self, *_signal) -> None:
        with self.probe_span():
            started = perf_counter()
            reference_s()
            self.probes.append((started, perf_counter()))

    def __enter__(self) -> "Speedometer":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def times(self) -> tuple[float, float]:
        """(raw, rescaled) time between the first and the last probe."""
        raw = rescaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            stretch = s1 - e0
            raw += stretch
            rescaled += stretch * 2.0 * NOMINAL_S / ((e0 - s0) + (e1 - s1))
        return raw, rescaled
