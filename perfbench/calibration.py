"""Calibration against a fixed slice of work, to cancel machine-speed drift.

On a shared host the processor's speed for this code drifts by up to
1.8x within seconds as other tenants load it, with no steal time to show
for it.  Timing a fixed slice of interpreter and numpy work (the kind of
work the program does) in the same interval as a measurement gives the
current speed; dividing by it cancels most of the drift.

:class:`Sampler` times one slice on every SIGALRM tick while a pass runs;
:func:`burst` times slices back to back, around a short measurement such
as a set-up interpreter.  ``NOMINAL_SLICE_S`` converts slice counts back
to seconds at a fixed reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.02
SLICE_ITERS = 1500
# Mean slice time on an idle core of the 2-core Xeon VM the README's
# figures come from.  Changing it rescales setup_s for every commit alike.
NOMINAL_SLICE_S = 0.0006

_regs = np.zeros(4)
_history = np.linspace(0.0, 1.0, 4096)


def run_slice() -> float:
    """Numpy scalar indexing from the interpreter, then one vector reduction."""
    regs = _regs
    for i in range(SLICE_ITERS):
        regs[i & 3] = regs[(i + 1) & 3] * 0.5 + 1.0
    return float((_history * regs[0]).sum())


def burst(slices: int) -> float:
    """Mean time of ``slices`` slices run back to back."""
    start = time.perf_counter()
    for _ in range(slices):
        run_slice()
    return (time.perf_counter() - start) / slices


class Sampler:
    """Times one slice on every SIGALRM tick between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        run_slice()
        self.times.append(time.perf_counter() - start)

    def start(self) -> None:
        self.times = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        return statistics.fmean(self.times)
