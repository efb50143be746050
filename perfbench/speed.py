"""The machine's speed during the timed phase, from a fixed reference.

The shared host this benchmark runs on changes speed by up to half within
seconds, as other tenants load it, so a job's wall time says as much about
the host as about the program. ``reference_ms`` times a fixed piece of work
that no change to xepecs touches. It is the mix the program's hot paths are
made of (interpreted arithmetic and dict updates, small-matrix numpy calls),
so its time follows the host's speed. A job's wall time times
``NOMINAL_MS / reference`` is its time at the host's usual speed.

Import this module after the BLAS thread settings are in the environment:
it imports numpy.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

import numpy as np

# reference_ms's median on the 2-vCPU 2.1 GHz Xeon VM the benchmark was
# written on, so adjusted times read as wall times at that machine's usual speed
NOMINAL_MS = 2.0
INTERVAL_S = 0.2   # between samples taken while an in-process job runs

_MATRIX = np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T


def reference_ms() -> float:
    """Wall time (ms) of the fixed reference work."""
    t = time.perf_counter()
    acc = {}
    for k in range(6000):
        acc[k & 63] = acc.get(k & 63, 0) + k * k
    for _ in range(70):
        np.linalg.eigh(_MATRIX)
    return (time.perf_counter() - t) * 1e3


class SpeedProbe:
    """Reference samples taken between jobs and, with ``during_jobs``, every
    INTERVAL_S while a job runs.

    A sample taken during a job runs in a SIGALRM handler, which pauses the
    job. ``clock`` leaves those pauses out, so a job timed with it is not
    charged for the samples. A job that runs in a child process is not
    paused by the handler, so it is sampled only between jobs.
    """

    def __init__(self, during_jobs: bool):
        self.during_jobs = during_jobs
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._sampling = False
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        if self._sampling:   # the timer fired during a between-job sample
            return
        self._sampling = True
        t = time.perf_counter()
        self.samples.append(reference_ms())
        self.paused_s += time.perf_counter() - t
        self._sampling = False

    def clock(self) -> float:
        """perf_counter seconds, less the time spent sampling."""
        return time.perf_counter() - self.paused_s

    def mean_since(self, first: int) -> float:
        """Mean of the samples from index ``first`` on."""
        return fmean(self.samples[first:])

    def __enter__(self) -> SpeedProbe:
        if self.during_jobs:
            self._old_handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during_jobs:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
