"""A fixed pure-Python workload that gauges how fast the machine runs Python
at this moment, and a timer that reads it while a job runs.

On a shared machine other tenants slow every instruction of this process by
up to a third, in episodes of a fraction of a second to minutes; CPU time
slows with wall time, so it does not help. The benchmark therefore reads
the ruler before, during and after every job, and rescales the job's wall
time to the speed at which one reading takes ``REFERENCE_S``:
``seconds * REFERENCE_S / median reading``. The ruler shares no code with
lagdeform, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

# A round figure inside the readings on a 2-core x86-64 sandbox (2.1 GHz,
# Python 3.11): from 0.27 ms when the machine is quiet to 0.45 ms when busy.
REFERENCE_S = 0.00035
_ITERATIONS = 2500
# Readings during a job, one per interval of wall time.
INTERVAL_S = 0.025
# Readings taken before a job that also count towards its speed.
WINDOW = 8


def read() -> float:
    """Seconds one ruler pass takes now."""
    coefficients = {"a": 1.5, "b": 2.5}
    total = 0.0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        total += (coefficients["a"] * i + coefficients["b"]) % 7.0
    return time.perf_counter() - start


class Timer:
    """Times one job at a time and rescales it by the ruler.

    While a job runs, a SIGALRM interval timer interrupts it every
    ``INTERVAL_S`` to take a reading; the time the readings take is not
    counted as the job's. Python runs the handler between bytecodes of the
    main thread, so the job itself is not disturbed otherwise. A job's speed
    is the median of its own readings, the one after it and the ``WINDOW``
    readings before it, so a job shorter than the interval still gets a
    steady estimate.
    """

    def __init__(self):
        self._recent: deque = deque(maxlen=WINDOW)
        self._own: list = []
        self._spent = 0.0

    def __enter__(self) -> "Timer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._own.append(read())
        self._spent += time.perf_counter() - start

    def time(self, call) -> tuple:
        """(result, exception, seconds as measured, seconds rescaled)."""
        if not self._recent:
            self._recent.append(read())
        self._own = []
        self._spent = 0.0
        result = error = None
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the caller decides what a failure is
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start
        seconds = elapsed - self._spent
        self._own.append(read())
        speed = statistics.median(list(self._recent) + self._own)
        self._recent.extend(self._own)
        return result, error, seconds, seconds * REFERENCE_S / speed
