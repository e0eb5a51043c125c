"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, which moves every timing together.  A fixed
reference loop, made of the same kind of work p2pq does (small tuples,
dicts, frozensets, sorting), is timed at a fixed rate while the
benchmark runs; dividing a timing by the reference's and multiplying
by NOMINAL_S reports it at the speed where the reference takes
NOMINAL_S.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

NOMINAL_S = 0.0033  # reference loop time the scaled figures assume
SAMPLE_EVERY_S = 0.2  # how often a Sampler times the reference


def reference_loop() -> float:
    """Seconds taken by one fixed unit of reference work.

    The garbage collector is off while the loop runs, so its time does
    not depend on how many objects the measured program keeps alive.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        groups: dict = {}
        for i in range(3000):
            key = (f"x{i % 40}", i % 7)
            groups.setdefault(key, []).append(frozenset((i % 11, i % 5, key)))
        sorted(groups, key=lambda k: (k[1], k[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def sample() -> float:
    """Median of three reference runs."""
    return statistics.median(reference_loop() for _ in range(3))


def scale(samples: list) -> float:
    """Factor turning raw seconds, measured while `samples` were taken,
    into seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Times the reference every SAMPLE_EVERY_S seconds from a SIGALRM
    handler, so a request that runs for seconds is sampled while it
    runs, not only before and after.  ``clock`` leaves out the time the
    handler took, so timings read from it exclude the sampling."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds spent in the handler

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def start(self):
        self.samples = [sample()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; the scale factor of the samples taken since
        ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return scale(self.samples)
