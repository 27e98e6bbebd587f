"""How fast the host runs, measured inside the process being timed.

A shared host's speed swings by up to 2x within seconds, the same for every
kind of pure-Python work.  So each timed process also times ``unit()``, a
fixed piece of Fraction arithmetic from the standard library alone, at the
same moments and on the same CPU, and run.py scales the process's time by
``scale()`` of those samples: timed metrics are given in seconds at the host
speed at which one unit takes ``UNIT_REF_S``.  No change to the program can
move the unit's time.
"""

import threading
import time
from fractions import Fraction

# About the mean unit time in a job process on a 2-vCPU Xeon with CPython 3.11.
UNIT_REF_S = 0.0007
SAMPLE_EVERY_S = 0.25
SETUP_UNITS = 12


def unit() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k * k + 1, 3 * k + 2) * Fraction(7 ** (k % 20), 5 ** (k % 17) + k)
    return acc


def time_unit() -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def scale(samples: list) -> float:
    """``UNIT_REF_S`` over the mean unit time, the highest and lowest tenth
    of the samples left out (a sample that a thread switch or an interrupt
    cut into reads high)."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return UNIT_REF_S * len(kept) / sum(kept)


class Sampler:
    """Times one unit now, one every ``SAMPLE_EVERY_S`` from a thread, and
    one at ``stop()``, so that even a short process has two samples.  Under
    the GIL the unit runs while the main thread waits, on the same CPU."""

    def __init__(self) -> None:
        self.samples = [time_unit()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(time_unit())

    def stop(self) -> list:
        self._stop.set()
        self._thread.join()
        self.samples.append(time_unit())
        return self.samples

