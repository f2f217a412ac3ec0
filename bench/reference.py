"""Machine-speed reference for correcting timings on a drifting machine.

On the 2-core shared VM the benchmark was defined on (Python 3.11, numpy
2.4, OpenBLAS 0.3.31 with one thread), the same code runs up to 60% faster
or slower from one half-minute to the next, with no steal time reported,
and the two cores drift apart. ``run.py`` therefore pins itself and every
process it starts to one core, and times a fixed reference right before
and right after each measured interval. The interval's time is scaled by
``speed = nominal / reference time``, the mean of the two readings, to
what it would have been at nominal speed. The references are part of the
benchmark, so no change to annuflow can move them.

- :func:`in_process`, for intervals inside one process: a kernel of the
  kinds of work the workloads do, namely numpy arithmetic on length-49
  complex vectors with 49 x 49 matrix-vector products (like the
  simulator's advection loop) and a 97 x 97 dense QZ (like
  ``generalized_eig`` at N = 96).
- :func:`fresh_process`, for fresh processes: a fresh interpreter that
  imports numpy and scipy.linalg and runs the kernel once (this file run
  as a script). It follows the start-up and import costs that dominate a
  short command, which the in-process kernel does not.

    python3 bench/reference.py
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.linalg as sla

#: median kernel time and reference-process time on the machine above
NOMINAL_S = 0.03
NOMINAL_PROCESS_S = 0.45
#: a reading older than this is not reused as the "before" of an interval
FRESH_S = 0.1


class Kernel:
    """The in-process reference kernel on fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20250807)
        self._vecs = [rng.standard_normal(49) + 1j * rng.standard_normal(49)
                      for _ in range(4)]
        self._r = np.linspace(1.0, 3.0, 49)
        self._mat = rng.standard_normal((49, 49))
        self._a = rng.standard_normal((97, 97))
        self._b = rng.standard_normal((97, 97))

    def seconds(self) -> float:
        v, r, m = self._vecs, self._r, self._mat
        t0 = time.perf_counter()
        for _ in range(300):
            1j * (2 * v[0] / r * (m @ v[1]) - 3 * (m @ v[2]) / r * v[3])
        for _ in range(3):
            sla.eig(self._a, self._b)
        return time.perf_counter() - t0


def _process_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, stdin=subprocess.DEVNULL,
                   timeout=60)
    return time.perf_counter() - t0


class Reference:
    """Speed readings of one reference and intervals bracketed by them."""

    def __init__(self, nominal_s: float, seconds):
        self._nominal, self._seconds = nominal_s, seconds
        self.readings: list[float] = []
        self._taken = float("-inf")

    def speed(self) -> float:
        """Nominal reference time over the measured reference time."""
        s = self._nominal / self._seconds()
        self._taken = time.perf_counter()
        self.readings.append(s)
        return s

    def measure(self, fn):
        """(result, raw seconds, speed) of ``fn()``: the reference runs
        after it, and before it unless the last reading was just taken.
        Raw seconds times speed is the interval at nominal speed."""
        t0 = time.perf_counter()
        before = self.readings[-1] if t0 - self._taken < FRESH_S else self.speed()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, 0.5 * (before + self.speed())


def in_process() -> Reference:
    return Reference(NOMINAL_S, Kernel().seconds)


def fresh_process() -> Reference:
    return Reference(NOMINAL_PROCESS_S, _process_seconds)


if __name__ == "__main__":
    Kernel().seconds()
