"""How fast is the host right now?  A fixed numpy kernel, timed.

The reference host is a small KVM guest whose speed drifts by itself: on
the idle machine a fixed kernel runs up to 1.7x slower for tens of seconds
at a time, and whole benchmark runs with it (README, "Host-speed
normalisation").  The measurement loop therefore times this kernel right
before and right after every window and divides the window's wall and CPU
time by the resulting *speed factor* (measured time / nominal time), so
the gated metrics read as "at nominal host speed".  The raw timings are
reported next to them.

The kernel is the benchmark's own: it touches nothing from ``repro``, so
no change to the program can move it.  Its mix -- cache-resident
elementwise maths and FFT at the atmosphere's grid size, a small complex
contraction, and memory-bound passes over ocean-sized arrays -- follows
what the model itself does.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on the reference host in a quiet phase (factor 1.0).
NOMINAL_SECONDS = 0.0205
#: Above this factor the host counts as noisy.
NOISY_FACTOR = 1.15


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((18, 40, 48))
        self._b = rng.random((18, 40, 48))
        self._o = rng.random((16, 128, 128))
        self._p = rng.random((16, 128, 128))
        self._w = rng.random((40, 16, 16))
        self._f = rng.random((18, 40, 16)) + 1j * rng.random((18, 40, 16))
        self.sample()       # first touch of the arrays and of numpy's FFT plan

    def sample(self) -> float:
        """Speed factor now: 1.0 nominal, 1.3 = the host is 1.3x slower."""
        a, b, o, p = self._a, self._b, self._o, self._p
        t0 = time.perf_counter()
        for _ in range(6):
            c = a * b + np.exp(a)
            np.fft.rfft(c, axis=-1)
            np.einsum("ljm,jmk->lmk", self._f, self._w)
            np.where(o > 0.5, o * p, 0.0) + o * o - p
        return (time.perf_counter() - t0) / NOMINAL_SECONDS
