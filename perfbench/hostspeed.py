"""Host-speed probe: puts timings taken on a shared host on one scale.

The reference host (2 cores shared with other tenants) switches, for
seconds at a time, between a fast and a slow state about 45% apart; CPU
time follows wall time, so the process is not waiting but running slower.
Runs of 20 s then differ by up to 35% in raw time.  Every timed span is
therefore also reported in *reference seconds*: raw seconds times
``REFERENCE_S / probe``, where ``probe`` is the time of a fixed kernel (a
Python loop, a small SVD and a vectorised complex exponential, like most of
the program) taken right before and right after the span, and
``REFERENCE_S`` its time on the reference host in the fast state.
"""

from __future__ import annotations

import time

import numpy as np

#: a probe older than this is taken again
FRESH_S = 0.01
#: the kernel's time on the reference host in the fast state
REFERENCE_S = 1.0e-3

_A = np.random.default_rng(0).standard_normal((32, 32))
_B = np.random.default_rng(1).standard_normal(20_000)


def _kernel() -> None:
    s = 0
    for i in range(2000):
        s += i * i
    np.linalg.svd(_A, compute_uv=False)
    np.exp(1j * _B).sum()


def probe() -> float:
    """Best of two timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Probes the host at most every FRESH_S and scales spans by it."""

    def __init__(self):
        self._probe = None
        self._at = 0.0

    def reading(self) -> float:
        """The latest probe, taken anew when older than FRESH_S."""
        if self._probe is None or time.perf_counter() - self._at > FRESH_S:
            self._probe = probe()
            self._at = time.perf_counter()
        return self._probe

    def scale(self, before: float) -> float:
        """Reference seconds per raw second over a span that started at the
        reading ``before`` and has just ended."""
        return REFERENCE_S / ((before + self.reading()) / 2.0)
