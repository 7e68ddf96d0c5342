"""Host-speed probe: times the benchmark's operations against a fixed
reference computation run alongside them.

The benchmark shares its cores with other work, so the host's speed drifts
by tens of percent over seconds and minutes, and a run's wall time measures
the host as much as the program.  `SpeedProbe` runs a small fixed reference
computation (`reference`, benchmark code that no library change touches)
every `INTERVAL` seconds of a timed interval from a SIGALRM handler in the
main thread, and once just before and after the interval.  The interval's
seconds are then rescaled to a host on which the reference takes `REF_S`:

    adjusted = (wall - time spent in the handler) * REF_S / reference time

where the reference time is the time-weighted mean of the samples (each gap
between two samples counts with its length and the mean of its ends' times).
A library change that makes an operation slower raises `adjusted` as it
raises the wall time; a host that runs everything slower raises the
reference time as well and cancels out.  Handler calls are deferred while
the main thread is inside one C call (a HiGHS solve), so long C calls are
sampled at their ends; the time weighting gives such a call its full length.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.1    # seconds between reference samples during an interval
REF_S = 0.003     # nominal reference time: the adjusted seconds' scale

# fixed reference inputs, independent of the workload seed
_rng = np.random.default_rng(20180528)
_BIG = np.array([int(x) << 40 | int(y) for x, y in
                 zip(_rng.integers(1, 2**42, 500), _rng.integers(0, 2**40, 500))],
                dtype=object)
_FRACS = [Fraction(int(p), int(q)) for p, q in
          zip(_rng.integers(1, 10**12, 27), _rng.integers(1, 10**12, 27))]
_FLOATS = _rng.random(33_000)
_M = (1 << 81) + 12345
_B = 3**50


def reference() -> None:
    """About 3 ms of the library's three kinds of work on a quiet host:
    object-dtype big-integer array arithmetic (the counting kernel), Fraction
    arithmetic (exact interval transport) and float array work (KR layer)."""
    a = _BIG.copy()
    for _ in range(10):
        y = a * 7 + _B
        a = y - (y // _M) * _M + a % 977
    s = Fraction(0)
    for f in _FRACS:
        s = (s + f) * Fraction(3, 7)
        s -= s.numerator // s.denominator
    np.sort(_FLOATS)
    np.sort(_FLOATS[::-1])


class SpeedProbe:
    """Context manager; `time(fn, *args)` returns fn's result, its wall
    seconds less the handler's, and those seconds adjusted to `REF_S`."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []   # (start, end) of each reference
        self._busy = False
        self._old = None

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t = time.perf_counter()
            reference()
            self._samples.append((t, time.perf_counter()))
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, fn, *args):
        self._tick()
        first = len(self._samples) - 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        window = self._samples[first:]
        inside = sum(e - s for s, e in window if s >= t0 and e <= t1)
        wall = t1 - t0 - inside
        gaps = [(s1 - s0, (e0 - s0 + e1 - s1) / 2)
                for (s0, e0), (s1, e1) in zip(window, window[1:])]
        ref = sum(g * d for g, d in gaps) / sum(g for g, _ in gaps)
        return result, wall, wall * REF_S / ref
