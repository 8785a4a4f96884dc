"""The host-speed probe: reports a timed call at a fixed reference speed of
the host.

The benchmark runs on a few cores of a shared host whose speed changes with
its other tenants: the median time of a fixed piece of work over 15 s drifts
between 1x and 1.8x its lowest value over minutes, and single samples vary
more, in bursts within a second. A 10 s phase timed in a slow period reads up
to half again as long as the same phase a minute later, which is more than any
bound a regression check can use.

The probe measures the host's speed in the timed process itself: every
``PERIOD_S`` seconds a SIGALRM handler times ``unit_work``, a fixed piece of
work of about 2 ms that mixes small float32 NumPy ops with a pure-Python loop,
as the program does. A call timed from ``t0`` to ``t1`` is then reported as

    (t1 - t0 - probe time inside the call) * REFERENCE_UNIT_S / mean probe sample

where the probe samples averaged are the ones taken during the call, or the
``MIN_SAMPLES`` nearest to it when the call is shorter than that. The result is
the call's time on a host where ``unit_work`` takes ``REFERENCE_UNIT_S``. A
change to the program moves its own time and not the probe's, so it shows in
full; a change of host speed moves both and cancels.

The handler runs between the program's bytecodes, so it delays the program by
its own duration only (about 1% at this period), and that time is taken out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
REFERENCE_UNIT_S = 0.002
MIN_SAMPLES = 5

_M = (np.arange(576, dtype=np.float32).reshape(24, 24) % 7 - 3) / np.float32(24)


def unit_work() -> int:
    x = _M
    for _ in range(100):
        x = np.maximum(x @ _M, np.float32(0)) + _M
        x = x / np.float32(x.max() or 1)
    acc = int(x.sum() > 0)
    for i in range(8000):
        acc += i % 7
    return acc


class HostProbe:
    """Samples the host's speed while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        unit_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def seconds(self, t0: float, t1: float) -> float:
        """The call timed from t0 to t1, at the reference speed."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        near = inside
        if len(near) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda sd: abs(sd[0] - mid))[:MIN_SAMPLES]]
        if not near:
            raise RuntimeError("no host-speed samples: the probe was not running")
        return (t1 - t0 - sum(inside)) * REFERENCE_UNIT_S / statistics.fmean(near)

    def summary(self) -> dict:
        durations = [d for _, d in self.samples]
        return {
            "samples": len(durations),
            "median_s": statistics.median(durations) if durations else None,
        }
