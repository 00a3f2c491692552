"""Wall time corrected for the machine's own speed changes.

The shared machine this benchmark was built on runs the same code at
changing speeds: every 1-7 s it switches between a fast speed and one about
1.5x slower, and the fast speed itself drifts by some 30% over minutes,
because of load outside this process (process CPU time slows by the same
factor, so it is no escape).  Plain wall times of identical passes differed
by 45%, far wider than any useful regression bound.

:class:`SpeedClock` measures the speed while the work runs: every
``INTERVAL`` seconds a SIGALRM handler, in this process and thread, times a
fixed probe of interpreter work, which is what the library's time mostly is
(quadrature callbacks, the RK5(4) loop, config parsing).  ``seconds(t0,
t1)`` is the wall time between two ``perf_counter`` readings with each
stretch scaled by ``(REFERENCE_PROBE / probe_then) ** EXPONENT``: about
the seconds the work would have taken at the speed where the probe takes
``REFERENCE_PROBE``, the fast speed of the machine this was tuned on
(2-core Xeon, Python 3.11).  The probes cost about 1% of the run and touch
nothing in the library.  A probe with numpy kernels in it tracked the
numpy-heavy Volterra calls better but over-corrected the RK5(4) loop by a
third.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL = 0.02
REFERENCE_PROBE = 130e-6
# The library slows by about the probe's slowdown to this power: with the
# full ratio, global-construct and cli-batch read 5-8% faster in the
# machine's slowest stretches than in its fast ones.
EXPONENT = 0.8


def _probe() -> float:
    # interpreter work, which is what the library's time mostly is
    t0 = time.perf_counter()
    s, xs = 0.0, []
    for i in range(1000):
        s += math.sqrt(i + s * 1e-9)
        xs.append(s)
    sorted(xs, reverse=True)
    return time.perf_counter() - t0


class SpeedClock:
    """``with SpeedClock() as clock:``; then ``clock.seconds(t0, t1)``."""

    def __init__(self, times=(), probes=()):
        self.times: list[float] = list(times)
        self.probes: list[float] = list(probes)
        self._old = None

    def _sample(self, signum=None, frame=None):
        p = _probe()
        self.times.append(time.perf_counter())
        self.probes.append(p)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def seconds(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1, each stretch scaled to the reference speed.

        The speed of a stretch between two samples is the mean of its two
        end probes; stretches cut by t0 or t1 count in part, and time after
        the last sample runs at the last probe's speed.
        """
        ts, ps = self.times, self.probes
        total = 0.0
        i = max(0, bisect.bisect_right(ts, t0) - 1)
        while i + 1 < len(ts) and ts[i] < t1:
            lo, hi = max(ts[i], t0), min(ts[i + 1], t1)
            if hi > lo:
                total += (hi - lo) * (2.0 * REFERENCE_PROBE / (ps[i] + ps[i + 1])) ** EXPONENT
            i += 1
        if ts and t1 > ts[-1]:
            total += (t1 - max(ts[-1], t0)) * (REFERENCE_PROBE / ps[-1]) ** EXPONENT
        return total
