"""Measure how fast the host runs while a repetition's call runs.

On a shared host other tenants slow a process down up to twofold, in
stretches from under a second to many minutes, and its CPU time grows with
its wall time, so neither tells a slow program from a slow host.
``HostSampler`` times a small fixed probe made of what sqbath spends its
time in (a Python integrand on numpy scalars through a PCHIP interpolant,
as in a quadrature callback) right before the call, every
``PROBE_INTERVAL_S`` of wall time during it and right after it.  The
probe uses numpy and scipy only, so no change to sqbath can change it.
The mean probe time over ``REFERENCE_S`` is the host's slowdown during
the call; a time divided by it is in reference-host seconds: the time the
same work takes on a host on which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.interpolate import PchipInterpolator

PROBE_INTERVAL_S = 0.15
# A fixed unit, never re-tuned, so that the results of different commits
# compare: near the probe's mean wall time on a 2-vCPU Xeon VM at 2.1 GHz
# while other tenants loaded it.
REFERENCE_S = 2e-3

_K = np.geomspace(0.02, 60.0, 64)
_ETA = PchipInterpolator(_K, 0.5 * np.exp(-0.1 * _K), extrapolate=False)
# 96 points, about 2 ms a probe: probes a third as long, dominated by the
# cold caches an interruption leaves, followed the program's slowdown less
_W = np.linspace(0.7, 50.0, 96)


def _integrand(w):
    w = np.asarray(w, dtype=float)
    k = np.sqrt(np.maximum(w * w - 0.25, 0.0))
    eta = _ETA(np.clip(k, _K[0], _K[-1]))
    return np.cosh(2.0 * eta) * w / (1.0 + w * w) * np.exp(-0.02 * w)


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the fixed probe."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for w in _W:
        _integrand(w)
    return time.perf_counter() - wall0, time.process_time() - cpu0


class HostSampler:
    """Context manager that probes the host at entry, every
    ``PROBE_INTERVAL_S`` while active and at exit.

    The periodic probes run from a SIGALRM handler, which Python calls
    between bytecodes of the main thread, so their time is part of any
    time measured inside the block; ``inside`` holds their total wall and
    CPU seconds, to be subtracted once ``stop`` has ended them.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.inside = [0.0, 0.0]

    def _on_alarm(self, signum, frame) -> None:
        sample = probe()
        self.samples.append(sample)
        self.inside[0] += sample[0]
        self.inside[1] += sample[1]

    def __enter__(self) -> HostSampler:
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop the periodic probes, so that ``inside`` no longer grows."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def slowdown(self) -> dict[str, float]:
        """Mean probe time over ``REFERENCE_S``, per clock.  The probes are
        evenly spaced in wall time, so this is the host's slowdown averaged
        over the call, as the call's time integrates it."""
        return {
            clock: statistics.fmean(s[i] for s in self.samples) / REFERENCE_S
            for i, clock in enumerate(("wall", "cpu"))
        }
