"""Scale operation times to a fixed reference CPU speed.

On a shared machine the speed of the core a process runs on drifts with
other tenants' load: identical solves vary by +-25 % within a minute and the
level moves between minutes, in CPU time as much as in wall time.  A short
fixed loop shaped like the solver's inner loop (small numpy operations driven
from Python) slows down with it: timed between solves in the same process,
its time correlates with the solve time at about 0.8, while the same loop in
another process, on the other core, does not correlate at all.

So each measured process samples the loop itself, once at the start and
then from a SIGALRM timer every ``PERIOD_S``.  An operation's scaled time is its wall time minus the
sampler's own time inside it, times ``REF_S / (mean loop time around it)``:
the time it would take at the speed where the loop takes ``REF_S``.  The
unscaled times, less the sampler's, are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

REF_S = 0.015  # about the loop's typical time on a shared 2-core Xeon VM
PERIOD_S = 0.1
_STEPS = 2500


def reference_loop() -> None:
    """The fixed loop; the garbage collector is held off so that the loop's
    time does not depend on how many objects the process holds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = np.linspace(0.0, 1.0, 64)
        q = np.full(64, 2.0)
        for _ in range(_STEPS):
            q = 2.0 - 0.5 * x - 0.5 / q
            np.copyto(q, 1.0, where=np.abs(q) < 1e-12)
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Times ``reference_loop`` every PERIOD_S while active: (start, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)  # short processes get one sample more
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, t0: float, t1: float) -> dict:
        """Sampler time inside [t0, t1] and the mean loop time around it.

        Samples inside the window give the speed; a window too short to hold
        one uses the samples just before and after it.
        """
        inside = [d for s, d in self.samples if t0 <= s < t1]
        refs = inside
        if not refs:
            before = [d for s, d in self.samples if s < t0][-1:]
            after = [d for s, d in self.samples if s >= t1][:1]
            refs = before + after
        return {"sampler_s": sum(inside),
                "ref_s": statistics.mean(refs) if refs else REF_S}

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        return own_and_scaled(t1 - t0, self.window(t0, t1))


def own_and_scaled(wall_s: float, window: dict) -> tuple[float, float]:
    """Wall time without the sampler's, and that time at the reference speed."""
    own = wall_s - window["sampler_s"]
    return own, own * REF_S / window["ref_s"]
