"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs 20-50% slower or faster from one
minute to the next, with no steal time: the core itself is slower.  To
take that out of the figures, a run times a fixed piece of pure-Python
work, the probe, at both ends of every timed span and, from a SIGALRM
timer, every PROBE_INTERVAL_S inside a batch.  Host seconds between two
probes are scaled by the probes' speed, so a timing reads in reference
seconds: seconds on a host where the probe takes REFERENCE_S.  The
timer needs no hook in the program, so the probes fall at the same
rate whatever the program's structure.  The probe depends on no
uamcas code, so a change to the program moves the scaled figures
exactly as it moves the host seconds.  Probe time is never part of a
timed span.

The probe does what the simulator does most: float math, small objects,
dicts and list appends.  In trial runs its speed tracked the speed of
pack scenario runs far better than an integer loop did.  It runs with
the garbage collector off and frees all it allocates, so it leaves the
collector's counts, and with them the program's collections, unchanged.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import time

# Probe seconds on the reference host (about the probe's time on the
# 2-vCPU VM of the README's baseline).  A constant, so figures compare
# across commits and runs.
REFERENCE_S = 0.01
PROBE_STEPS = 10000
# Host seconds between timer probes; each probe costs about 5% of that.
PROBE_INTERVAL_S = 0.2


class _Point:
    __slots__ = ("x", "y", "v")

    def __init__(self, x: float, y: float, v: float):
        self.x, self.y, self.v = x, y, v


def _probe_work() -> None:
    samples = []
    p = _Point(0.0, 0.0, 1.0)
    for i in range(PROBE_STEPS):
        heading = math.radians(i % 360)
        p = _Point(p.x + math.cos(heading) * p.v, p.y + math.sin(heading) * p.v, p.v)
        samples.append({"t": i * 0.1, "d": math.hypot(p.x, p.y)})


def probe_s() -> float:
    """Host seconds for one run of the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Probes taken along a stretch of host time, and the conversion of
    host intervals between them into reference seconds."""

    def __init__(self):
        # (host time the probe started, host time it ended, probe seconds)
        self.probes: list[tuple[float, float, float]] = []

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = probe_s()
        self.probes.append((start, time.perf_counter(), seconds))

    @contextlib.contextmanager
    def ticking(self):
        """Probe every PROBE_INTERVAL_S host seconds while the block runs.
        Python runs the handler between two bytecodes of the main
        thread, so a probe interrupts the program but never changes
        its state."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _segments(self, a: float, b: float):
        """(host seconds, scale) for each part of [a, b] between two
        successive probes; the scale is the mean speed of the two."""
        if not self.probes or a < self.probes[0][1] or b > self.probes[-1][0]:
            raise ValueError("interval not bracketed by probes")
        for (_, end0, p0), (start1, _, p1) in zip(self.probes, self.probes[1:]):
            lo, hi = max(a, end0), min(b, start1)
            if hi > lo:
                yield hi - lo, REFERENCE_S * (1.0 / p0 + 1.0 / p1) / 2.0

    def host_s(self, a: float, b: float) -> float:
        """Host seconds in [a, b], probes left out."""
        return sum(seconds for seconds, _ in self._segments(a, b))

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds for the host interval [a, b], probes left out."""
        return sum(seconds * scale for seconds, scale in self._segments(a, b))
