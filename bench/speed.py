"""Host speed: a fixed pure-Python kernel whose time tracks how fast the
CPU runs at a given moment, and the arithmetic that takes wall times to a
nominal host speed.

On a shared host the CPU runs 1-2 times slower in stretches of tens of
seconds (NOTES.md), so raw wall times do not repeat from run to run; times
at nominal speed do, much more closely. A nominal time is the time the
work would take on a CPU on which the kernel's full size takes
REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

#: Time of the full-size reference kernel at nominal host speed, in seconds.
REFERENCE_S = 0.01
REFERENCE_LOOPS = 60_000
#: Probes taken while a measured piece of work runs: a third of the full
#: kernel, about 3 ms at nominal speed, every 0.2 s (1.7 % of the time).
PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.2


def reference_kernel_s(loops: int = REFERENCE_LOOPS) -> float:
    """Time of a fixed pure-Python kernel, dict updates in a loop, the kind
    of work the pipeline does, in seconds."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(loops):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0


def nominal_span(start: float, end: float, probes, fixed=(), loops: int = PROBE_LOOPS) -> float:
    """Nominal time of the wall-clock span [start, end], given probes taken
    during it: (start time, kernel time) pairs of ``reference_kernel_s(loops)``
    runs, inside the span or next to it. The probes' own time is left out.
    Each stretch between two probes is scaled by the faster of them; the
    stretches before the first probe and after the last by that probe
    alone. Time inside the ``fixed`` (start, end) intervals, which take the
    same wall time at any host speed (a solver's time limit), is counted
    unscaled."""
    if not probes:
        raise ValueError("nominal_span needs at least one probe")
    reference = REFERENCE_S * loops / REFERENCE_LOOPS
    probes = sorted(probes)
    fixed = [(max(a, start), min(b, end)) for a, b in fixed if b > start and a < end]

    def outside_fixed(a: float, b: float) -> float:
        a, b = max(a, start), min(b, end)
        return max(0.0, b - a) - sum(max(0.0, min(b, fb) - max(a, fa)) for fa, fb in fixed)

    pieces = [(start, probes[0][0], probes[0][1])]
    pieces += [(t1 + k1, t2, min(k1, k2)) for (t1, k1), (t2, k2) in zip(probes, probes[1:])]
    pieces.append((probes[-1][0] + probes[-1][1], end, probes[-1][1]))
    scaled = sum(outside_fixed(a, b) * reference / k for a, b, k in pieces)
    return scaled + sum(b - a for a, b in fixed)


class Prober:
    """Records probes: ``probe()`` takes one now; inside ``with prober:``
    a timer signal also takes one every PROBE_INTERVAL_S, so that a long
    piece of work is tracked while it runs. ``probes`` holds (start,
    kernel time) pairs on ``time.perf_counter``'s clock, which on Linux is
    CLOCK_MONOTONIC and so shared with child processes."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def probe(self, *_) -> None:
        if self._busy:  # the timer fired during a probe: skip rather than nest
            return
        self._busy = True
        self.probes.append((time.perf_counter(), reference_kernel_s(PROBE_LOOPS)))
        self._busy = False

    def __enter__(self) -> "Prober":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def between(self, start: float, end: float) -> list[tuple[float, float]]:
        """The probes inside [start, end] and the nearest one on each side."""
        inside = [p for p in self.probes if start <= p[0] <= end]
        before = [p for p in self.probes if p[0] < start][-1:]
        after = [p for p in self.probes if p[0] > end][:1]
        return before + inside + after

    def probe_time(self, start: float, end: float) -> float:
        """Time the probes that started inside [start, end] took."""
        return sum(k for t, k in self.probes if start <= t <= end)
