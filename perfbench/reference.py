"""A fixed reference computation, timed alongside the verdicts.

On a shared virtual machine the CPU the benchmark gets runs faster in one
stretch than in the next, by 20-30% from second to second and by up to 2x
from minute to minute, in CPU time as much as in wall time. Longer runs do
not average that out. So the benchmark times this routine between verdicts,
once for every ``INTERVAL_S`` that has passed since the last sample, and
divides each verdict's time by the median of the reference times taken from
``WINDOW_S`` before the verdict to ``WINDOW_S`` after it. The quotient (unit
``ref``: multiples of one reference call) moves when sfast gets faster or
slower, and much less when the host does.

The routine is a plain interpreter loop over integers. Of the candidates
measured next to sfast's verdicts (this loop; a mix of bitmask, dict and
numpy work; dict lookups over a working set of several MB; numpy gathers
over 16 MB), its time followed the verdict times closest. It uses no sfast
code, so no change to sfast changes it. It must not change either: every
``ref`` figure is in its units.
"""

from __future__ import annotations

import statistics
from time import perf_counter

INTERVAL_S = 0.1
WINDOW_S = 1.0
BURST = 10
# reference_work's median time on a quiet 2-CPU virtual machine. It turns
# reference units back into seconds at that speed, for ``setup_s``.
NOMINAL_S = 0.004


def reference_work() -> int:
    """One reference call: about 4 ms on one core of a 2-CPU virtual machine."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


class Reference:
    """Reference samples taken through a run, and verdict times in their units."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._last = perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            reference_work()
            end = perf_counter()
            self.samples.append(((start + end) / 2, end - start))
            self._last = end

    def catch_up(self) -> None:
        """One sample for each ``INTERVAL_S`` since the last one (at most
        ``BURST``), so that samples cover the run evenly in time whether
        the verdicts in between are short or long."""
        self.sample(min(int((perf_counter() - self._last) / INTERVAL_S), BURST))

    def units(self, start: float, seconds: float) -> float:
        """A verdict's time, from ``start`` for ``seconds``, in reference calls."""
        around = [
            s for t, s in self.samples if start - WINDOW_S <= t <= start + seconds + WINDOW_S
        ]
        return seconds / statistics.median(around)

    def median_ms(self) -> float:
        return 1000 * statistics.median(seconds for _, seconds in self.samples)
