"""Machine speed: what the host's clock readings are measured against.

The pipeline's machines are shared virtual machines whose speed drifts in
phases lasting from seconds to hours: on one day the same deterministic
repetition of ``lossy_failover`` took 1.9 s and 3.4 s, and two sets of ten
runs of one commit differed by 24 % in median raw ``pairs_per_s`` on
``dense_dataplane``. A fixed loop slows down in those phases too, so every
timed region is bracketed by it and the region's CPU seconds are rescaled
to the speed of the reference machine (the one on which the loop takes
:data:`REFERENCE_S`); time spent waiting - the paced publish loop of
``live_ring`` asleep - is left as measured. Rescaled, those two sets agree
to 2 %, and over ten runs made in a turbulent phase the spread of
``pairs_per_s`` fell from 44 % to 12 % on ``dense_dataplane`` and from
26 % to 11 % on ``lossy_failover``. The loop under-corrects (it slowed by
about four fifths of what the workloads did), so it narrows the scatter;
it does not remove it.

The loop is part of the metric definitions: changing it, or
:data:`REFERENCE_S`, moves every host-time metric and needs a fresh
baseline.
"""

from __future__ import annotations

import statistics
import time

#: Seconds :func:`calibrate` reads on the machine the bounds were set on,
#: when that machine is quiet.
REFERENCE_S = 0.0305

_STEPS = 500_000


def calibrate() -> float:
    """Median seconds of three runs of a fixed arithmetic loop.

    Arithmetic on purpose. A loop that allocates (objects, heap entries,
    dict slots) follows the workloads' slowdown more closely, but it read
    1.2x to 1.7x the arithmetic loop depending on what the program under
    test had just left in the allocator, and a reference that moves with
    the program's memory behaviour cannot referee it.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for step in range(_STEPS):
            total += step * step
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Stopwatch:
    """Wall and CPU time of a region, bracketed by the calibration loop."""

    def __init__(self, after: "Stopwatch | None" = None) -> None:
        # A region that starts where another ended shares its bracket.
        self._calibrations = [after._calibrations[-1] if after else calibrate()]
        self._cpu = time.process_time()
        #: ``perf_counter()`` when the region began / ended.
        self.started = time.perf_counter()
        self.ended = self.started
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def stop(self) -> "Stopwatch":
        self.ended = time.perf_counter()
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = self.ended - self.started
        self._calibrations.append(calibrate())
        return self

    @property
    def speed(self) -> float:
        """This machine's speed during the region (1.0 = the reference)."""
        return REFERENCE_S / statistics.mean(self._calibrations)

    @property
    def reference_cpu_s(self) -> float:
        """CPU seconds the region would have taken on the reference machine."""
        return self.cpu_s * self.speed

    @property
    def reference_wall_s(self) -> float:
        """Wall seconds at reference speed: waiting as measured, computing rescaled."""
        return max(self.wall_s - self.cpu_s, 0.0) + self.reference_cpu_s
