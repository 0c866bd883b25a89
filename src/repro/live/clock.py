"""The wall-clock :class:`~repro.substrate.Clock` over an asyncio loop.

:class:`WallClock` reports seconds since its construction (monotonic,
``loop.time()``-based) and keeps its own timer calendar, the design of
the simulator's kernel: a heap of ``(loop-time deadline, seq, ...)``
tuples — compared in C, ``seq`` breaks ties so callbacks are never
compared — cancellation by flag, tombstones compacted once they outnumber
the live entries. The asyncio loop sees one ``call_at`` handle, armed for
the head of the heap. It duck-types the two conventions the broker
stack's hot paths rely on (see :mod:`repro.substrate`):

* ``_now`` is readable as a plain attribute access — here a property
  alias of :attr:`now`, so ``ctx.sim._now`` works unchanged;
* it does **not** offer ``calendar_kernel()``, which routes the ARQ layer
  onto its portable scheduling path.

Timer handles (:class:`WallTimer`) carry a clock-unique ``seq`` token so
the ``timer_started``/``timer_cancelled``/``timer_fired`` probe families —
and through them the sanitizer's settlement table — work identically on
both substrates.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Any, Callable, List, Optional

from repro.util.errors import SimulationError

#: Tombstone compaction rule, as in :class:`repro.sim.engine.Simulator`.
_COMPACTION_MIN = 64


class WallTimer:
    """A cancellable wall-clock timer (portable :class:`TimerHandle`)."""

    __slots__ = ("time", "seq", "cancelled", "fired", "_callback", "_args", "_clock")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple, clock: "WallClock"
    ) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.fired = False
        self._callback: Optional[Callable[..., None]] = callback
        self._args: Optional[tuple] = args
        self._clock = clock

    def cancel(self) -> None:
        """Prevent the timer from firing. Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Let go now: the heap entry may sit until its deadline, and an
        # ARQ timer's arguments pin a whole frame.
        self._callback = self._args = None
        self._clock._on_timer_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"WallTimer(t={self.time:.6f}, seq={self.seq}, {state})"


class WallClock:
    """Wall time relative to runtime start, one timer calendar on the loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()
        self._seq = itertools.count()
        # (deadline, seq, WallTimer) or (deadline, seq, callback, args);
        # deadlines are on loop.time(), so pin_epoch never moves them.
        self._heap: List[tuple] = []
        self._tombstones = 0
        self._handle: Optional[asyncio.TimerHandle] = None
        self._draining = False
        #: Timers armed over the clock's lifetime (observation only).
        self.timers_scheduled = 0

    @property
    def now(self) -> float:
        """Seconds since the runtime started."""
        return self._loop.time() - self._origin

    # The broker/forwarding/ARQ hot paths read ``ctx.sim._now`` as a bare
    # attribute; aliasing the property keeps that contract without a
    # kernel-style mutable float.
    _now = now

    def pin_epoch(self, epoch: float) -> None:
        """Re-origin the clock so ``now`` reads ``time.time() - epoch``.

        Multi-process deployments need one shared time base: every broker
        process pins its clock to the coordinator's epoch (a ``time.time()``
        stamp), so timestamps — frame publish times, delivery delays, trace
        events — are comparable across processes to within the machine's
        scheduler jitter. Only ``now`` moves: armed timers keep their
        loop-time deadlines.
        """
        self._origin = self._loop.time() - (time.time() - epoch)

    async def sleep_until(self, t: float) -> None:
        """Return once ``now`` has reached *t*, at once if it already has.

        The pacing rule of every live publish loop: message ``i`` waits for
        its own instant on an absolute schedule, so a loop that wakes late
        finds the overdue messages due and publishes them back to back,
        and the lateness never shifts the rest of the schedule.
        """
        wait = t - self.now
        if wait > 0:
            await asyncio.sleep(wait)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> WallTimer:
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        deadline = self._loop.time() + delay
        seq = next(self._seq)
        timer = WallTimer(deadline - self._origin, seq, callback, args, self)
        self._push((deadline, seq, timer))
        return timer

    def schedule_fire(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            # Zero-delay deliveries run synchronously: the loopback frame
            # is already "on the wire" and the loop's FIFO would only add
            # jitter between causally ordered events.
            callback(*args)
            return
        self._push((self._loop.time() + delay, next(self._seq), callback, args))

    def close(self) -> None:
        """Drop every pending timer and the armed loop handle."""
        self._heap.clear()
        self._tombstones = 0
        self._arm()

    # ------------------------------------------------------------------
    # The calendar
    # ------------------------------------------------------------------
    def _push(self, entry: tuple) -> None:
        heap = self._heap
        heapq.heappush(heap, entry)
        self.timers_scheduled += 1
        # A drain arms once, after everything due has run.
        if heap[0] is entry and not self._draining:
            self._arm()

    def _arm(self) -> None:
        """Keep exactly one loop handle, armed for the head of the heap."""
        if self._handle is not None:
            self._handle.cancel()
        heap = self._heap
        self._handle = self._loop.call_at(heap[0][0], self._drain) if heap else None

    def _drain(self) -> None:
        """Run every due timer in ``(deadline, seq)`` order, then re-arm."""
        heap = self._heap
        loop_time = self._loop.time
        heappop = heapq.heappop
        self._handle = None
        self._draining = True
        try:
            while heap and heap[0][0] <= loop_time():
                entry = heappop(heap)
                if len(entry) == 4:
                    entry[2](*entry[3])
                    continue
                timer = entry[2]
                if timer.cancelled:
                    self._tombstones -= 1
                    continue
                callback, args = timer._callback, timer._args
                timer.fired = True
                timer._callback = timer._args = None
                callback(*args)
        finally:
            self._draining = False
            self._arm()

    def _on_timer_cancelled(self) -> None:
        self._tombstones = tombstones = self._tombstones + 1
        heap = self._heap
        if tombstones >= _COMPACTION_MIN and tombstones * 2 >= len(heap):
            # In place: a drain in progress holds an alias of the list.
            heap[:] = [e for e in heap if len(e) == 4 or not e[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now:.6f})"
