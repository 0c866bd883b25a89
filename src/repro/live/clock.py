"""The wall-clock :class:`~repro.substrate.Clock` over an asyncio loop.

:class:`WallClock` reports seconds since its construction (monotonic,
``loop.time()``-based) and keeps its timers in the simulator's calendar
(:class:`~repro.sim.engine.Calendar`): the same ``(deadline, seq, ...)``
heap, :class:`~repro.sim.engine.Event` handles, lazy cancellation and
tombstone compaction. Entries are keyed on ``loop.time()``, so
:meth:`WallClock.pin_epoch` never moves an armed deadline; a handle's
``time`` is its deadline on the clock's own axis. The asyncio loop sees
one ``call_at`` handle, armed for the head of the heap.

``_now`` is readable as a plain attribute access — here a property alias
of :attr:`now`, so ``ctx.sim._now`` works unchanged (see
:mod:`repro.substrate`). Handles carry a clock-unique ``seq`` token, so
the ``timer_started``/``timer_cancelled``/``timer_fired`` probe families
— and through them the sanitizer's settlement table — work identically
on both substrates.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Any, Callable, Optional

from repro.sim.engine import Calendar, Event
from repro.util.errors import SimulationError


class WallClock(Calendar):
    """Wall time relative to runtime start, one timer calendar on the loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        super().__init__()
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()
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

    def push(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple
    ) -> Event:
        """:meth:`Calendar.push` at *time* on this clock's axis.

        The entry is keyed on the loop's clock (*time* plus the origin),
        so a later :meth:`pin_epoch` leaves it due at the same instant.
        """
        event = Event(time, seq, callback, args, self._on_event_cancelled)
        self._insert((time + self._origin, seq, event))
        return event

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.push(self.now + delay, next(self._seq), callback, args)

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
        self._insert((self._loop.time() + delay, next(self._seq), callback, args))

    def close(self) -> None:
        """Drop every pending timer and the armed loop handle."""
        self.clear()
        self._arm()

    # ------------------------------------------------------------------
    # Arming the loop
    # ------------------------------------------------------------------
    def _insert(self, entry: tuple) -> None:
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
                event = entry[2]
                if event.cancelled:
                    self._tombstones -= 1
                    continue
                event.fired = True
                event.callback(*event.args)
        finally:
            self._draining = False
            self._arm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now:.6f})"
