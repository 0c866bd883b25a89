"""The discrete-event engine and the one timer calendar.

:class:`Calendar` is the timer calendar of both substrates: a binary heap
of C-comparable ``(time, seq, Event)`` / ``(time, seq, callback, args)``
tuples, one ``seq`` counter shared by both entry shapes (so ties break
FIFO and a comparison never reaches the payload), lazy cancellation and
one tombstone-compaction rule. :class:`Simulator` pops it in virtual
time; :class:`~repro.live.clock.WallClock` drains it on an asyncio loop.

A :class:`Simulator` owns a virtual clock. Components schedule callbacks
at future virtual times; :meth:`Simulator.run` pops events in
(time, insertion-order) order and invokes them. Cancellation is lazy: a
cancelled :class:`Event` stays in the heap but is skipped when it
surfaces, which keeps both operations O(log n).

The engine is single-threaded and deterministic: two runs with the same
schedule of callbacks and the same random seeds produce identical traces.

The simulator is the event-time implementation of the substrate
:class:`~repro.substrate.Clock` contract (``now``/``schedule``/
``schedule_fire``/``push`` plus the hot-path ``_now`` attribute); the
live runtime substitutes :class:`~repro.live.clock.WallClock` behind the
same surface. :meth:`Calendar.push` arms a timer at an absolute time
with a ``seq`` its caller drew from ``_seq`` — possibly well before, as
the ARQ's latent timeouts do. A callback whose effects can be applied at
the instant it is scheduled, with nothing able to tell, need not be
queued at all: :meth:`Simulator.settle` counts it as executed instead
(the ARQ's settled ACK arrivals).

Tombstone compaction
--------------------

When cancelled entries number at least ``_COMPACTION_MIN`` and at least
``_COMPACTION_SHARE`` of the heap, the heap is rebuilt in place without
them. Compaction removes only entries that could never fire, and the heap
order is a pure function of the live ``(time, seq)`` keys, so the pop
sequence — and therefore the whole run — is the same whether or not it
ran. It is priced on the live substrate, where every ARQ timer is armed
and then cancelled by its ACK; on the simulator the ARQ's latent timers
leave few tombstones. :attr:`Calendar.heap_compactions` and
:attr:`Calendar.tombstones_reaped` expose the activity to the perf layer.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from time import perf_counter as _perf_counter
from typing import Any, Callable, List, Optional

from repro import probes as _probes
from repro.util.errors import SimulationError

_heappush = heapq.heappush
_INF = float("inf")

#: The compaction rule: at least this many tombstones (amortising the
#: O(n) rebuild away from small heaps) ...
_COMPACTION_MIN = 64
#: ... and at least this share of the heap.
_COMPACTION_SHARE = 0.5


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Calendar.push` (and the ``schedule``
    built on it) and are primarily useful as cancellation handles.
    ``time`` is the deadline on the owning clock's time axis; ``seq``
    breaks ties FIFO for events at the same time.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_on_cancel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call more than once.

        Cancelling an event that already fired (or was already cancelled)
        is a no-op, so holders may cancel handles unconditionally.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Drop references early so cancelled events don't pin large objects
        # while they wait to surface from the heap.
        self.callback = _noop
        self.args = ()
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed on cancelled events."""


class Calendar:
    """A timer calendar: one heap, one ``seq`` counter, lazy cancellation.

    Entries are ``(key, seq, Event)`` (cancellable) or ``(key, seq,
    callback, args)`` (fire-and-forget), and only the calendar's own
    methods push them. The owner pops them and decrements
    :attr:`_tombstones` for every cancelled one it skips. The heap is only
    ever mutated in place, so an owner's alias of it stays valid across a
    compaction triggered from a callback.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        # Cancelled entries still sitting in the heap: every other entry
        # is live, so pending_events is O(1) despite lazy cancellation.
        self._tombstones = 0
        #: Number of tombstone-compaction passes performed.
        self.heap_compactions = 0
        #: Cancelled entries removed by compaction (instead of surfacing).
        self.tombstones_reaped = 0

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue (O(1))."""
        return len(self._heap) - self._tombstones

    def push(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple
    ) -> Event:
        """Arm ``callback(*args)`` at the absolute *time* with the reserved *seq*.

        *seq* comes from :attr:`_seq`: drawn now, or earlier by a caller
        that reserved the entry's place in the FIFO tie order before it
        knew whether the entry would be needed.
        """
        event = Event(time, seq, callback, args, self._on_event_cancelled)
        _heappush(self._heap, (time, seq, event))
        return event

    def _on_event_cancelled(self) -> None:
        self._tombstones = tombstones = self._tombstones + 1
        if (
            tombstones >= _COMPACTION_MIN
            and tombstones >= _COMPACTION_SHARE * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (in place).

        Only dead entries are removed and the heap invariant is restored
        over the unchanged live ``(key, seq)`` pairs, so the subsequent pop
        order is identical to what lazy deletion would have produced.
        """
        heap = self._heap
        before = len(heap)
        # Fire-and-forget entries (len 4) have no cancel handle: always live.
        heap[:] = [entry for entry in heap if len(entry) == 4 or not entry[2].cancelled]
        heapq.heapify(heap)
        self.heap_compactions += 1
        self.tombstones_reaped += before - len(heap)
        self._tombstones = 0

    def clear(self) -> None:
        """Drop all pending entries without running them."""
        for entry in self._heap:
            if len(entry) != 3:
                continue  # fire-and-forget entries have no handle to neuter
            event = entry[2]
            # Mark dropped events cancelled so late cancel() calls on their
            # handles stay no-ops (and don't corrupt the counters).
            event.cancelled = True
            event.callback = _noop
            event.args = ()
            event._on_cancel = None
        self._heap.clear()
        self._tombstones = 0


class Simulator(Calendar):
    """Deterministic single-threaded discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        self._running = False
        self._processed = 0
        # Events executed by the current run() call, settled ones included
        # (see settle), and the call's until window and max_events quota.
        # Outside run() the window is closed (-inf): nothing settles.
        self._executed = 0
        self._window = -_INF
        self._quota = _INF
        #: Accumulated wall-clock seconds spent inside :meth:`run`
        #: (observation only — feeds the perf layer's events/s figure).
        self.run_wall_s = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far.

        An event :meth:`settle` counted is one of them: it was counted when
        it was settled, never queued, and never popped.
        """
        return self._processed

    def settle(self, time: float) -> bool:
        """Count an event due at *time* as executed now, instead of queueing it.

        For a callback whose effects the caller applies at once, because
        nothing could observe the difference before *time*. Returns ``True``
        only inside a running :meth:`run` whose ``until`` window holds
        *time*, whose ``max_events`` quota has room for one more event,
        and which has no ``event_pop`` observer (that one sees every pop).
        Then the ``seq`` the event would have drawn is drawn, and the event
        counts in :attr:`processed_events` and against the quota as if it
        had run: the schedule and the count stay those of the queued event.
        """
        # The event now running is not counted yet: room for it and this one.
        if time > self._window or self._executed + 1 >= self._quota:
            return False
        next(self._seq)
        self._executed += 1
        return True

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule *callback(*args)* to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled. ``delay`` must be
        non-negative; a zero delay fires after all events already scheduled
        for the current instant (FIFO tie-breaking).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.push(self._now + delay, next(self._seq), callback, args)

    def schedule_fire(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        Identical ordering semantics (consumes one ``seq``, fires at
        ``now + delay`` in FIFO tie order) but pushes a bare
        ``(time, seq, callback, args)`` entry — no :class:`Event` object is
        allocated. Meant for the data-plane hot path (frame deliveries),
        where events are never cancelled individually; :meth:`clear` still
        discards them.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        _heappush(self._heap, (self._now + delay, next(self._seq), callback, args))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Execute events in order.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this value; events scheduled
            exactly at ``until`` still fire. ``None`` drains the queue.
        max_events:
            Safety valve for runaway schedules: at most ``max_events`` events
            execute; a :class:`SimulationError` is raised as soon as one more
            would run. A schedule of exactly ``max_events`` events finishes
            cleanly. Events :meth:`settle` counted count here too.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._executed = 0
        limit = _INF if until is None else until
        quota = _INF if max_events is None else max_events
        # Compaction rebuilds the heap *in place*, so this alias stays valid
        # even when a callback's cancel() triggers a compaction mid-loop.
        heap = self._heap
        heappop = heapq.heappop
        # The event loop allocates heavily (frames, heap entries) but creates
        # few cycles; pausing the cyclic collector avoids gen-0 scans every
        # ~700 allocations. Refcounting still frees the bulk immediately, and
        # re-enabling afterwards lets the collector reclaim any cycles on its
        # own schedule, outside the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The event_pop probe slot, hoisted once per run(): None (the
        # default) keeps the loop body at a single local load + identity
        # check per event regardless of how many observers are attached.
        on_event_pop = _probes.on_event_pop
        self._window = limit if on_event_pop is None else -_INF
        self._quota = quota
        wall_start = _perf_counter()
        try:
            while heap:
                entry = heap[0]
                if len(entry) == 3:
                    event = entry[2]
                    if event.cancelled:
                        heappop(heap)
                        self._tombstones -= 1
                        continue
                else:
                    event = None
                if entry[0] > limit:
                    break
                if self._executed >= quota:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway schedule?"
                    )
                heappop(heap)
                if on_event_pop is not None:
                    on_event_pop(entry[0], self._now)
                self._now = entry[0]
                if event is not None:
                    event.fired = True
                    event.callback(*event.args)
                else:
                    entry[2](*entry[3])
                self._executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self.run_wall_s += _perf_counter() - wall_start
            self._processed += self._executed
            self._window = -_INF
            self._running = False
            if gc_was_enabled:
                gc.enable()
