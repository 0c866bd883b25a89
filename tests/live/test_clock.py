"""The WallClock timer calendar: ordering, arming, cancellation, teardown."""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.live.clock import WallClock


class FakeHandle:
    def __init__(self, when, callback):
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """A loop whose time only moves when the test says so."""

    def __init__(self):
        self.t = 100.0
        self.handles = []

    def time(self):
        return self.t

    def call_at(self, when, callback):
        handle = FakeHandle(when, callback)
        self.handles.append(handle)
        return handle

    def armed(self):
        return [h for h in self.handles if not h.cancelled]

    def advance(self, to):
        """Move time to *to*, running armed handles as they come due."""
        while True:
            due = [h for h in self.armed() if h.when <= to]
            if not due:
                break
            handle = min(due, key=lambda h: h.when)
            self.handles.remove(handle)
            self.t = max(self.t, handle.when)
            handle.callback()
        self.t = to


@pytest.fixture
def loop():
    return FakeLoop()


def test_a_timer_never_fires_before_its_deadline(loop):
    clock = WallClock(loop)
    fired = []
    clock.schedule(0.010, fired.append, "timer")
    clock.schedule_fire(0.010, fired.append, "fire")
    loop.advance(100.0099)
    assert fired == []
    # A loop that wakes the calendar early finds nothing due and re-arms.
    loop.armed()[0].callback()
    assert fired == []
    loop.advance(100.010)
    assert fired == ["timer", "fire"]


def test_equal_deadlines_fire_in_seq_order_without_comparing_callbacks(loop):
    clock = WallClock(loop)
    fired = []

    class Uncomparable:
        def __init__(self, name):
            self.name = name

        def __call__(self):
            fired.append(self.name)

        def __lt__(self, other):  # pragma: no cover - must never run
            raise AssertionError("callbacks were compared")

    timers = [clock.schedule(0.005, Uncomparable(i)) for i in range(5)]
    for i in range(5, 10):
        clock.schedule_fire(0.005, Uncomparable(i))
    assert [t.seq for t in timers] == sorted(t.seq for t in timers)
    assert len({t.time for t in timers}) == 1
    loop.advance(100.005)
    assert fired == list(range(10))
    assert all(t.fired and not t.cancelled for t in timers)


def test_an_earlier_timer_scheduled_from_a_callback_is_on_time(loop):
    clock = WallClock(loop)
    fired = []

    def first():
        fired.append(("first", loop.time()))
        clock.schedule(0.001, lambda: fired.append(("nested", loop.time())))

    clock.schedule(0.010, first)
    clock.schedule(0.050, lambda: fired.append(("late", loop.time())))
    loop.advance(100.2)
    assert fired == [
        ("first", pytest.approx(100.010)),
        ("nested", pytest.approx(100.011)),
        ("late", pytest.approx(100.050)),
    ]


def test_an_earlier_timer_takes_over_the_one_armed_handle(loop):
    clock = WallClock(loop)
    clock.schedule(0.080, lambda: None)
    clock.schedule_fire(0.002, lambda: None)
    clock.schedule(0.040, lambda: None)
    assert [h.when for h in loop.armed()] == [pytest.approx(100.002)]


def test_zero_delay_schedule_fire_is_synchronous(loop):
    clock = WallClock(loop)
    fired = []
    clock.schedule_fire(0.0, fired.append, 1)
    assert fired == [1]
    assert loop.handles == [] and clock.timers_scheduled == 0


def test_pin_epoch_moves_now_never_an_armed_deadline(loop):
    import time

    clock = WallClock(loop)
    fired = []
    timer = clock.schedule(0.010, fired.append, 1)
    clock.pin_epoch(time.time() - 500.0)
    assert clock.now == pytest.approx(500.0, abs=0.5)
    assert timer.time == pytest.approx(0.010)
    loop.advance(100.0099)
    assert fired == []
    loop.advance(100.010)
    assert fired == [1]


def test_cancel_before_fire_never_fires(loop):
    clock = WallClock(loop)
    fired = []
    timer = clock.schedule(0.010, fired.append, 1)
    timer.cancel()
    timer.cancel()  # idempotent
    loop.advance(101.0)
    assert fired == []
    assert timer.cancelled and not timer.fired
    assert loop.armed() == []


def test_cancelled_timers_let_go_and_the_heap_stays_bounded(loop):
    """10,000 arm-then-cancel cycles: the ARQ pattern (every timeout is
    cancelled by its ACK long before it would fire)."""
    clock = WallClock(loop)

    class Frame:
        pass

    clock.schedule(3600.0, lambda: None)  # something live behind the churn
    refs = []
    for _ in range(10_000):
        frame = Frame()
        refs.append(weakref.ref(frame))
        clock.schedule(0.080, lambda f: None, frame).cancel()
        del frame
        assert len(clock._heap) <= 2 * 64 + 1
    gc.collect()
    assert not any(ref() is not None for ref in refs)
    assert clock.timers_scheduled == 10_001
    assert len(loop.armed()) == 1


def test_cancelling_from_a_callback_mid_drain_compacts_safely(loop):
    clock = WallClock(loop)
    fired = []
    victims = [clock.schedule(0.020, fired.append, "victim") for _ in range(200)]

    def cancel_all():
        for timer in victims:
            timer.cancel()

    clock.schedule(0.010, cancel_all)
    clock.schedule(0.030, fired.append, "survivor")
    loop.advance(101.0)
    assert fired == ["survivor"]


def test_close_cancels_the_armed_handle_and_drops_pending_timers(loop):
    clock = WallClock(loop)
    fired = []
    pending = clock.schedule(0.010, fired.append, 1)
    clock.schedule_fire(0.020, fired.append, 2)
    clock.close()
    assert loop.armed() == []
    # A dropped timer reads cancelled, and a late cancel() of it counts
    # no tombstone against the emptied heap.
    assert pending.cancelled and not pending.fired
    pending.cancel()
    assert clock._tombstones == 0
    loop.advance(101.0)
    assert fired == []


def test_on_a_real_loop_timers_are_punctual_and_leave_nothing_behind():
    async def scenario():
        running = asyncio.get_running_loop()
        clock = WallClock(running)
        fired = []

        def note(name, due):
            fired.append((name, running.time() - due))

        start = running.time()
        for i in range(50):
            delay = 0.002 + 0.0005 * (i % 7)
            clock.schedule(delay, note, i, start + delay)
        cancelled = clock.schedule(0.003, note, "cancelled", start)
        cancelled.cancel()
        await asyncio.sleep(0.05)
        clock.close()
        return fired

    fired = asyncio.run(scenario())
    assert sorted(name for name, _ in fired) == list(range(50))
    assert all(lateness >= 0.0 for _, lateness in fired)
