"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.util.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]
    assert sim.now == 2.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_zero_delay_event_fires_after_already_scheduled_now_events():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.schedule(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(5.0, fired.append, "out")
    sim.run(until=2.0)
    assert fired == ["in"]
    assert sim.now == 2.0
    # The late event survives for a later run.
    sim.run()
    assert fired == ["in", "out"]


def test_event_exactly_at_until_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "boundary")
    sim.run(until=2.0)
    assert fired == ["boundary"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_run_until_executes_only_the_events_due_by_then():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=1.0)
    assert fired == ["a"]
    assert sim.now == 1.0 and sim.pending_events == 1
    sim.run(until=2.0)
    assert fired == ["a", "b"]
    sim.run(until=3.0)  # an empty queue runs nothing
    assert fired == ["a", "b"]
    assert sim.processed_events == 2


def test_clear_drops_pending_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.clear()
    sim.run()
    assert fired == [] and sim.pending_events == 0


def test_pending_and_processed_counters():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    event.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.processed_events == 1


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_max_events_guard_trips_on_runaway():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_events_executes_exactly_the_budget():
    """The guard trips before event max_events + 1, not after it."""
    sim = Simulator()
    fired = []

    def forever():
        fired.append(sim.now)
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=7)
    assert len(fired) == 7


def test_max_events_allows_schedule_of_exactly_that_size():
    """A finite schedule of exactly max_events events finishes cleanly."""
    sim = Simulator()
    fired = []
    for index in range(5):
        sim.schedule(float(index), fired.append, index)
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_pending_events_through_cancel_fire_and_clear():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sim.pending_events == 4
    events[0].cancel()
    assert sim.pending_events == 3
    sim.run(until=2.0)  # pops the cancelled event and fires the first live one
    assert sim.pending_events == 2 and sim.processed_events == 1
    sim.clear()
    assert sim.pending_events == 0


def test_cancel_after_fire_is_a_noop():
    """Cancelling an already-fired handle must not corrupt the counter."""
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.0)
    assert fired == ["x"]
    event.cancel()
    event.cancel()
    assert sim.pending_events == 1


def test_cancel_after_clear_is_a_noop():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.clear()
    event.cancel()
    assert sim.pending_events == 0


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0
