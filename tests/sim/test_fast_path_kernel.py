"""Kernel fast-path units: tombstone compaction and ``schedule_fire``.

Compaction is a pure space optimisation — it removes only entries whose
events can never fire and re-heapifies the unchanged live ``(time, seq)``
keys — so every test here checks both the perf counters *and* that the
observable firing order is untouched.
"""

import math

import pytest

from repro.sim import engine
from repro.sim.engine import Simulator
from repro.util.errors import SimulationError


def compaction_rule(monkeypatch, minimum, share):
    """Patch the engine's one compaction rule for the test's duration."""
    monkeypatch.setattr(engine, "_COMPACTION_MIN", minimum)
    monkeypatch.setattr(engine, "_COMPACTION_SHARE", share)


@pytest.fixture
def aggressive_sim(monkeypatch):
    """A simulator whose every cancellation triggers a compaction pass."""
    compaction_rule(monkeypatch, 2, 0.5)
    return Simulator()


# ----------------------------------------------------------------------
# Tombstone compaction
# ----------------------------------------------------------------------
def test_compaction_reaps_cancelled_entries(aggressive_sim):
    sim = aggressive_sim
    keep = [sim.schedule(float(i), lambda: None) for i in range(4)]
    drop = [sim.schedule(10.0 + i, lambda: None) for i in range(8)]
    assert len(sim._heap) == 12

    for event in drop:
        event.cancel()

    # min=2 and ratio=0.5: the threshold trips partway through the loop.
    assert sim.heap_compactions >= 1
    assert sim.tombstones_reaped >= 2
    assert sim.pending_events == 4
    # Reaped + still-pending tombstones account for every cancellation:
    # only sub-threshold stragglers may remain in the heap.
    assert len(sim._heap) == 4 + sim._tombstones
    assert sim.tombstones_reaped + sim._tombstones == len(drop)
    del keep


def test_compaction_preserves_firing_order(monkeypatch):
    """Same schedule, compaction forced vs disabled: identical pop order."""

    def trace(minimum, share):
        compaction_rule(monkeypatch, minimum, share)
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(delay, fired.append, (delay, i))
            for i, delay in enumerate([3.0, 1.0, 2.0, 1.0, 5.0, 4.0, 2.0, 0.5])
        ]
        for index in (0, 3, 5, 6):
            events[index].cancel()
        sim.run()
        return fired

    assert trace(1, 0.01) == trace(math.inf, 0.5)


def test_compaction_counter_threshold(monkeypatch):
    """No pass runs below ``_COMPACTION_MIN`` tombstones."""
    compaction_rule(monkeypatch, 5, 0.01)
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    for event in events[:4]:
        event.cancel()
    assert sim.heap_compactions == 0
    events[4].cancel()
    assert sim.heap_compactions == 1
    assert sim.tombstones_reaped == 5
    assert sim.pending_events == 5


def test_cancel_after_compaction_is_a_noop(aggressive_sim):
    """A handle whose entry was already reaped must not corrupt counters."""
    sim = aggressive_sim
    survivor = sim.schedule(1.0, lambda: None)
    doomed = [sim.schedule(2.0, lambda: None) for _ in range(4)]
    for event in doomed:
        event.cancel()
    assert sim.heap_compactions >= 1
    live_before = sim.pending_events
    for event in doomed:
        event.cancel()  # second cancel: entry long gone from the heap
    assert sim.pending_events == live_before == 1
    sim.run()
    assert sim.processed_events == 1
    assert survivor.fired


def test_without_compaction_tombstones_wait_to_surface(monkeypatch):
    compaction_rule(monkeypatch, math.inf, 0.01)
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(20)]
    for event in events:
        event.cancel()
    assert sim.heap_compactions == 0
    assert len(sim._heap) == 20  # tombstones pinned until they surface
    sim.run()
    assert sim.processed_events == 0
    assert sim._heap == []


# ----------------------------------------------------------------------
# schedule_fire (fire-and-forget entries)
# ----------------------------------------------------------------------
def test_schedule_fire_interleaves_fifo_with_schedule():
    """Both entry shapes share one seq counter, so ties stay FIFO."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "event-a")
    sim.schedule_fire(1.0, fired.append, "fire-b")
    sim.schedule(1.0, fired.append, "event-c")
    sim.schedule_fire(0.5, fired.append, "fire-d")
    sim.run()
    assert fired == ["fire-d", "event-a", "fire-b", "event-c"]
    assert sim.processed_events == 4
    assert sim.pending_events == 0


def test_schedule_fire_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_fire(-0.1, lambda: None)


def test_schedule_fire_entries_survive_compaction(aggressive_sim):
    """Bare ``(time, seq, callback, args)`` entries are always live."""
    sim = aggressive_sim
    fired = []
    for i in range(4):
        sim.schedule_fire(1.0 + i, fired.append, i)
    doomed = [sim.schedule(10.0, lambda: None) for _ in range(4)]
    for event in doomed:
        event.cancel()
    assert sim.heap_compactions >= 1
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_clear_discards_fire_and_forget_entries():
    sim = Simulator()
    fired = []
    sim.schedule_fire(1.0, fired.append, "x")
    handle = sim.schedule(2.0, fired.append, "y")
    sim.clear()
    assert sim.pending_events == 0
    handle.cancel()  # late cancel after clear stays a no-op
    assert sim.pending_events == 0
    sim.run()
    assert fired == []


def test_run_until_dispatches_both_entry_shapes():
    sim = Simulator()
    fired = []
    sim.schedule_fire(1.0, fired.append, "bare")
    sim.schedule(2.0, fired.append, "event")
    sim.run(until=1.0)
    assert fired == ["bare"] and sim.now == 1.0 and sim.pending_events == 1
    sim.run(until=2.0)
    assert fired == ["bare", "event"] and sim.now == 2.0 and sim.pending_events == 0
    assert sim.processed_events == 2
