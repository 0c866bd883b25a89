"""Unit tests of the three hold-back pipelines over a fake clock.

Each pipeline is driven directly — fake broker, fake deterministic
clock, hand-stamped frames — so every branch of the deliverability
rules (baseline adoption, gaps, stall watchdogs, stragglers, flush,
duplicate handling) is pinned without a full simulation in the loop.
"""

import heapq
import itertools
from types import SimpleNamespace

import pytest

from repro import probes as _probes
from repro.ordering.pipeline import (
    CausalPipeline,
    DeliveryPipeline,
    FifoPipeline,
    PIPELINES,
    TotalOrderPipeline,
)
from repro.ordering.plan import OrderingPlan
from repro.ordering.spec import parse_ordering


class FakeTimer:
    """The cancellable handle ``Clock.schedule`` returns."""

    cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeClock:
    """Deterministic clock satisfying the pipeline's substrate contract."""

    def __init__(self):
        self._now = 0.0
        self._timers = []
        self._seq = itertools.count()
        self.fired = 0

    def schedule(self, delay, callback, *args):
        assert delay >= 0.0  # the WallClock contract pipelines must honor
        timer = FakeTimer()
        heapq.heappush(
            self._timers,
            (self._now + delay, next(self._seq), callback, args, timer),
        )
        return timer

    def pending(self):
        """Timers armed and not cancelled."""
        return sum(1 for entry in self._timers if not entry[4].cancelled)

    def advance(self, until):
        while self._timers and self._timers[0][0] <= until:
            t, _, callback, args, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            self._now = t
            self.fired += 1
            callback(*args)
        self._now = until


class FakeBroker:
    """Terminal-stage double recording delivery order."""

    def __init__(self, node, clock):
        self.node = node
        self._sim = clock
        self.delivered = []

    def deliver_frame(self, frame):
        self.delivered.append(frame.msg_id)
        return True


class ReleaseRecorder:
    """Probe observer capturing the release stream with reasons."""

    def __init__(self):
        self.holds = []
        self.releases = []
        self.release_times = {}
        self.stalls = []

    def on_order_hold(self, t, node, frame, level):
        self.holds.append(frame.msg_id)

    def on_order_release(self, t, node, frame, level, reason, held_for):
        self.releases.append((frame.msg_id, reason, held_for))
        self.release_times[frame.msg_id] = t

    def on_order_stall(self, t, node, level, info):
        self.stalls.append(info["msg"])


def make_rig(level, spec_text=None, stall_timeout=1.0, total_hold=None, node=9):
    plan = OrderingPlan(
        parse_ordering(spec_text or level),
        stall_timeout=stall_timeout,
        total_hold=total_hold,
    )
    clock = FakeClock()
    broker = FakeBroker(node, clock)
    pipeline = plan.pipeline_for(broker)
    recorder = ReleaseRecorder()
    _probes.attach(recorder)
    return plan, clock, broker, pipeline, recorder


@pytest.fixture(autouse=True)
def _detach_recorders():
    yield
    for observer in _probes.observers():
        if isinstance(observer, ReleaseRecorder):
            _probes.detach(observer)


def publish(plan, msg_id, topic=0, origin=0, at=0.0):
    """A frame published at time *at*, stamped as the publish path would."""
    frame = SimpleNamespace(
        msg_id=msg_id, topic=topic, origin=origin, publish_time=at, order_tag=None
    )
    frame.order_tag = plan.stamp(frame)
    return frame


# ---------------------------------------------------------------------------
# Base / shared machinery
# ---------------------------------------------------------------------------
def test_levels_registry_is_complete():
    assert set(PIPELINES) == {"fifo", "causal", "total"}
    assert PIPELINES["fifo"] is FifoPipeline
    assert PIPELINES["causal"] is CausalPipeline
    assert PIPELINES["total"] is TotalOrderPipeline


def test_untagged_and_uncovered_frames_bypass_the_guarantee():
    plan, _, broker, pipeline, recorder = make_rig("fifo", "fifo:5")
    untagged = SimpleNamespace(msg_id=1, topic=5, origin=0, order_tag=None)
    pipeline.offer(untagged)
    uncovered = publish(plan, 2, topic=3)  # stamp() declines: topic not covered
    assert uncovered.order_tag is None
    pipeline.offer(uncovered)
    assert broker.delivered == [1, 2]
    assert recorder.releases == []  # bypass, not a release


def test_duplicate_of_held_frame_delivers_right_after_the_primary():
    plan, _, broker, pipeline, _ = make_rig("fifo")
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])  # held: waiting for seq 2
    dup = SimpleNamespace(
        msg_id=3, topic=0, origin=0, order_tag=frames[2].order_tag
    )
    pipeline.offer(dup)
    assert broker.delivered == [1]
    pipeline.offer(frames[1])
    assert broker.delivered == [1, 2, 3, 3]


def test_duplicate_of_released_frame_passes_straight_through():
    plan, _, broker, pipeline, recorder = make_rig("fifo")
    frame = publish(plan, 1)
    pipeline.offer(frame)
    pipeline.offer(
        SimpleNamespace(msg_id=1, topic=0, origin=0, order_tag=frame.order_tag)
    )
    assert broker.delivered == [1, 1]
    assert len(recorder.releases) == 1  # the dup is not a second release


def test_passthrough_base_releases_immediately():
    plan = OrderingPlan(parse_ordering("fifo"))
    clock = FakeClock()
    broker = FakeBroker(0, clock)
    pipeline = DeliveryPipeline(broker, plan)
    pipeline.offer(publish(plan, 1))
    assert broker.delivered == [1]
    assert pipeline.held_count() == 0


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------
def test_fifo_reorders_a_gapped_stream():
    plan, _, broker, pipeline, recorder = make_rig("fifo")
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])  # gap: seq 3 before seq 2
    assert broker.delivered == [1]
    assert recorder.holds == [3]
    pipeline.offer(frames[1])
    assert broker.delivered == [1, 2, 3]
    assert [r for _, r, _ in recorder.releases] == ["ready"] * 3
    assert pipeline.held_count() == 0


def test_fifo_streams_are_independent():
    plan, _, broker, pipeline, _ = make_rig("fifo")
    s1 = [publish(plan, i, origin=1) for i in (1, 2, 3)]
    s2 = publish(plan, 20, origin=2)
    pipeline.offer(s1[0])
    pipeline.offer(s1[2])  # held: stream-1 gap
    pipeline.offer(s2)  # stream 2 is unaffected by stream 1's gap
    assert broker.delivered == [1, 20]
    pipeline.offer(s1[1])
    assert broker.delivered == [1, 20, 2, 3]


def test_fifo_first_seen_sequence_adopts_baseline():
    plan, _, broker, pipeline, recorder = make_rig("fifo")
    for i in (1, 2, 3):
        publish(plan, i)  # stream history this node never saw
    late = publish(plan, 4)
    pipeline.offer(late)  # first contact at seq 4: no wait for 1..3
    assert broker.delivered == [4]
    assert recorder.releases == [(4, "ready", 0.0)]


def test_fifo_stall_watchdog_skips_the_gap():
    plan, clock, broker, pipeline, recorder = make_rig("fifo", stall_timeout=1.0)
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])  # seq 3 waits for lost seq 2
    clock.advance(0.9)
    assert broker.delivered == [1]
    clock.advance(1.1)
    assert broker.delivered == [1, 3]
    assert (3, "stall", pytest.approx(1.0)) in recorder.releases
    assert recorder.stalls == [3]
    # The skipped-over straggler arrives afterwards: stall, not ready.
    pipeline.offer(frames[1])
    assert broker.delivered == [1, 3, 2]
    assert recorder.releases[-1][:2] == (2, "stall")


def test_fifo_stall_release_resumes_ready_flow():
    plan, clock, broker, pipeline, recorder = make_rig("fifo", stall_timeout=1.0)
    frames = [publish(plan, i) for i in (1, 2, 3, 4)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])
    pipeline.offer(frames[3])
    clock.advance(2.0)  # watchdog: 3 stalls past the gap, 4 drains ready
    assert broker.delivered == [1, 3, 4]
    reasons = {msg: reason for msg, reason, _ in recorder.releases}
    assert reasons == {1: "ready", 3: "stall", 4: "ready"}


def test_fifo_flush_drains_everything_held():
    plan, _, broker, pipeline, recorder = make_rig("fifo")
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])
    pipeline.flush()
    assert broker.delivered == [1, 3]
    assert recorder.releases[-1][:2] == (3, "flush")
    assert pipeline.held_count() == 0


def test_fifo_closed_pipeline_ignores_late_timers():
    plan, clock, broker, pipeline, _ = make_rig("fifo", stall_timeout=1.0)
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])  # held behind the seq-2 gap, watchdog armed
    pipeline.close()
    clock.advance(5.0)  # the armed watchdog fires into a closed pipeline
    assert broker.delivered == [1]


# ---------------------------------------------------------------------------
# Causal
# ---------------------------------------------------------------------------
def test_causal_holds_until_dependency_delivered():
    plan, _, broker, pipeline, recorder = make_rig("causal")
    a1 = publish(plan, 1, origin=1)
    pipeline.offer(a1)  # this node now knows stream (0, 1) at seq 1
    a2 = publish(plan, 2, origin=1)
    # Node 2 saw a2 before publishing b1 -> b1 depends on (0, 1): 2.
    plan.note_delivery(2, a2, a2.order_tag)
    b1 = publish(plan, 3, origin=2)
    assert b1.order_tag.vc[(0, 1)] == 2
    pipeline.offer(b1)
    assert broker.delivered == [1]  # b1 held: dep on known stream unmet
    assert recorder.holds == [3]
    pipeline.offer(a2)
    assert broker.delivered == [1, 2, 3]  # cascade released b1


def test_causal_unknown_stream_dependency_is_waived():
    plan, _, broker, pipeline, _ = make_rig("causal")
    a1 = publish(plan, 1, origin=1)
    plan.note_delivery(2, a1, a1.order_tag)
    b1 = publish(plan, 2, origin=2)  # depends on stream (0, 1)
    pipeline.offer(b1)  # ...which this node has never seen: waived
    assert broker.delivered == [2]


def test_causal_own_stream_gap_holds():
    plan, _, broker, pipeline, _ = make_rig("causal")
    frames = [publish(plan, i, origin=1) for i in (1, 2, 3)]
    pipeline.offer(frames[0])
    pipeline.offer(frames[2])  # own-stream gap (seq 3 after seq 1)
    assert broker.delivered == [1]
    pipeline.offer(frames[1])
    assert broker.delivered == [1, 2, 3]


def test_causal_duplicate_sequence_is_a_stall_release():
    plan, _, broker, pipeline, recorder = make_rig("causal")
    a1 = publish(plan, 1, origin=1)
    pipeline.offer(a1)
    replay = SimpleNamespace(msg_id=7, topic=0, origin=1, order_tag=a1.order_tag)
    pipeline.offer(replay)  # seq <= delivered: late, out of the checked flow
    assert broker.delivered == [1, 7]
    assert recorder.releases[-1][:2] == (7, "stall")


def test_causal_stall_watchdog_forces_oldest_and_cascades():
    plan, clock, broker, pipeline, recorder = make_rig("causal", stall_timeout=1.0)
    a1 = publish(plan, 1, origin=1)
    publish(plan, 2, origin=1)  # a2 is lost to this node
    a3 = publish(plan, 3, origin=1)
    a4 = publish(plan, 4, origin=1)
    pipeline.offer(a1)
    pipeline.offer(a3)
    pipeline.offer(a4)
    assert broker.delivered == [1]
    clock.advance(1.5)
    # a3 forced through as a stall; a4 is then next-in-sequence -> ready.
    assert broker.delivered == [1, 3, 4]
    reasons = {msg: reason for msg, reason, _ in recorder.releases}
    assert reasons == {1: "ready", 3: "stall", 4: "ready"}


def test_causal_flush_releases_in_hold_order():
    plan, _, broker, pipeline, recorder = make_rig("causal")
    a1 = publish(plan, 1, origin=1)
    publish(plan, 2, origin=1)  # lost: a3/a4 can never go ready
    a3 = publish(plan, 3, origin=1)
    a4 = publish(plan, 4, origin=1)
    pipeline.offer(a1)
    pipeline.offer(a4)
    pipeline.offer(a3)
    pipeline.flush()
    # Deterministic drain order: (held_since, msg_id), so equal hold
    # times tie-break on msg_id.
    assert broker.delivered == [1, 3, 4]
    assert [r for _, r, _ in recorder.releases] == ["ready", "flush", "flush"]
    assert pipeline.held_count() == 0


# ---------------------------------------------------------------------------
# Total
# ---------------------------------------------------------------------------
def arrive(clock, pipeline, frame, at):
    """Offer *frame* to *pipeline* at time *at*, firing what is due before."""
    clock.advance(at)
    pipeline.offer(frame)


def test_total_keys_follow_publish_time_and_never_run_backwards():
    plan = OrderingPlan(parse_ordering("total"))
    first = publish(plan, 1, origin=1, at=2.5).order_tag
    assert first.ts == 2_500_000  # microseconds of the publish instant
    # Same instant again: the logical part keeps the key strictly ahead.
    assert publish(plan, 2, origin=1, at=2.5).order_tag.ts == 2_500_001
    # Lamport receive rule: node 3 delivered a key from its future and
    # then publishes "earlier" (a skewed clock) - causality still holds.
    ahead = publish(plan, 3, origin=2, at=9.0)
    plan.note_delivery(3, ahead, ahead.order_tag)
    assert publish(plan, 4, origin=3, at=8.0).order_tag.ts == 9_000_001


def test_total_releases_in_key_order_after_the_window():
    plan, clock, broker, pipeline, recorder = make_rig("total", total_hold=0.5)
    m_b = publish(plan, 10, origin=2, at=0.2)  # key (200000, 2, 1)
    m_a = publish(plan, 11, origin=1, at=0.2)  # key (200000, 1, 1)
    arrive(clock, pipeline, m_b, 0.30)  # arrival order is b then a...
    arrive(clock, pipeline, m_a, 0.35)
    # The window runs from the key time (0.2), not from either arrival.
    clock.advance(0.699)
    assert broker.delivered == []
    clock.advance(0.701)
    assert broker.delivered == [11, 10]  # ...release order is the key order
    assert recorder.releases == [
        (11, "ready", pytest.approx(0.35)),
        (10, "ready", pytest.approx(0.40)),
    ]
    assert recorder.release_times[11] == pytest.approx(0.2 + 0.5)
    assert recorder.release_times[10] == pytest.approx(0.2 + 0.5)


def test_total_same_subscriber_set_agrees_across_nodes():
    plan = OrderingPlan(parse_ordering("total"), total_hold=0.5)
    clock = FakeClock()
    brokers = [FakeBroker(node, clock) for node in (4, 5)]
    pipelines = [plan.pipeline_for(broker) for broker in brokers]
    frames = [publish(plan, 10 + i, origin=i % 3, at=0.01 * i) for i in range(6)]
    clock.advance(0.1)
    for frame in frames:  # node 4 sees publish order
        pipelines[0].offer(frame)
    for frame in reversed(frames):  # node 5 sees it fully reversed
        pipelines[1].offer(frame)
    clock.advance(2.0)
    assert brokers[0].delivered == brokers[1].delivered
    assert brokers[0].delivered == [10, 11, 12, 13, 14, 15]  # publish order


def test_total_inverted_arrivals_release_in_key_order_by_one_timer():
    plan, clock, broker, pipeline, recorder = make_rig("total", total_hold=0.5)
    m_a = publish(plan, 1, origin=1, at=0.10)
    m_b = publish(plan, 2, origin=2, at=0.12)
    arrive(clock, pipeline, m_b, 0.15)  # timer armed for b's due time, 0.62
    assert clock.pending() == 1
    arrive(clock, pipeline, m_a, 0.20)  # new top, due earlier: re-armed
    assert clock.pending() == 1  # ...never a second pending timer
    clock.advance(0.61)
    assert broker.delivered == [1]
    assert clock.pending() == 1
    clock.advance(0.63)
    assert broker.delivered == [1, 2]
    assert clock.pending() == 0
    # Same due time (one publish instant, two origins): one event, both.
    m_c = publish(plan, 3, origin=2, at=1.0)
    m_d = publish(plan, 4, origin=1, at=1.0)
    fired = clock.fired
    arrive(clock, pipeline, m_c, 1.1)
    arrive(clock, pipeline, m_d, 1.2)
    clock.advance(2.0)
    assert broker.delivered == [1, 2, 4, 3]
    assert clock.fired == fired + 1
    assert [r for _, r, _ in recorder.releases] == ["ready"] * 4


def test_total_frame_past_its_due_time_releases_without_a_timer():
    plan, clock, broker, pipeline, recorder = make_rig("total", total_hold=0.5)
    late = publish(plan, 1, origin=1, at=0.0)
    arrive(clock, pipeline, late, 0.8)  # due at 0.5: nothing to wait for
    assert broker.delivered == [1]
    assert recorder.releases == [(1, "ready", 0.0)]
    assert recorder.holds == []
    assert clock.pending() == 0 and clock.fired == 0
    assert pipeline.held_count() == 0


def test_total_straggler_past_the_watermark_stalls():
    plan, clock, broker, pipeline, recorder = make_rig("total", total_hold=0.5)
    early = publish(plan, 1, origin=1, at=0.0)
    late = publish(plan, 2, origin=1, at=0.1)
    arrive(clock, pipeline, late, 0.2)
    clock.advance(1.0)  # late released: watermark is now its key
    assert broker.delivered == [2]
    pipeline.offer(early)  # smaller key than the watermark
    assert broker.delivered == [2, 1]
    assert recorder.releases[-1][:2] == (1, "stall")


def test_total_flush_drains_in_key_order():
    plan, _, broker, pipeline, _ = make_rig("total", total_hold=10.0, stall_timeout=20.0)
    m1 = publish(plan, 1, origin=2)
    m2 = publish(plan, 2, origin=1)
    pipeline.offer(m1)
    pipeline.offer(m2)
    pipeline.flush()
    assert broker.delivered == [2, 1]  # (1,1,1) before (1,2,1)
    assert pipeline.held_count() == 0


def test_total_measured_window_is_the_jacobson_bound_of_the_transits():
    """No explicit bound: W = srtt + 4 * rttvar over the transits offered
    so far (RFC 6298 gains 1/8 and 1/4), frozen per frame at its offer."""
    plan, clock, broker, pipeline, recorder = make_rig("total", stall_timeout=1.0)
    assert plan.total_hold is None and pipeline.window() is None
    transits = [0.030, 0.050, 0.020, 0.080, 0.040]
    # By hand: (srtt, rttvar) after each sample.
    #  1: 0.03,            0.015            (seed: x, x/2)
    #  2: 0.0325,          0.01625          (dev 0.02)
    #  3: 0.0309375,       0.0153125        (dev 0.0125)
    #  4: 0.0370703125,    0.02375          (dev 0.0490625)
    #  5: 0.0374365234375, 0.018544921875   (dev 0.0029296875)
    windows = [0.09, 0.0975, 0.0921875, 0.1320703125, 0.1116162109375]
    for index, (transit, window) in enumerate(zip(transits, windows)):
        published = 1.0 + index
        frame = publish(plan, index + 1, origin=index % 2, at=published)
        arrive(clock, pipeline, frame, published + transit)
        assert pipeline.window() == pytest.approx(window, rel=1e-9)
        clock.advance(published + 0.9)
        assert recorder.release_times[index + 1] == pytest.approx(published + window)
    assert plan.perf_counters()["ordering.window_samples"] == 5.0
    assert plan.perf_counters()["ordering.window_s"] == pytest.approx(windows[-1])
    # One hopelessly late frame: the window stops at the stall timeout.
    frame = publish(plan, 9, origin=0, at=10.0)
    arrive(clock, pipeline, frame, 15.0)
    assert pipeline.window() == 1.0


def test_total_redelivery_sample_is_bounded_by_the_stall_timeout():
    """A custody redelivery (persistence extension) reaches the pipeline
    as a first offer that is seconds old. It is sampled - the pipeline
    cannot tell it from a slow first delivery - and the damage is what
    the clamp allows: never above ``stall_timeout``, decaying by a
    quarter per sample back towards the real spread."""
    plan, clock, broker, pipeline, _ = make_rig("total", stall_timeout=2.0)
    msg = itertools.count(1)

    def deliver(published, transit):
        arrive(clock, pipeline, publish(plan, next(msg), at=published), published + transit)

    for second in range(30):
        deliver(float(second), 0.03)
    settled = pipeline.window()
    assert settled == pytest.approx(0.03, abs=1e-3)
    deliver(30.0, 1.5)  # the redelivery
    assert settled < pipeline.window() <= 2.0
    peaks = []
    for second in range(31, 61):
        deliver(float(second), 0.03)
        peaks.append(pipeline.window())
    assert all(later < earlier for earlier, later in zip(peaks, peaks[1:]))
    assert peaks[15] < 0.25 and peaks[-1] < 0.07
    clock.advance(100.0)
    assert pipeline.held_count() == 0 and len(broker.delivered) == 61


def test_total_idle_publisher_is_not_sorted_into_the_past():
    """A publisher whose node delivered nothing for 100 s has a logical
    clock far behind everyone else's; its promptly arriving frames must
    still take their place in the agreed order at every subscriber."""
    plan = OrderingPlan(parse_ordering("total"))
    clock = FakeClock()
    brokers = [FakeBroker(node, clock) for node in (4, 5)]
    pipelines = [plan.pipeline_for(broker) for broker in brokers]
    recorder = ReleaseRecorder()
    _probes.attach(recorder)
    transit = {4: 0.03, 5: 0.05}

    def deliver(frame):
        for broker, pipeline in zip(brokers, pipelines):
            arrive(clock, pipeline, frame, frame.publish_time + transit[broker.node])

    for second in range(100):  # the busy publisher; the idle one hears none of it
        deliver(publish(plan, 1000 + second, origin=1, at=float(second)))
    idle = [publish(plan, 1 + i, origin=7, at=100.2 + i) for i in range(5)]
    for frame in idle:
        deliver(frame)
    clock.advance(200.0)
    for broker in brokers:
        assert broker.delivered[-5:] == [1, 2, 3, 4, 5]  # publish order
    reasons = {reason for _, reason, _ in recorder.releases}
    assert reasons == {"ready"}


# ---------------------------------------------------------------------------
# Plan-level surface
# ---------------------------------------------------------------------------
def test_plan_counters_aggregate_across_pipelines():
    plan = OrderingPlan(parse_ordering("fifo"), stall_timeout=1.0)
    clock = FakeClock()
    brokers = [FakeBroker(node, clock) for node in (1, 2)]
    pipes = [plan.pipeline_for(b) for b in brokers]
    frames = [publish(plan, i) for i in (1, 2, 3)]
    pipes[0].offer(frames[0])
    pipes[1].offer(frames[0])
    pipes[1].offer(frames[2])  # held on broker 2 (gap behind seq 2)
    counters = plan.perf_counters()
    assert counters["ordering.offers"] == 3.0
    assert counters["ordering.releases"] == 2.0
    assert counters["ordering.held_at_end"] == 1.0
    assert plan.held_count() == 1
    plan.flush()
    assert plan.held_count() == 0


def test_plan_stamp_is_idempotent_per_message():
    plan = OrderingPlan(parse_ordering("fifo"))
    frame = SimpleNamespace(msg_id=1, topic=0, origin=0, publish_time=0.0, order_tag=None)
    first = plan.stamp(frame)
    again = plan.stamp(frame)  # custody redelivery re-freshens the message
    assert first is again
    assert plan.stamp(
        SimpleNamespace(msg_id=2, topic=0, origin=0, publish_time=0.0, order_tag=None)
    ).seq == first.seq + 1
