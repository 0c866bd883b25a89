"""Hypothesis liveness properties of the hold-back pipelines.

The guarantee-specific unit tests pin *safety* (never release early);
these properties pin *liveness* under churn: whatever subset of a
workload actually reaches a subscriber (joins mid-stream, loses
arbitrary messages to a churned-away publisher, sees any arrival
interleaving, carries any causal dependency graph), the pipeline must

* release every offered frame exactly once (no duplicate release), and
* end up empty after the stall watchdog plus the end-of-run flush
  (no permanent stall).

For ``total`` one more property pins *agreement* under the measured
window: two subscribers that see the same messages through arbitrary,
different transits release their common ``ready`` frames in one order.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import probes as _probes
from repro.ordering.plan import OrderingPlan
from repro.ordering.spec import LEVELS, parse_ordering

from tests.ordering.test_pipelines import FakeBroker, FakeClock


@st.composite
def churn_worlds(draw):
    """A workload, which of it survives churn, and its arrival order.

    ``deps[i]`` lists earlier messages the publisher of message *i* had
    delivered before publishing — the raw material of causal vector
    clocks. Messages missing from ``arrival`` model a churned-away
    publisher whose tail never reaches this subscriber; arrival being a
    suffix-biased subset models a subscriber that joined mid-stream.
    """
    num_streams = draw(st.integers(min_value=1, max_value=3))
    counts = [
        draw(st.integers(min_value=1, max_value=4)) for _ in range(num_streams)
    ]
    messages = [
        (origin, index)
        for origin in range(num_streams)
        for index in range(counts[origin])
    ]
    deps = []
    for i in range(len(messages)):
        if i == 0:
            deps.append([])
        else:
            deps.append(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=i - 1),
                        unique=True,
                        max_size=3,
                    )
                )
            )
    arrival_set = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(messages) - 1),
            unique=True,
            min_size=1,
            max_size=len(messages),
        )
    )
    arrival = draw(st.permutations(arrival_set))
    return counts, messages, deps, list(arrival)


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=60, deadline=None)
@given(world=churn_worlds())
def test_no_permanent_stall_and_no_duplicate_release(level, world):
    counts, messages, deps, arrival = world
    plan = OrderingPlan(
        parse_ordering(level), stall_timeout=1.0, total_hold=0.5
    )
    clock = FakeClock()
    broker = FakeBroker(99, clock)
    pipeline = plan.pipeline_for(broker)

    # Stamp the whole workload in publish order, threading the drawn
    # causal-delivery graph through the publishers' observed clocks.
    frames = []
    for msg_index, (origin, _) in enumerate(messages):
        for dep_index in deps[msg_index]:
            dep = frames[dep_index]
            plan.note_delivery(origin, dep, dep.order_tag)
        frame = SimpleNamespace(
            msg_id=msg_index + 1,
            topic=0,
            origin=origin,
            publish_time=0.01 * msg_index,
            order_tag=None,
        )
        frame.order_tag = plan.stamp(frame)
        frames.append(frame)

    offered = [frames[i] for i in arrival]
    clock.advance(0.2)  # every frame has been published by now
    for frame in offered:
        pipeline.offer(frame)
    # Far past any stall-watchdog chain, then the end-of-run drain.
    clock.advance(1000.0)
    pipeline.flush()

    expected = sorted(frame.msg_id for frame in offered)
    assert sorted(broker.delivered) == expected  # exactly-once, no loss
    assert len(broker.delivered) == len(set(broker.delivered))
    assert pipeline.held_count() == 0
    counters = plan.perf_counters()
    assert counters["ordering.releases"] == float(len(offered))
    assert counters["ordering.held_at_end"] == 0.0


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=30, deadline=None)
@given(world=churn_worlds())
def test_join_leave_rejoin_subscriber_still_drains(level, world):
    """A second pipeline that joins after the stream started (fresh
    baselines mid-history) must drain just like the first."""
    counts, messages, deps, arrival = world
    plan = OrderingPlan(
        parse_ordering(level), stall_timeout=1.0, total_hold=0.5
    )
    clock = FakeClock()
    early = FakeBroker(1, clock)
    late = FakeBroker(2, clock)
    early_pipe = plan.pipeline_for(early)

    frames = []
    for msg_index, (origin, _) in enumerate(messages):
        for dep_index in deps[msg_index]:
            dep = frames[dep_index]
            plan.note_delivery(origin, dep, dep.order_tag)
        frame = SimpleNamespace(
            msg_id=msg_index + 1,
            topic=0,
            origin=origin,
            publish_time=0.01 * msg_index,
            order_tag=None,
        )
        frame.order_tag = plan.stamp(frame)
        frames.append(frame)

    offered = [frames[i] for i in arrival]
    clock.advance(0.2)
    half = len(offered) // 2
    for frame in offered[:half]:
        early_pipe.offer(frame)
    # The late subscriber joins now: it only ever sees the tail.
    late_pipe = plan.pipeline_for(late)
    for frame in offered[half:]:
        early_pipe.offer(frame)
        late_pipe.offer(frame)
    clock.advance(1000.0)
    plan.flush()

    assert sorted(early.delivered) == sorted(f.msg_id for f in offered)
    assert sorted(late.delivered) == sorted(f.msg_id for f in offered[half:])
    assert len(late.delivered) == len(set(late.delivered))
    assert plan.held_count() == 0


class ReleaseLog:
    """Probe observer: the (msg, reason) release stream of each node."""

    def __init__(self):
        self.by_node = {}

    def on_order_release(self, t, node, frame, level, reason, held_for):
        self.by_node.setdefault(node, []).append((frame.msg_id, reason))


@st.composite
def transit_worlds(draw):
    """Messages with publish instants, and each subscriber's transit to
    every one of them - any distribution, including transits far past
    the stall timeout (the window's ceiling) and exact ties."""
    count = draw(st.integers(min_value=1, max_value=12))
    transit = st.one_of(
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from([0.0, 0.05, 1.0]),
    )
    published = 0.0
    messages = []
    for _ in range(count):
        published += draw(st.floats(min_value=0.0, max_value=0.3))
        origin = draw(st.integers(min_value=0, max_value=2))
        messages.append((origin, published, draw(transit), draw(transit)))
    return messages


@settings(max_examples=250, deadline=None)
@given(world=transit_worlds())
def test_total_subscribers_agree_under_any_transit_distribution(world):
    """Two subscribers, each sizing its own window from its own transits:
    common ``ready`` releases appear in the same (key) order at both,
    every frame is released exactly once, and the buffers end empty with
    no flush - the window never outlives the stall timeout."""
    plan = OrderingPlan(parse_ordering("total"), stall_timeout=1.0)
    clock = FakeClock()
    brokers = [FakeBroker(node, clock) for node in (1, 2)]
    pipelines = [plan.pipeline_for(broker) for broker in brokers]
    frames = []
    arrivals = []
    for index, (origin, published, *transits) in enumerate(world):
        frame = SimpleNamespace(
            msg_id=index + 1,
            topic=0,
            origin=origin,
            publish_time=published,
            order_tag=None,
        )
        frame.order_tag = plan.stamp(frame)
        frames.append(frame)
        for pipeline, transit in zip(pipelines, transits):
            arrivals.append((published + transit, index, pipeline))
    log = ReleaseLog()
    _probes.attach(log)
    try:
        for at, index, pipeline in sorted(arrivals, key=lambda a: a[:2]):
            clock.advance(at)
            pipeline.offer(frames[index])
        clock.advance(1000.0)
    finally:
        _probes.detach(log)

    keys = {
        f.msg_id: (f.order_tag.ts, f.order_tag.origin, f.order_tag.seq)
        for f in frames
    }
    ready = []
    for broker, pipeline in zip(brokers, pipelines):
        assert sorted(broker.delivered) == sorted(keys)  # exactly once
        assert pipeline.held_count() == 0
        released = log.by_node[broker.node]
        assert [msg for msg, _ in released] == broker.delivered
        ready.append([msg for msg, reason in released if reason == "ready"])
        assert pipeline.window() <= 1.0
    for stream in ready:  # the agreed order is the key order
        assert [keys[msg] for msg in stream] == sorted(keys[msg] for msg in stream)
    common = set(ready[0]) & set(ready[1])
    assert [m for m in ready[0] if m in common] == [m for m in ready[1] if m in common]
