"""The broker's dedup window: two generations of transfer ids.

With a horizon ``H`` (the longest time that can separate two arrivals of
one transfer) the current generation retires one horizon after it began
and both are dropped once a further horizon has passed; with no horizon a
generation retires when it holds ``DEDUP_CAPACITY`` ids. Either way an id
is remembered for at least ``H`` and at least ``DEDUP_CAPACITY`` accepts.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pubsub.broker as broker_module
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.messages import PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.base import RoutingStrategy
from tests.conftest import build_ctx, make_topology, single_topic_workload


class SilentStrategy(RoutingStrategy):
    name = "silent"
    uses_acks = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.seen = []

    def publish(self, spec: TopicSpec, msg_id: int):  # pragma: no cover
        raise NotImplementedError

    def handle_data(self, node, sender, frame):
        self.seen.append(frame.transfer_id)


def frame_to(ctx, msg_id):
    ctx.metrics.expect(msg_id, 0, 0.0, {9: 1.0})
    return PacketFrame.fresh(
        msg_id=msg_id,
        transfer_id=next(ctx.transfer_ids),
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({9}),
        routing_path=(0,),
    )


def make_broker(horizon=None):
    topo = make_topology([(0, 1, 0.010)])
    ctx = build_ctx(topo, single_topic_workload(0, [(1, 1.0)]))
    strategy = SilentStrategy(ctx)
    runtime = BrokerRuntime(1, ctx, strategy)
    if horizon is not None:
        runtime.bound_window(horizon)
    return ctx, strategy, runtime


def window_size(runtime):
    return len(runtime._seen) + len(runtime._older)


def at(ctx, time, runtime, frame):
    """Deliver *frame* to *runtime* at simulated *time*."""
    ctx.sim.run(until=time)
    runtime.on_frame(0, frame)


def test_window_eviction_allows_old_copy_again():
    """An id outlives one generation, not two."""
    ctx, strategy, runtime = make_broker(horizon=1.0)
    first = frame_to(ctx, msg_id=1)
    at(ctx, 0.0, runtime, first)
    at(ctx, 0.5, runtime, first)  # same generation: suppressed
    assert strategy.seen == [first.transfer_id]

    # The first accept at or after t = H retires the generation holding
    # the first id; the id stays in the older one for another horizon.
    at(ctx, 1.2, runtime, frame_to(ctx, msg_id=2))
    assert window_size(runtime) == 2
    at(ctx, 1.3, runtime, first)
    assert strategy.seen.count(first.transfer_id) == 1

    # An accept at t >= 2H retires the older generation: the first id,
    # now more than one horizon old, is forgotten and passes again.
    at(ctx, 2.5, runtime, frame_to(ctx, msg_id=3))
    at(ctx, 2.6, runtime, first)
    assert strategy.seen.count(first.transfer_id) == 2
    assert runtime.duplicates_suppressed == 2


def test_a_silence_of_two_horizons_empties_the_window():
    ctx, strategy, runtime = make_broker(horizon=1.0)
    for msg_id in range(1, 4):
        at(ctx, 0.1 * msg_id, runtime, frame_to(ctx, msg_id=msg_id))
    assert window_size(runtime) == 3
    # Nothing arrives in [H, 2H): the next accept finds both generations
    # past the horizon and keeps neither.
    at(ctx, 2.5, runtime, frame_to(ctx, msg_id=4))
    assert window_size(runtime) == 1


def test_default_window_is_large():
    """Until the composition root bounds it, a window has no horizon and
    retires a generation only once it holds 2^17 ids."""
    _ctx, _strategy, runtime = make_broker()
    assert runtime._horizon == math.inf
    assert broker_module.DEDUP_CAPACITY >= 1 << 16


def test_without_a_horizon_a_generation_retires_full(monkeypatch):
    monkeypatch.setattr(broker_module, "DEDUP_CAPACITY", 3)
    ctx, strategy, runtime = make_broker()  # never bounded: no horizon
    assert runtime._horizon == math.inf
    check = broker_module.CAPACITY_CHECK_S
    frames = [frame_to(ctx, msg_id=i) for i in range(1, 10)]
    for frame in frames[:3]:
        at(ctx, 0.0, runtime, frame)
    # A look at the size comes once per check period, however long the
    # run has been quiet: the full generation retires at the first accept
    # after it, and its ids stay in the older one.
    at(ctx, 5 * check, runtime, frames[3])
    for frame in frames[:3]:
        at(ctx, 5 * check, runtime, frame)
    assert runtime.duplicates_suppressed == 3
    # Two more accepts leave the current generation short of capacity at
    # the next look: nothing retires, the first ids are still known.
    at(ctx, 6 * check, runtime, frames[4])
    at(ctx, 7 * check, runtime, frames[5])
    at(ctx, 7 * check, runtime, frames[0])
    assert runtime.duplicates_suppressed == 4
    # The next look finds it full and retires it: only then, five accepts
    # after them, are the first ids forgotten.
    at(ctx, 7 * check, runtime, frames[6])
    at(ctx, 8 * check, runtime, frames[7])
    at(ctx, 8 * check, runtime, frames[0])
    assert strategy.seen.count(frames[0].transfer_id) == 2
    assert runtime._older == {frame.transfer_id for frame in frames[3:7]}
    assert runtime._seen == {frames[7].transfer_id, frames[0].transfer_id}


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=60),
    repeat_after=st.floats(min_value=0.0, max_value=0.999),
    pick=st.integers(min_value=0),
)
def test_every_id_is_remembered_one_horizon(gaps, repeat_after, pick):
    """Whatever the arrival schedule, a copy arriving less than one
    horizon after its id was accepted is suppressed, and the window holds
    nothing accepted two horizons or more before the latest accept."""
    ctx, strategy, runtime = make_broker(horizon=1.0)
    accepted = []
    now = 0.0
    for msg_id, gap in enumerate(gaps, start=1):
        now += gap
        frame = frame_to(ctx, msg_id=msg_id)
        at(ctx, now, runtime, frame)
        accepted.append((now, frame))
    window = runtime._seen | runtime._older
    assert all(now - t < 2.0 for t, frame in accepted if frame.transfer_id in window)
    assert all(frame.transfer_id in window for t, frame in accepted if now - t < 1.0)
    # Replay one accepted copy less than a horizon after its accept.
    t, frame = accepted[pick % len(accepted)]
    if t + repeat_after >= now:
        at(ctx, t + repeat_after, runtime, frame)
        assert strategy.seen.count(frame.transfer_id) == 1
