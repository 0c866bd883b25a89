"""Dedup-window eviction behaviour of the broker runtime."""

import pytest

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


def frame_to(ctx, node, msg_id):
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


def test_window_eviction_allows_old_copy_again(monkeypatch):
    monkeypatch.setattr(broker_module, "DEDUP_CAPACITY", 3)
    topo = make_topology([(0, 1, 0.010)])
    workload = single_topic_workload(0, [(1, 1.0)])
    ctx = build_ctx(topo, workload)
    strategy = SilentStrategy(ctx)
    runtime = BrokerRuntime(1, ctx, strategy)

    first = frame_to(ctx, 1, msg_id=1)
    runtime.on_frame(0, first)
    assert strategy.seen == [first.transfer_id]

    # Re-delivery while still in the window: suppressed.
    runtime.on_frame(0, first)
    assert strategy.seen == [first.transfer_id]

    # Push enough distinct copies through to evict the first entry.
    for msg_id in range(2, 6):
        runtime.on_frame(0, frame_to(ctx, 1, msg_id=msg_id))
    runtime.on_frame(0, first)  # evicted -> processed again
    assert strategy.seen.count(first.transfer_id) == 2
    assert runtime.duplicates_suppressed == 1


def test_default_window_is_large():
    assert broker_module.DEDUP_CAPACITY >= 1 << 16
