"""Unit tests for the broker runtime (ACKing, dedup, local delivery)."""

import pytest

from repro.overlay.links import FrameKind
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.base import RoutingStrategy
from repro.util.errors import SimulationError
from tests.conftest import build_ctx, make_topology, single_topic_workload


class RecordingStrategy(RoutingStrategy):
    """Captures every delegated call for assertions."""

    name = "recording"
    uses_acks = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.data_calls = []
        self.ack_calls = []

    def publish(self, spec: TopicSpec, msg_id: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def handle_data(self, node, sender, frame):
        self.data_calls.append((node, sender, frame))

    def handle_ack(self, node, sender, ack):
        self.ack_calls.append((node, sender, ack))


def make_setup(uses_acks=True, subscribers=((2, 1.0),)):
    topo = make_topology([(0, 1, 0.010), (1, 2, 0.010)])
    workload = single_topic_workload(publisher=0, subscribers=subscribers)
    ctx = build_ctx(topo, workload)
    strategy = RecordingStrategy(ctx)
    strategy.uses_acks = uses_acks
    brokers = {node: BrokerRuntime(node, ctx, strategy) for node in topo.nodes}
    return ctx, strategy, brokers


def data_frame(ctx, destinations, path=(0,), msg_id=1, topic=0):
    ctx.metrics.expect(msg_id, topic, 0.0, {node: 1.0 for node in destinations})
    return PacketFrame.fresh(
        msg_id=msg_id,
        transfer_id=next(ctx.transfer_ids),
        topic=topic,
        origin=0,
        publish_time=0.0,
        destinations=frozenset(destinations),
        routing_path=tuple(path),
    )


def test_data_frame_is_acked_to_sender():
    ctx, strategy, brokers = make_setup()
    frame = data_frame(ctx, {2})
    brokers[1].on_frame(0, frame)
    ctx.sim.run()
    assert ctx.network.stats.sent[FrameKind.ACK] == 1
    [(node, sender, ack)] = strategy.ack_calls  # arrived where it was owed
    assert (node, sender, ack.transfer_id) == (0, 1, frame.transfer_id)


def test_no_ack_when_strategy_does_not_use_acks():
    ctx, strategy, brokers = make_setup(uses_acks=False)
    frame = data_frame(ctx, {2})
    brokers[1].on_frame(0, frame)
    ctx.sim.run()
    assert ctx.network.stats.sent[FrameKind.ACK] == 0


def test_forwarding_delegated_to_strategy():
    ctx, strategy, brokers = make_setup()
    frame = data_frame(ctx, {2})
    brokers[1].on_frame(0, frame)
    assert len(strategy.data_calls) == 1
    node, sender, received = strategy.data_calls[0]
    assert node == 1 and sender == 0
    assert received.destinations == frozenset({2})


def test_duplicate_copy_is_reacked_but_not_reprocessed():
    ctx, strategy, brokers = make_setup()
    frame = data_frame(ctx, {2})
    brokers[1].on_frame(0, frame)
    brokers[1].on_frame(0, frame)  # identical retransmission
    ctx.sim.run()
    # both copies ACKed (the first ACK may have died)
    assert ctx.network.stats.sent[FrameKind.ACK] == 2
    assert len(strategy.data_calls) == 1
    assert brokers[1].duplicates_suppressed == 1


def test_distinct_copies_of_same_message_both_processed():
    ctx, strategy, brokers = make_setup()
    frame = data_frame(ctx, {2})
    bounced = frame.forwarded(
        next(ctx.transfer_ids), sender=1, destinations=frame.destinations
    )
    brokers[1].on_frame(0, frame)
    brokers[1].on_frame(2, bounced)
    assert len(strategy.data_calls) == 2


def test_local_delivery_recorded_and_stripped():
    ctx, strategy, brokers = make_setup(subscribers=((1, 1.0), (2, 1.0)))
    frame = data_frame(ctx, {1, 2})
    brokers[1].on_frame(0, frame)
    outcome = ctx.metrics.outcome(1, 1)
    assert outcome.delivered
    # Forwarding continues with node 1 removed from the destinations.
    assert strategy.data_calls[0][2].destinations == frozenset({2})
    assert brokers[1].local_deliveries == 1


def test_frame_fully_consumed_locally_is_not_forwarded():
    ctx, strategy, brokers = make_setup(subscribers=((1, 1.0),))
    frame = data_frame(ctx, {1})
    brokers[1].on_frame(0, frame)
    assert strategy.data_calls == []


def test_destination_without_local_subscription_not_delivered():
    # Node 1 is in the destination set but hosts no subscriber of topic 0.
    ctx, strategy, brokers = make_setup(subscribers=((2, 1.0),))
    frame = data_frame(ctx, {1, 2}, msg_id=5)
    brokers[1].on_frame(0, frame)
    # Remaining destinations exclude node 1 (it was addressed in error) but
    # nothing was recorded as delivered for it.
    assert not ctx.metrics.outcome(5, 1).delivered


def test_ack_routed_to_strategy():
    ctx, strategy, brokers = make_setup()
    ack = AckFrame(msg_id=1, acker=1, transfer_id=9)
    brokers[0].on_frame(1, ack)
    assert strategy.ack_calls == [(0, 1, ack)]


def test_unknown_frame_type_rejected():
    ctx, strategy, brokers = make_setup()
    with pytest.raises(SimulationError):
        brokers[1].on_frame(0, "garbage")


def test_local_topics_property():
    ctx, strategy, brokers = make_setup(subscribers=((2, 1.0),))
    assert brokers[2].local_topics == {0}
    assert brokers[1].local_topics == set()
