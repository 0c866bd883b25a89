"""Unit tests for wire frames and id allocation."""

import itertools

from repro.pubsub.messages import AckFrame, PacketFrame
from tests.conftest import build_ctx, make_topology

#: Transfer ids for the frames these tests build by hand.
_ids = itertools.count(1)


def make_frame(**overrides):
    defaults = dict(
        msg_id=1,
        transfer_id=next(_ids),
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({3, 4}),
        routing_path=(),
    )
    defaults.update(overrides)
    return PacketFrame.fresh(**defaults)


def make_ctx():
    return build_ctx(make_topology([(0, 1, 0.010)]))


class TestIds:
    def test_message_ids_monotonic(self):
        ctx = make_ctx()
        first = next(ctx.message_ids)
        second = next(ctx.message_ids)
        assert second == first + 1

    def test_each_run_counts_from_one(self):
        used = make_ctx()
        next(used.message_ids)
        next(used.transfer_ids)
        fresh = make_ctx()
        assert next(fresh.message_ids) == 1
        assert next(fresh.transfer_ids) == 1

    def test_fresh_frames_get_distinct_transfer_ids(self):
        ctx = make_ctx()
        a = make_frame(transfer_id=next(ctx.transfer_ids))
        b = make_frame(transfer_id=next(ctx.transfer_ids))
        assert a.transfer_id != b.transfer_id


class TestForwarding:
    def test_forwarded_appends_sender_to_path(self):
        frame = make_frame(routing_path=(0,))
        copy = frame.forwarded(next(_ids), sender=1, destinations=frozenset({3}))
        assert copy.routing_path == (0, 1)
        assert copy.destinations == frozenset({3})

    def test_forwarded_preserves_message_identity(self):
        frame = make_frame()
        copy = frame.forwarded(next(_ids), sender=0, destinations=frame.destinations)
        assert copy.msg_id == frame.msg_id
        assert copy.topic == frame.topic
        assert copy.origin == frame.origin
        assert copy.publish_time == frame.publish_time

    def test_forwarded_allocates_new_transfer_id(self):
        frame = make_frame()
        transfer_id = next(_ids)
        copy = frame.forwarded(transfer_id, sender=0, destinations=frame.destinations)
        assert copy.transfer_id == transfer_id != frame.transfer_id

    def test_forwarded_carries_source_route(self):
        frame = make_frame(source_route=(5, 6))
        copy = frame.forwarded(next(_ids), 0, frame.destinations, source_route=(6,))
        assert copy.source_route == (6,)

    def test_visited(self):
        frame = make_frame(routing_path=(0, 2))
        assert frame.visited(2)
        assert not frame.visited(3)


class TestUpstream:
    def test_origin_has_no_upstream(self):
        frame = make_frame(routing_path=())
        assert frame.upstream_of(0) == -1

    def test_receiver_upstream_is_last_sender(self):
        # 0 sent to 1: at node 1, the upstream is 0.
        frame = make_frame(routing_path=(0,))
        assert frame.upstream_of(1) == 0

    def test_sender_upstream_is_predecessor_of_first_appearance(self):
        # Path 0 -> 1 -> 2, bounced back: node 1's upstream is 0.
        frame = make_frame(routing_path=(0, 1, 2))
        assert frame.upstream_of(1) == 0

    def test_origin_on_path_upstream_is_minus_one(self):
        frame = make_frame(routing_path=(0, 1))
        assert frame.upstream_of(0) == -1

    def test_repeated_appearance_uses_first(self):
        # 0 -> 1 -> 2 -> (bounce) 1 -> 3: node 1 appears twice; its
        # upstream stays 0.
        frame = make_frame(routing_path=(0, 1, 2, 1))
        assert frame.upstream_of(1) == 0


class TestDedup:
    def test_dedup_key_is_transfer_id(self):
        frame = make_frame()
        assert frame.dedup_key() == frame.transfer_id

    def test_distinct_copies_have_distinct_keys(self):
        frame = make_frame()
        copy = frame.forwarded(next(_ids), 0, frame.destinations)
        assert frame.dedup_key() != copy.dedup_key()


class TestPriorityAndSize:
    def test_default_priority_is_inf(self):
        assert make_frame().priority == float("inf")

    def test_forwarded_inherits_priority(self):
        frame = make_frame(priority=3.5)
        copy = frame.forwarded(next(_ids), 0, frame.destinations)
        assert copy.priority == 3.5

    def test_forwarded_priority_override(self):
        frame = make_frame(priority=3.5)
        copy = frame.forwarded(next(_ids), 0, frame.destinations, priority=1.25)
        assert copy.priority == 1.25

    def test_forwarded_preserves_size_and_fragments(self):
        frame = make_frame(size=0.5, fragment_index=1, fragments_needed=2)
        copy = frame.forwarded(next(_ids), 0, frame.destinations)
        assert copy.size == 0.5
        assert copy.fragment_index == 1
        assert copy.fragments_needed == 2


class TestPathCopies:
    """A copy's path is the ``routing_path`` tuple alone: forked copies
    extend it without touching their parent's, and narrowed or replayed
    copies share it."""

    def test_forwarded_chain_keeps_repeated_senders(self):
        frame = make_frame()
        for hop in (0, 7, 3, 7):  # a repeated sender stays on the path twice
            frame = frame.forwarded(next(_ids), hop, frame.destinations)
        assert frame.routing_path == (0, 7, 3, 7)
        assert frame.visited(7) and not frame.visited(5)
        assert frame.upstream_of(7) == 0

    def test_forwarded_does_not_mutate_parent(self):
        frame = make_frame(routing_path=(0,))
        frame.forwarded(next(_ids), 5, frame.destinations)
        assert frame.routing_path == (0,)

    def test_with_destinations_shares_the_path(self):
        frame = make_frame(routing_path=(0, 5))
        copy = frame.with_destinations(frozenset({4}))
        assert copy.routing_path is frame.routing_path
        assert copy.transfer_id == frame.transfer_id

    def test_forwarded_takes_a_held_path_verbatim(self):
        frame = make_frame(routing_path=(0,))
        held = (0, 5)
        copy = frame.forwarded(next(_ids), 5, frame.destinations, routing_path=held)
        assert copy.routing_path is held
        assert copy == frame.forwarded(copy.transfer_id, 5, frame.destinations)


class TestAckFrame:
    def test_fields(self):
        ack = AckFrame(msg_id=7, acker=3, transfer_id=99)
        assert ack.msg_id == 7 and ack.acker == 3 and ack.transfer_id == 99
