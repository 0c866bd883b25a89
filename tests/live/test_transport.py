"""Callback framing and per-connection error handling of LiveTransport."""

from __future__ import annotations

import asyncio
import math
import random

import pytest

from repro.live.clock import WallClock
from repro.live.codec import LENGTH_PREFIX, FrameCodec
from repro.live.config import LiveConfig
from repro.live.faults import DropRule, ack_loss_rules, dead_link_rules, link_filter
from repro.live.transport import LiveTransport
from repro.ordering.tags import OrderTag
from repro.overlay.links import FrameKind
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.sim.random import RandomStreams
from tests.core.test_forwarding import diamond


def mixed_frames(count: int = 50):
    """``(sender, frame)`` pairs: ACKs and DATA of varying length."""
    rng = random.Random(7)
    frames = []
    for i in range(count):
        sender = rng.choice((0, 2, 3))
        if i % 3 == 0:
            frames.append((sender, AckFrame(i, sender, (2 << 40) + i)))
            continue
        frames.append(
            (
                sender,
                PacketFrame(
                    msg_id=i,
                    transfer_id=(1 << 40) + i,
                    topic=1,
                    origin=0,
                    publish_time=i * 0.001,
                    destinations=frozenset(rng.sample(range(6), rng.randint(1, 4))),
                    routing_path=tuple(rng.sample(range(6), rng.randint(0, 3))),
                    priority=math.inf if i % 2 else i * 0.5,
                    order_tag=OrderTag(0, i, {(1, 0): i}) if i % 5 == 0 else None,
                ),
            )
        )
    return frames


def _identity(sender, frame):
    # PacketFrame equality leaves the order tag out; the wire must not.
    return sender, frame, getattr(frame, "order_tag", None)


async def _receive(chunks):
    """Feed *chunks* to one accepting end; what its node's sinks saw."""
    from repro.live.transport import _EdgeEnd

    transport = LiveTransport(
        WallClock(asyncio.get_running_loop()), diamond(), RandomStreams(0)
    )
    seen = []
    transport.attach(1, lambda src, frame: seen.append(_identity(src, frame)))
    end = _EdgeEnd(transport, 1)
    for chunk in chunks:
        end.data_received(chunk)
    assert transport.codec_errors == 0
    return seen


def test_any_chunking_of_the_stream_dispatches_the_same_frames():
    codec = FrameCodec()
    stream = b"".join(codec.encode(sender, frame) for sender, frame in mixed_frames())
    frames = [_identity(sender, frame) for sender, frame in mixed_frames()]

    async def scenario():
        assert await _receive([stream]) == frames
        assert await _receive([stream[i : i + 1] for i in range(len(stream))]) == frames
        for cut in range(1, len(stream)):
            assert await _receive([stream[:cut], stream[cut:]]) == frames, cut

    asyncio.run(scenario())


async def _started_transport(config=None, rules=()):
    transport = LiveTransport(
        WallClock(asyncio.get_running_loop()),
        diamond(),
        RandomStreams(0),
        config if config is not None else LiveConfig(max_frame_bytes=256),
    )
    if rules:
        transport.install_fault_filter(link_filter(rules))
    seen = []
    transport.attach(1, lambda src, frame: seen.append((src, frame)))
    await transport.start()
    return transport, seen


async def _until(predicate, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_an_oversized_prefix_is_counted_and_closes_only_that_connection():
    async def scenario():
        transport, seen = await _started_transport()
        try:
            reader, writer = await asyncio.open_connection(
                transport.config.host, transport.bound_port(1)
            )
            writer.write(LENGTH_PREFIX.pack(257) + b"x" * 16)
            # The server hangs up on a stream it cannot resynchronise ...
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            assert transport.codec_errors == 1
            writer.close()
            # ... and every overlay edge into the same node still delivers.
            frame = AckFrame(1, 0, 9)
            transport.send_ack(0, 1, frame)
            await _until(lambda: seen == [(0, frame)])
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_garbage_behind_a_good_prefix_is_counted_and_the_stream_continues():
    async def scenario():
        transport, seen = await _started_transport()
        try:
            _, writer = await asyncio.open_connection(
                transport.config.host, transport.bound_port(1)
            )
            frame = AckFrame(2, 3, 11)
            writer.write(LENGTH_PREFIX.pack(9) + b"not a frm" + transport.codec.encode(3, frame))
            await _until(lambda: seen == [(3, frame)])
            assert transport.codec_errors == 1
            assert not writer.transport.is_closing()
            writer.close()
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_close_awaits_both_ends_and_leaves_nothing_pending():
    async def scenario():
        transport, _ = await _started_transport()
        # Both directions of the diamond's four edges, dialled and accepted.
        await _until(lambda: len(transport._ends) == 16)
        ends = list(transport._ends)
        await transport.close()
        assert all(end.closed.done() for end in ends)
        assert transport._ends == [] and transport._writers == {}
        me = asyncio.current_task()
        assert [t for t in asyncio.all_tasks() if t is not me] == []

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# in_transit: copies between their send and their receiver's dispatch
# ---------------------------------------------------------------------------
def test_in_transit_counts_a_delayed_copy_until_its_dispatch():
    async def scenario():
        transport, seen = await _started_transport()
        try:
            transport.send_ack(0, 1, AckFrame(1, 0, 9))
            assert transport.in_transit == 1  # in the calendar for the 10 ms link
            await _until(lambda: seen)
            assert transport.in_transit == 0
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_in_transit_skips_a_dropped_frame():
    async def scenario():
        transport, seen = await _started_transport(rules=ack_loss_rules(0, 1))
        try:
            transport.send_ack(0, 1, AckFrame(1, 0, 9))
            assert transport.in_transit == 0  # dropped at the seam, not on its way
            transport.send_ack(1, 0, AckFrame(2, 1, 10))
            assert transport.in_transit == 1  # the reverse direction passes
            await _until(lambda: transport.in_transit == 0)
            assert seen == []  # node 0 has no sink; node 1 got nothing
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_in_transit_releases_a_frame_no_handler_takes():
    async def scenario():
        transport, seen = await _started_transport()
        try:
            transport.send_ack(0, 2, AckFrame(1, 0, 9))  # node 2 has no sink
            assert transport.in_transit == 1
            await _until(lambda: transport.in_transit == 0)
            assert seen == []
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_in_transit_forgets_the_copies_of_a_closed_connection():
    async def scenario():
        transport, seen = await _started_transport()
        try:
            transport.send_ack(0, 1, AckFrame(1, 0, 9))
            await _until(lambda: seen)
            writer = transport._writers[(0, 1)]
            reader = next(
                end
                for end in transport._ends
                if (end.src, end.dst) == (0, 1) and end.transport is not writer
            )
            reader.transport.pause_reading()
            transport.send_ack(0, 1, AckFrame(2, 0, 10))
            await _until(lambda: transport._unwritten == 0)  # the link's delay
            assert transport.in_transit == 1  # written, not yet read ...
            reader.transport.close()  # ... and now it never will be
            await reader.closed
            assert transport.in_transit == 0 and len(seen) == 1
            # The dialling end sees the close too: a copy written to it is
            # dropped at the write, never counted.
            await _until(writer.is_closing)
            transport.send_ack(0, 1, AckFrame(3, 0, 11))
            assert transport.in_transit == 1  # in the calendar for the link
            await _until(lambda: transport._unwritten == 0)
            assert transport.in_transit == 0
            assert (0, 1) not in transport._on_wire and len(seen) == 1
        finally:
            await transport.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Link ledger: every send ends delivered or lost to the filter, per kind
# ---------------------------------------------------------------------------
def _ledger(stats, kind):
    return (
        stats.sent[kind],
        stats.delivered[kind],
        stats.lost_injected[kind],
        stats.volume[kind],
    )


def test_a_dropped_frame_is_a_send_and_an_injected_loss_of_its_kind():
    async def scenario():
        transport, seen = await _started_transport(rules=ack_loss_rules(0, 1))
        transport.send_ack(0, 1, AckFrame(1, 0, 9))
        await transport.close()
        assert seen == []
        assert _ledger(transport.stats, FrameKind.ACK) == (1, 0, 1, 1.0)
        assert _ledger(transport.stats, FrameKind.DATA) == (0, 0, 0, 0.0)

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "rules",
    [
        dead_link_rules(0, 1),
        ack_loss_rules(0, 1),
        (DropRule(src=0, dst=1, kind="data", count=2),),
    ],
    ids=["dead_link", "ack_only", "count_bounded"],
)
def test_every_send_is_delivered_or_lost_to_the_filter(rules):
    async def scenario():
        transport, seen = await _started_transport(rules=rules)
        for i in range(9):
            if i % 2:
                transport.send_ack(0, 1, AckFrame(i, 0, 100 + i))
            else:
                frame = PacketFrame(
                    msg_id=i,
                    transfer_id=200 + i,
                    topic=1,
                    origin=0,
                    publish_time=0.0,
                    destinations=frozenset({1}),
                    routing_path=(0,),
                )
                transport.send_data(0, 1, frame)
        await _until(lambda: transport.in_transit == 0)
        await transport.close()
        stats = transport.stats
        assert stats.sent[FrameKind.DATA] == 5 and stats.sent[FrameKind.ACK] == 4
        assert sum(stats.lost_injected.values()) > 0
        for kind in FrameKind:
            sent, delivered, lost, volume = _ledger(stats, kind)
            assert delivered + lost == sent, kind
            assert volume == sent, kind
        assert sum(stats.delivered.values()) == len(seen)

    asyncio.run(scenario())
