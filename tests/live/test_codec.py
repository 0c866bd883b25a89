"""Wire-codec tests: canonical round-trips, strict rejection, golden vectors."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.codec import LENGTH_PREFIX, CodecError, FrameCodec
from repro.ordering.tags import OrderTag
from repro.pubsub.messages import AckFrame, PacketFrame

#: Offset of the destination count in a DATA envelope (fixed header).
N_DESTS_AT = 61
DATA_HEADER_BYTES = 68


def make_packet(**overrides) -> PacketFrame:
    fields = dict(
        msg_id=7,
        transfer_id=42,
        topic=3,
        origin=0,
        publish_time=1.25,
        destinations=frozenset({2, 5, 1}),
        routing_path=(0, 4),
        source_route=(),
        fragment_index=-1,
        fragments_needed=0,
        size=1.0,
        priority=2.5,
    )
    fields.update(overrides)
    return PacketFrame(**fields)


def assert_same_packet(decoded: PacketFrame, frame: PacketFrame) -> None:
    assert decoded == frame  # every wire field but the tag
    assert decoded.order_tag == frame.order_tag
    if frame.order_tag is not None:
        assert (decoded.order_tag.vc is None) == (frame.order_tag.vc is None)


node_ids = st.integers(0, 2**32 - 1)
counters = st.integers(0, 2**64 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
vector_clocks = st.dictionaries(st.tuples(node_ids, node_ids), counters, max_size=4)
order_tags = st.one_of(
    st.none(),
    st.builds(OrderTag, node_ids, counters),  # fifo
    st.builds(OrderTag, node_ids, counters, vector_clocks),  # causal
    st.builds(OrderTag, node_ids, counters, st.none(), counters),  # total
)
packets = st.builds(
    PacketFrame,
    msg_id=counters,
    # Striped ids carry the partition group above bit 40.
    transfer_id=st.integers(2**32, 2**64 - 1),
    topic=node_ids,
    origin=node_ids,
    publish_time=finite,
    destinations=st.frozensets(node_ids, max_size=6),
    routing_path=st.lists(node_ids, max_size=5).map(tuple),
    source_route=st.lists(node_ids, max_size=5).map(tuple),
    fragment_index=st.integers(-1, 2**31 - 1),
    fragments_needed=st.integers(0, 2**32 - 1),
    size=finite,
    priority=st.one_of(st.just(math.inf), finite),
    order_tag=order_tags,
)


class TestRoundTrip:
    def test_packet_round_trips(self):
        codec = FrameCodec()
        frame = make_packet()
        sender, decoded = codec.decode_payload(codec.encode_payload(4, frame))
        assert sender == 4
        assert_same_packet(decoded, frame)

    @settings(max_examples=300, deadline=None)
    @given(sender=node_ids, frame=packets)
    def test_any_packet_round_trips(self, sender, frame):
        codec = FrameCodec()
        payload = codec.encode_payload(sender, frame)
        decoded_sender, decoded = codec.decode_payload(payload)
        assert decoded_sender == sender
        assert_same_packet(decoded, frame)
        # Canonical: what was decoded encodes to the same bytes.
        assert codec.encode_payload(sender, decoded) == payload

    def test_ack_round_trips(self):
        codec = FrameCodec()
        ack = AckFrame(msg_id=9, acker=3, transfer_id=(5 << 40) + 77)
        sender, decoded = codec.decode_payload(codec.encode_payload(3, ack))
        assert sender == 3
        assert isinstance(decoded, AckFrame)
        assert decoded == ack

    def test_infinite_priority_survives(self):
        codec = FrameCodec()
        frame = make_packet(priority=math.inf)
        _, decoded = codec.decode_payload(codec.encode_payload(0, frame))
        assert decoded.priority == math.inf

    def test_encoding_is_canonical(self):
        """Same frame -> same bytes, independent of set iteration order."""
        codec = FrameCodec()
        a = make_packet(destinations=frozenset({5, 1, 2}))
        b = make_packet(destinations=frozenset({2, 5, 1}))
        assert codec.encode_payload(0, a) == codec.encode_payload(0, b)

    def test_full_message_layout(self):
        codec = FrameCodec()
        ack = AckFrame(msg_id=1, acker=2, transfer_id=3)
        message = codec.encode(2, ack)
        length = codec.split_prefix(message[:4])
        payload = message[4:]
        assert length == len(payload)
        sender, decoded = codec.decode_payload(payload)
        assert sender == 2 and decoded.transfer_id == 3

    def test_golden_wire_vectors(self):
        """The format is pinned: changing a byte here is a wire break."""
        codec = FrameCodec()
        data = make_packet(
            transfer_id=(3 << 40) + 42,
            priority=math.inf,
            order_tag=OrderTag(0, 6, {(3, 0): 5}, ts=1_250_000),
        )
        assert codec.encode(4, data).hex() == (
            "0000007e"  # length prefix: 126 bytes follow
            "64" "00000004" "0000000000000007" "000003000000002a"
            "00000003" "00000000"
            "3ff4000000000000" "3ff0000000000000" "7ff0000000000000"
            "ffffffff" "00000000" "0003" "0002" "0000" "02"
            "00000001" "00000002" "00000005" "00000000" "00000004"
            "00000000" "0000000000000006" "00000000001312d0" "0001"
            "00000003" "00000000" "0000000000000005"
        )
        ack = AckFrame(msg_id=9, acker=3, transfer_id=77)
        assert codec.encode(3, ack).hex() == (
            "00000019" "61" "00000003" "0000000000000009" "00000003" "000000000000004d"
        )

    @pytest.mark.parametrize(
        "frame",
        [
            AckFrame(msg_id=9, acker=3, transfer_id=77),
            make_packet(),
            make_packet(source_route=(4, 2), order_tag=OrderTag(0, 6, {(3, 0): 5}, ts=8)),
        ],
        ids=["ack", "data", "tagged"],
    )
    def test_describe_names_every_field(self, frame):
        """Binary on the wire, one call from the readable envelope."""
        codec = FrameCodec()
        seen = codec.describe(codec.encode_payload(4, frame))
        if isinstance(frame, AckFrame):
            expected = {"s": 4, "k": "a", "m": 9, "n": 3, "t": 77}
        else:
            expected = {
                "s": 4,
                "k": "d",
                "m": frame.msg_id,
                "t": frame.transfer_id,
                "tp": frame.topic,
                "o": frame.origin,
                "pt": frame.publish_time,
                "d": sorted(frame.destinations),
                "rp": list(frame.routing_path),
                "sr": list(frame.source_route),
                "fi": frame.fragment_index,
                "fn": frame.fragments_needed,
                "sz": frame.size,
                "pr": frame.priority,
            }
            if frame.order_tag is not None:
                expected["ot"] = [0, 6, [[3, 0, 5]], 8]
        assert seen == expected


class TestRejection:
    def test_unknown_frame_type_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            FrameCodec().encode_payload(0, object())

    def test_oversized_encode_rejected(self):
        codec = FrameCodec(max_frame_bytes=16)
        with pytest.raises(CodecError, match="exceeds"):
            codec.encode_payload(0, make_packet())

    def test_oversized_decode_rejected(self):
        payload = FrameCodec().encode_payload(0, make_packet())
        with pytest.raises(CodecError, match="exceeds"):
            FrameCodec(max_frame_bytes=16).decode_payload(payload)

    def test_oversized_prefix_rejected(self):
        codec = FrameCodec(max_frame_bytes=64)
        with pytest.raises(CodecError, match="length prefix"):
            codec.split_prefix(LENGTH_PREFIX.pack(65))

    def test_garbage_payload_rejected(self):
        with pytest.raises(CodecError, match="malformed"):
            FrameCodec().decode_payload(b"d\xff\x00 not a frame")

    def test_unknown_kind_rejected(self):
        payload = b"x" + FrameCodec().encode_payload(0, AckFrame(1, 2, 3))[1:]
        with pytest.raises(CodecError, match="unknown frame kind"):
            FrameCodec().decode_payload(payload)

    def test_missing_field_rejected(self):
        """An ACK that stops before its transfer id."""
        payload = FrameCodec().encode_payload(0, AckFrame(1, 2, 3))[:-8]
        with pytest.raises(CodecError, match="malformed"):
            FrameCodec().decode_payload(payload)

    def test_non_int_sender_rejected(self):
        with pytest.raises(CodecError):
            FrameCodec().encode_payload("zero", AckFrame(1, 2, 3))

    @pytest.mark.parametrize(
        "frame",
        [
            AckFrame(1, 2, 3),
            make_packet(),
            make_packet(order_tag=OrderTag(0, 6)),
            make_packet(order_tag=OrderTag(0, 6, {(3, 0): 5, (3, 1): 2})),
        ],
        ids=["ack", "data", "fifo", "causal"],
    )
    def test_truncated_and_trailing_envelopes_rejected(self, frame):
        codec = FrameCodec()
        payload = codec.encode_payload(1, frame)
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                codec.decode_payload(payload[:cut])
        with pytest.raises(CodecError):
            codec.decode_payload(payload + b"\x00")

    def test_duplicate_destination_rejected(self):
        codec = FrameCodec()
        payload = bytearray(codec.encode_payload(0, make_packet()))
        # destinations (1, 2, 5) -> (1, 1, 5)
        payload[DATA_HEADER_BYTES + 4 : DATA_HEADER_BYTES + 8] = struct.pack(">I", 1)
        with pytest.raises(CodecError, match="duplicate destination"):
            codec.decode_payload(bytes(payload))

    def test_unknown_tag_marker_rejected(self):
        codec = FrameCodec()
        payload = bytearray(codec.encode_payload(0, make_packet()))
        payload[DATA_HEADER_BYTES - 1] = 3
        with pytest.raises(CodecError, match="malformed"):
            codec.decode_payload(bytes(payload))

    def test_count_that_overruns_the_envelope_rejected(self):
        codec = FrameCodec()
        payload = bytearray(codec.encode_payload(0, make_packet()))
        payload[N_DESTS_AT : N_DESTS_AT + 2] = struct.pack(">H", 0xFFFF)
        with pytest.raises(CodecError, match="malformed"):
            codec.decode_payload(bytes(payload))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(destinations=frozenset({2**32})),
            dict(routing_path=(-1,)),
            dict(msg_id=2**64),
            dict(fragment_index=-(2**31) - 1),
            dict(publish_time="soon"),
            dict(destinations=frozenset(range(2**16))),
            dict(order_tag=OrderTag(0, -1)),
        ],
        ids=["wide-id", "negative-id", "wide-msg", "fragment", "time", "count", "tag"],
    )
    def test_out_of_range_field_rejected(self, overrides):
        with pytest.raises(CodecError, match="wire range"):
            FrameCodec().encode_payload(0, make_packet(**overrides))

    def test_zero_frame_limit_rejected(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FrameCodec(max_frame_bytes=0)
