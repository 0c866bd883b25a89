"""Length-prefixed binary wire codec for the live transport.

One wire message is a 4-byte big-endian length prefix followed by a
fixed-layout envelope (all fields big-endian, no padding)::

    ACK   kind 'a' | sender u32 | msg_id u64 | acker u32 | transfer_id u64
    DATA  kind 'd' | sender u32 | msg_id u64 | transfer_id u64 | topic u32
          | origin u32 | publish_time f64 | size f64 | priority f64
          | fragment_index i32 | fragments_needed u32
          | #destinations u16 | #routing_path u16 | #source_route u16
          | tag marker u8 (0 none, 1 tag, 2 tag with vector clock)
          | destination ids (sorted), routing path, source route: u32 each
          | [tag: origin u32 | seq u64 | ts u64 | #vc u16
          |       | #vc x (topic u32 | origin u32 | seq u64), sorted]

The encoding is canonical by construction — one layout, sorted sets — so
equal frames encode to equal bytes (the golden live trace pins tracer
events, never wire bytes). Floats travel as IEEE doubles: ``inf`` priorities and every
publish time round-trip bit-exactly. :meth:`FrameCodec.describe` turns
any payload back into a readable dict.

The decoder is strict: frames above the configured size bound, truncated
or over-long envelopes, unknown kinds, duplicated destinations and fields
outside the wire range raise :class:`CodecError` instead of silently
desynchronising the stream.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Dict, Tuple

from repro.ordering.tags import OrderTag
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.util.errors import SimulationError
from repro.util.validation import require_positive

#: struct layout of the frame length prefix (4-byte big-endian unsigned).
LENGTH_PREFIX = struct.Struct(">I")
_ACK = struct.Struct(">cIQIQ")
_DATA = struct.Struct(">cIQQIIdddiIHHHB")
_TAG = struct.Struct(">IQQH")
_VC_ENTRY = struct.Struct(">IIQ")


@lru_cache(maxsize=256)
def _ids(count: int) -> struct.Struct:
    """Layout of *count* consecutive node ids."""
    return struct.Struct(f">{count}I")


class CodecError(SimulationError):
    """A wire message could not be encoded or decoded."""


class FrameCodec:
    """Encode/decode broker frames to length-prefixed binary messages."""

    def __init__(self, max_frame_bytes: int = 1 << 20) -> None:
        require_positive(max_frame_bytes, "max_frame_bytes")
        self.max_frame_bytes = max_frame_bytes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_payload(self, sender: int, frame: Any) -> bytes:
        """The binary envelope of *frame* as sent by *sender* (no prefix)."""
        try:
            if frame.__class__ is AckFrame or isinstance(frame, AckFrame):
                payload = _ACK.pack(
                    b"a", sender, frame.msg_id, frame.acker, frame.transfer_id
                )
            elif frame.__class__ is PacketFrame or isinstance(frame, PacketFrame):
                dests = sorted(frame.destinations)
                path = frame.routing_path
                route = frame.source_route
                tag = frame.order_tag
                payload = _DATA.pack(
                    b"d",
                    sender,
                    frame.msg_id,
                    frame.transfer_id,
                    frame.topic,
                    frame.origin,
                    frame.publish_time,
                    frame.size,
                    frame.priority,
                    frame.fragment_index,
                    frame.fragments_needed,
                    len(dests),
                    len(path),
                    len(route),
                    0 if tag is None else 1 if tag.vc is None else 2,
                ) + _ids(len(dests) + len(path) + len(route)).pack(*dests, *path, *route)
                if tag is not None:
                    vc = sorted((tag.vc or {}).items())
                    payload += _TAG.pack(tag.origin, tag.seq, tag.ts, len(vc)) + b"".join(
                        _VC_ENTRY.pack(topic, node, seq) for (topic, node), seq in vc
                    )
            else:
                raise CodecError(f"cannot encode frame of type {type(frame).__name__}")
        except (struct.error, TypeError) as exc:
            raise CodecError(f"frame field outside the wire range: {exc}") from exc
        if len(payload) > self.max_frame_bytes:
            raise CodecError(
                f"encoded frame is {len(payload)} bytes, exceeds the "
                f"{self.max_frame_bytes}-byte limit"
            )
        return payload

    def frame_message(self, payload: bytes) -> bytes:
        """Prepend the length prefix to an encoded *payload*."""
        return LENGTH_PREFIX.pack(len(payload)) + payload

    def encode(self, sender: int, frame: Any) -> bytes:
        """One complete wire message (prefix + envelope) for *frame*."""
        return self.frame_message(self.encode_payload(sender, frame))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_payload(self, payload: bytes) -> Tuple[int, Any]:
        """Parse one envelope back into ``(sender, frame)``."""
        size = len(payload)
        if size > self.max_frame_bytes:
            raise CodecError(
                f"received frame is {size} bytes, exceeds the "
                f"{self.max_frame_bytes}-byte limit"
            )
        kind = payload[:1]
        if kind == b"a":
            if size != _ACK.size:
                raise CodecError(f"malformed wire frame: ACK of {size} bytes")
            _, sender, msg_id, acker, transfer_id = _ACK.unpack(payload)
            return sender, AckFrame(msg_id, acker, transfer_id)
        if kind != b"d":
            raise CodecError(f"unknown frame kind {kind!r}")
        if size < _DATA.size:
            raise CodecError(f"malformed wire frame: DATA truncated at {size} bytes")
        (
            _,
            sender,
            msg_id,
            transfer_id,
            topic,
            origin,
            publish_time,
            frame_size,
            priority,
            fragment_index,
            fragments_needed,
            n_dests,
            n_path,
            n_route,
            marker,
        ) = _DATA.unpack_from(payload)
        ids = _ids(n_dests + n_path + n_route)
        end = _DATA.size + ids.size
        if marker > 2 or size < (end + _TAG.size if marker else end):
            raise CodecError(f"malformed wire frame: DATA truncated at {size} bytes")
        if marker:
            tag_origin, seq, ts, n_vc = _TAG.unpack_from(payload, end)
            vc_at = end + _TAG.size
            end = vc_at + n_vc * _VC_ENTRY.size
        if size != end:
            raise CodecError(f"malformed wire frame: {size} bytes where {end} are announced")
        order_tag = None
        if marker:
            vc = None
            if marker == 2:
                entries = _VC_ENTRY.iter_unpack(payload[vc_at:])
                vc = {(t, node): count for t, node, count in entries}
            if len(vc or ()) != n_vc:
                raise CodecError("malformed wire frame: vector clock does not match its count")
            order_tag = OrderTag(tag_origin, seq, vc, ts)
        nodes = ids.unpack_from(payload, _DATA.size)
        destinations = frozenset(nodes[:n_dests])
        if len(destinations) != n_dests:
            raise CodecError("malformed wire frame: duplicate destination id")
        n_sent = n_dests + n_path
        frame = PacketFrame(
            msg_id,
            transfer_id,
            topic,
            origin,
            publish_time,
            destinations,
            nodes[n_dests:n_sent],
            nodes[n_sent:],
            fragment_index,
            fragments_needed,
            frame_size,
            priority,
            order_tag=order_tag,
        )
        return sender, frame

    def split_prefix(self, header: bytes) -> int:
        """Parse a length prefix, enforcing the frame size bound."""
        (length,) = LENGTH_PREFIX.unpack(header)
        if length > self.max_frame_bytes:
            raise CodecError(
                f"length prefix announces {length} bytes, exceeds the "
                f"{self.max_frame_bytes}-byte limit"
            )
        return length

    def describe(self, payload: bytes) -> Dict[str, Any]:
        """*payload* as a readable dict, under the short keys of the JSON
        envelope this codec replaced (``s`` sender, ``k`` kind, ``m`` msg id,
        ``t`` transfer id, ``d`` destinations, ``rp`` routing path, ...)."""
        sender, frame = self.decode_payload(payload)
        if frame.__class__ is AckFrame:
            return {
                "s": sender,
                "k": "a",
                "m": frame.msg_id,
                "n": frame.acker,
                "t": frame.transfer_id,
            }
        envelope = {
            "s": sender,
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
            envelope["ot"] = frame.order_tag.to_wire()
        return envelope
