"""Ordering tags: the metadata a guarantee stamps onto each frame.

A tag is allocated once, at the publish origin, by the run's
:class:`~repro.ordering.plan.OrderingPlan` (its ``stamp``) and rides on
``PacketFrame.order_tag`` through every copy, retransmission, and (in
live mode) the wire codec. Hold-back pipelines at subscriber nodes read
it; nothing in the data plane ever mutates it.

Fields are a superset across levels — ``fifo`` uses ``(origin, seq)``,
``causal`` adds the vector-clock snapshot ``vc``, ``total`` adds ``ts``,
a hybrid logical clock in integer microseconds (the publish time, pushed
past everything its node stamped or delivered before). Unused fields stay
at their neutral defaults so one wire shape serves all three guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: A vector-clock entry key: one per-(topic, origin) publication stream.
Stream = Tuple[int, int]


class OrderTag:
    """Immutable-by-convention ordering metadata for one message."""

    __slots__ = ("origin", "seq", "vc", "ts")

    def __init__(
        self,
        origin: int,
        seq: int,
        vc: Optional[Dict[Stream, int]] = None,
        ts: int = 0,
    ) -> None:
        self.origin = origin
        self.seq = seq
        self.vc = vc
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrderTag(origin={self.origin}, seq={self.seq}, "
            f"vc={self.vc}, ts={self.ts})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderTag):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.seq == other.seq
            and self.vc == other.vc
            and self.ts == other.ts
        )

    def __hash__(self) -> int:
        vc_key = None if self.vc is None else tuple(sorted(self.vc.items()))
        return hash((self.origin, self.seq, vc_key, self.ts))

    def to_wire(self) -> List:
        """A JSON-safe encoding for the live frame codec.

        The vector clock's ``(topic, origin)`` keys flatten into sorted
        ``[topic, origin, seq]`` triples so the encoding is canonical —
        two equal tags always serialize to identical bytes.
        """
        if self.vc is None:
            flat_vc = None
        else:
            flat_vc = [
                [stream[0], stream[1], seq]
                for stream, seq in sorted(self.vc.items())
            ]
        return [self.origin, self.seq, flat_vc, self.ts]
