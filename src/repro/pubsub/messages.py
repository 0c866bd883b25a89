"""Wire frames exchanged between brokers.

A published message is identified by a ``msg_id`` unique within its run
(drawn from the run's :class:`~repro.routing.base.RuntimeContext`). As it
moves through the overlay it is wrapped in :class:`PacketFrame` copies; each
copy carries the subset of subscribers it is responsible for
(``destinations``) and the ordered list of brokers that have sent it
(``routing_path``) — the in-band state DCRD uses for loop avoidance and
upstream rerouting (§III-D).

Every *distinct* copy additionally carries a ``transfer_id``, unique
within a run and striped across a fleet of partition processes, which
the caller of :meth:`PacketFrame.fresh` / :meth:`PacketFrame.forwarded`
draws from the same context. Retransmissions of a copy reuse the id, so
(a) the hop-by-hop :class:`AckFrame` can name exactly which transmission
it confirms even when several copies of one message are in flight
between the same pair of brokers, and (b) receivers can suppress
byte-identical duplicates caused by lost ACKs.

Frames are immutable; every hop builds new copies via
:meth:`PacketFrame.forwarded`. Frame construction sits on the data-plane
hot path (one copy per hop per message, plus retransmissions), so both
frame types are hand-written ``__slots__`` classes rather than frozen
dataclasses: a plain ``__init__`` skips the frozen-dataclass
``object.__setattr__`` indirection per field. A frame carries its path as
the ``routing_path`` tuple and nothing else: membership tests on it run
only where a broker computes a dispatch (a flow-cache miss or a
failover), which builds what it needs from the tuple, so a forwarded copy
never pays for a per-copy set it would not read.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro import probes as _probes

_INF = float("inf")
# Bare allocation for the copy fast paths (forwarded/with_destinations),
# which write every slot themselves instead of round-tripping __init__.
_new_frame = object.__new__


class PacketFrame:
    """One copy of a published message in flight between two brokers.

    Attributes
    ----------
    msg_id:
        Id of the published message, unique within its run.
    transfer_id:
        Id of this copy, unique within its run (striped across a fleet);
        shared by its retransmissions.
    topic:
        Topic the message was published on.
    origin:
        Broker hosting the publisher.
    publish_time:
        Virtual time at which the publisher emitted the message.
    destinations:
        Subscriber broker ids this copy must still reach.
    routing_path:
        Ordered brokers that have *sent* this copy (each sender appends
        itself before transmitting — Algorithm 2, line 20).
    source_route:
        Remaining explicit hops, used by the source-routed baselines
        (Multipath, FEC); their paths are fixed at publish time. Empty for
        DCRD/tree/oracle frames.
    fragment_index / fragments_needed:
        Forward-error-correction metadata (the FEC extension): this copy is
        fragment ``fragment_index`` of a message that is decodable once any
        ``fragments_needed`` *distinct* fragments arrive.
        ``fragments_needed == 0`` (the default) marks a self-contained
        packet that delivers on first arrival.
    size:
        Relative payload size in units of one full message (1.0 for normal
        packets; ``1/k`` for (n, k)-code fragments). Feeds the
        volume-based traffic metric and, on finite-capacity links, scales
        the serialisation time.
    priority:
        Urgency for priority-queueing link disciplines: the absolute
        virtual time of the copy's earliest destination deadline (lower =
        more urgent). ``inf`` (the default) means "no deadline known";
        FIFO links ignore this field entirely.
    order_tag:
        Delivery-ordering metadata stamped at publish time by the run's
        ordering plan (``None`` when the run has none — the default for
        every ordering-off run). Shared by all copies of a message and
        excluded from ``_key()``: equality/dedup semantics are about the
        copy's wire identity, which the tag (a pure function of
        ``msg_id``) does not change.

    Instances are immutable by convention: every mutation-shaped operation
    (:meth:`forwarded`, :meth:`with_destinations`) returns a new frame.
    """

    __slots__ = (
        "msg_id",
        "transfer_id",
        "topic",
        "origin",
        "publish_time",
        "destinations",
        "routing_path",
        "source_route",
        "fragment_index",
        "fragments_needed",
        "size",
        "priority",
        "order_tag",
    )

    def __init__(
        self,
        msg_id: int,
        transfer_id: int,
        topic: int,
        origin: int,
        publish_time: float,
        destinations: FrozenSet[int],
        routing_path: Tuple[int, ...],
        source_route: Tuple[int, ...] = (),
        fragment_index: int = -1,
        fragments_needed: int = 0,
        size: float = 1.0,
        priority: float = _INF,
        order_tag=None,
    ) -> None:
        self.msg_id = msg_id
        self.transfer_id = transfer_id
        self.topic = topic
        self.origin = origin
        self.publish_time = publish_time
        self.destinations = destinations
        self.routing_path = routing_path
        self.source_route = source_route
        self.fragment_index = fragment_index
        self.fragments_needed = fragments_needed
        self.size = size
        self.priority = priority
        self.order_tag = order_tag

    @staticmethod
    def fresh(
        msg_id: int,
        transfer_id: int,
        topic: int,
        origin: int,
        publish_time: float,
        destinations: FrozenSet[int],
        routing_path: Tuple[int, ...] = (),
        source_route: Tuple[int, ...] = (),
        fragment_index: int = -1,
        fragments_needed: int = 0,
        size: float = 1.0,
        priority: float = _INF,
        ordering=None,
    ) -> "PacketFrame":
        """Create a brand-new copy with its own *transfer_id*.

        *ordering* is the run's :class:`~repro.ordering.plan.OrderingPlan`
        (``None``: ordering off); it stamps the frame's order tag before
        the ``publish`` probe fires.
        """
        frame = PacketFrame(
            msg_id,
            transfer_id,
            topic,
            origin,
            publish_time,
            destinations,
            routing_path,
            source_route,
            fragment_index,
            fragments_needed,
            size,
            priority,
        )
        if ordering is not None:
            frame.order_tag = ordering.stamp(frame)
        probe = _probes.on_publish
        if probe is not None:
            probe(frame)
        return frame

    def forwarded(
        self,
        transfer_id: int,
        sender: int,
        destinations: FrozenSet[int],
        source_route: Tuple[int, ...] = (),
        priority: Optional[float] = None,
        routing_path: Optional[Tuple[int, ...]] = None,
    ) -> "PacketFrame":
        """A new copy *transfer_id* for the next hop, with *sender*
        appended to the path.

        ``priority`` overrides the inherited urgency (used when a copy's
        destination subset has a different earliest deadline than its
        parent frame). ``routing_path`` is the copy's path,
        ``self.routing_path + (sender,)``, when the caller already holds
        that tuple (DCRD's flow cache keeps it per cached plan entry), so
        the copy shares it instead of concatenating a new one. Slots are
        written directly (no ``__init__`` marshalling) — this runs once
        per forwarded copy.
        """
        copy = _new_frame(PacketFrame)
        copy.msg_id = self.msg_id
        copy.transfer_id = transfer_id
        copy.topic = self.topic
        copy.origin = self.origin
        copy.publish_time = self.publish_time
        copy.destinations = destinations
        copy.routing_path = (
            self.routing_path + (sender,) if routing_path is None else routing_path
        )
        copy.source_route = source_route
        copy.fragment_index = self.fragment_index
        copy.fragments_needed = self.fragments_needed
        copy.size = self.size
        copy.priority = self.priority if priority is None else priority
        copy.order_tag = self.order_tag
        probe = _probes.on_fork
        if probe is not None:
            probe(self.transfer_id, copy.transfer_id)
        return copy

    def with_destinations(self, destinations: FrozenSet[int]) -> "PacketFrame":
        """The same copy (same ``transfer_id``) narrowed to *destinations*.

        Used by the broker when it strips itself from a received copy's
        destination set; everything else — including the transfer id, so
        ACK matching and dedup still work — is preserved.
        """
        copy = _new_frame(PacketFrame)
        copy.msg_id = self.msg_id
        copy.transfer_id = self.transfer_id
        copy.topic = self.topic
        copy.origin = self.origin
        copy.publish_time = self.publish_time
        copy.destinations = destinations
        copy.routing_path = self.routing_path
        copy.source_route = self.source_route
        copy.fragment_index = self.fragment_index
        copy.fragments_needed = self.fragments_needed
        copy.size = self.size
        copy.priority = self.priority
        copy.order_tag = self.order_tag
        return copy

    def visited(self, node: int) -> bool:
        """Whether *node* already appears on the routing path."""
        return node in self.routing_path

    def upstream_of(self, node: int) -> int:
        """The broker *node* originally received this copy from.

        Per §III-D this is read from the routing path: the entry immediately
        before *node*'s first appearance; if *node* has not sent the copy
        yet, its upstream is the last sender on the path. Returns ``-1``
        when no upstream exists (*node* is the origin).
        """
        path = self.routing_path
        if node not in path:
            # Common case (the receiver is not on the path yet): a scan
            # instead of a raised-and-caught ValueError from tuple.index.
            return path[-1] if path else -1
        index = path.index(node)
        return path[index - 1] if index > 0 else -1

    def dedup_key(self) -> int:
        """Key identifying byte-identical retransmitted copies."""
        return self.transfer_id

    def _key(self) -> tuple:
        return (
            self.msg_id,
            self.transfer_id,
            self.topic,
            self.origin,
            self.publish_time,
            self.destinations,
            self.routing_path,
            self.source_route,
            self.fragment_index,
            self.fragments_needed,
            self.size,
            self.priority,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PacketFrame:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketFrame(msg_id={self.msg_id}, transfer_id={self.transfer_id}, "
            f"topic={self.topic}, origin={self.origin}, "
            f"publish_time={self.publish_time}, destinations={set(self.destinations)}, "
            f"routing_path={self.routing_path}, source_route={self.source_route}, "
            f"fragment_index={self.fragment_index}, "
            f"fragments_needed={self.fragments_needed}, size={self.size}, "
            f"priority={self.priority})"
        )


class AckFrame:
    """Hop-by-hop acknowledgement of one :class:`PacketFrame` copy.

    ``acker`` is the broker confirming reception; ``transfer_id`` names the
    copy being confirmed (Algorithm 2 caches one packet per transmission and
    releases it on the matching ACK).
    """

    __slots__ = ("msg_id", "acker", "transfer_id")

    def __init__(self, msg_id: int, acker: int, transfer_id: int) -> None:
        self.msg_id = msg_id
        self.acker = acker
        self.transfer_id = transfer_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AckFrame:
            return NotImplemented
        return (
            self.msg_id == other.msg_id
            and self.acker == other.acker
            and self.transfer_id == other.transfer_id
        )

    def __hash__(self) -> int:
        return hash((self.msg_id, self.acker, self.transfer_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AckFrame(msg_id={self.msg_id}, acker={self.acker}, "
            f"transfer_id={self.transfer_id})"
        )
