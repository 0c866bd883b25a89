"""Broker runtime: the per-node mechanics shared by every routing scheme.

Each broker node gets one :class:`BrokerRuntime`, which registers itself as
the node's frame handler on the overlay network and implements the pieces
that are identical across DCRD and the baselines:

* immediate hop-by-hop ACK of received DATA frames (Algorithm 2, line 2) —
  when the active strategy uses ACKs — and the hand-over of every ACK it
  receives to the strategy;
* duplicate suppression: a lost ACK makes the sender retransmit, so a broker
  can legitimately receive a byte-identical copy it already processed; the
  copy is re-ACKed (the sender is still waiting) but not re-forwarded. A
  transfer id repeats only as such a retransmission, so the window of
  accepted ids need only reach back one *horizon* — the longest time that
  can separate two arrivals of one transfer, which the composition root
  derives (:func:`repro.stack.dedup_horizon`). It is two generations of
  ids: a lookup probes both, an accept joins the newer, and the older is
  dropped once the newer is one horizon old (:meth:`BrokerRuntime.bound_window`);
  with no horizon a generation retires at :data:`DEDUP_CAPACITY` ids;
* local delivery to subscribers hosted on this broker, including
  fragment reassembly for FEC-coded messages (a message with
  ``fragments_needed = k`` delivers when the k-th *distinct* fragment
  arrives);
* delegation of the forwarding decision to the
  :class:`~repro.routing.base.RoutingStrategy`.

The runtime is substrate-portable (see :mod:`repro.substrate`): it reads
time as ``ctx.sim._now`` and sends through ``ctx.network``'s
``attach``/``send_ack`` surface, both of which are satisfied
by the discrete-event kernel + :class:`OverlayNetwork` *and* by the live
:class:`~repro.live.clock.WallClock` +
:class:`~repro.live.transport.LiveTransport` pair — the same broker code
runs unchanged over asyncio TCP sockets, which is what the sim <-> live
conformance suite pins.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Set

from repro import probes as _probes
from repro.pubsub.messages import AckFrame, PacketFrame

# Bare allocation for the per-frame ACK reply (slots written in place).
_new_ack = object.__new__
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.util.errors import SimulationError

#: Where no horizon is known, a dedup generation retires once it holds this
#: many ids, so no id is forgotten before as many later ones were accepted.
DEDUP_CAPACITY = 1 << 17

#: Where no horizon is known, the seconds between two looks at the size of
#: the current dedup generation.
CAPACITY_CHECK_S = 1.0


class BrokerRuntime:
    """The runtime of one broker node."""

    def __init__(self, node: int, ctx: RuntimeContext, strategy: RoutingStrategy) -> None:
        self.node = node
        self.ctx = ctx
        self.strategy = strategy
        # Hot-path bindings: one attribute hop per received frame instead of
        # two. ``uses_acks`` is a class-level constant on every strategy.
        self._network = ctx.network
        self._workload = ctx.workload
        self._metrics = ctx.metrics
        self._sim = ctx.sim
        self._uses_acks = strategy.uses_acks
        self._handle_ack = strategy.handle_ack
        self._handle_data = strategy.handle_data
        self._send_ack = ctx.network.send_ack
        # The dedup window: the current generation of accepted transfer
        # ids and the one before it, with no horizon until the composition
        # root bounds it (bound_window).
        self._seen: Set[int] = set()
        self._older: Set[int] = set()
        self.bound_window(math.inf)
        # FEC reassembly: msg_id -> set of distinct fragment indices seen.
        self._fragments: Dict[int, Set[int]] = {}
        self._fragment_order: Deque[int] = deque()
        # Shared subscription subgroups: one solve-time aggregation over
        # the workload replaces the per-broker local-topic set scan; the
        # local-delivery test is one indexed membership probe.
        self._subindex = ctx.workload.index()
        # Precomputed singleton for the destination-stripping difference.
        self._self_set = frozenset((node,))
        # Delivery pipeline seam: with an ordering plan on the context,
        # post-dedup locally deliverable frames are offered to a per-node
        # hold-back pipeline instead of the inlined terminal stage. The
        # ordering-off default is ``None`` — one slot load and an
        # ``is None`` check on the delivery path, the zero-cost
        # passthrough the fingerprint matrix pins.
        plan = ctx.ordering
        self._pipeline = plan.pipeline_for(self) if plan is not None else None
        self.duplicates_suppressed = 0
        self.local_deliveries = 0
        ctx.network.attach(node, self.on_frame)

    @property
    def local_topics(self) -> Set[int]:
        """Topics with a subscriber hosted on this broker."""
        index = self._subindex
        index.refresh()
        node = self.node
        return {
            topic for topic, members in index._members.items() if node in members
        }

    # ------------------------------------------------------------------
    def on_frame(self, sender: int, frame: object) -> None:
        """Network delivery hook for this node: every DATA copy and ACK."""
        node = self.node
        if frame.__class__ is not PacketFrame:
            if frame.__class__ is AckFrame:
                self._handle_ack(node, sender, frame)
                return
            if not isinstance(frame, PacketFrame):
                raise SimulationError(f"broker {node} got unknown frame {frame!r}")
        if self._uses_acks:
            # Slot-written AckFrame (no __init__ frame) — one reply per
            # received DATA copy makes this one of the hottest allocations.
            ack = _new_ack(AckFrame)
            ack.msg_id = frame.msg_id
            ack.acker = node
            ack.transfer_id = frame.transfer_id
            self._send_ack(node, sender, ack)
        # Duplicate suppression (inlined: the dedup key is the transfer id,
        # unique within the run but for retransmissions; both generations
        # of the window are probed, an accept joins the current one).
        key = frame.transfer_id
        seen = self._seen
        if key in seen or key in self._older:
            self.duplicates_suppressed += 1
            probe = _probes.on_dedup_discard
            if probe is not None:
                probe(self._sim._now, node, sender, frame)
            return
        if self._sim._now >= self._retire_at:
            seen = self._retire()
        seen.add(key)
        probe = _probes.on_broker_accept
        if probe is not None:
            # Post-dedup: the same transfer must never pass twice, and the
            # carried routing path must be loop-free and end in the sender.
            probe(node, sender, frame)
        # Local delivery (inlined): deliver to a subscriber hosted here,
        # then forward whatever destinations remain.
        destinations = frame.destinations
        if node in destinations:
            # Subscription-subgroup lookup: one indexed membership probe
            # against the shared per-topic subscriber set, instead of a
            # per-broker local-topic scan kept fresh per broker.
            index = self._subindex
            if index.version != self._workload.version:
                index._rebuild()
            index.lookups += 1
            members = index._members.get(frame.topic)
            if (
                members is not None
                and node in members
                and (frame.fragments_needed <= 0 or self._decodable(frame))
            ):
                pipeline = self._pipeline
                if pipeline is not None:
                    pipeline.offer(frame)
                else:
                    first = self._metrics.record_delivery(
                        frame.msg_id,
                        node,
                        self._sim._now,
                        len(frame.routing_path),
                    )
                    if first:
                        self.local_deliveries += 1
                        probe = _probes.on_deliver
                        if probe is not None:
                            probe(self._sim._now, node, frame)
            destinations = destinations - self._self_set
            if not destinations:
                return
            frame = frame.with_destinations(destinations)
        elif not destinations:
            return
        self._handle_data(node, sender, frame)

    def bound_window(self, horizon: float) -> None:
        """Let the dedup window reach back *horizon* seconds, not further.

        *horizon* is the longest time that can separate two arrivals of
        one transfer here; ``math.inf`` means no bound is known, and only
        :data:`DEDUP_CAPACITY` retires a generation. Called by the
        composition root once per broker, before the run.
        """
        self._horizon = horizon
        self._retire_at = self._sim._now + (
            horizon if horizon < math.inf else CAPACITY_CHECK_S
        )

    def _retire(self) -> Set[int]:
        """Retire the current generation if it is due; returns the current one.

        Called at the first accept at or after ``_retire_at``. With a
        horizon ``H``, generations are ``H`` apart: the current one holds
        the ids accepted in ``[retire_at - H, retire_at)``, so it becomes
        the older one while a copy of an id in it may still come, and both
        are dropped once the clock has passed ``retire_at + H``, when none
        can. An id thus stays in the window at least ``H``, and the window
        holds nothing accepted more than ``2 H`` before the accept at
        hand. With no horizon, the current generation retires when a look
        finds :data:`DEDUP_CAPACITY` ids in it, so an id stays at least
        that many accepts.
        """
        now = self._sim._now
        horizon = self._horizon
        seen = self._seen
        if horizon == math.inf:
            self._retire_at = now + CAPACITY_CHECK_S
            if len(seen) < DEDUP_CAPACITY:
                return seen
            self._older = seen
        elif now < self._retire_at + horizon:
            self._older = seen
            self._retire_at += horizon
        else:
            self._older = set()
            self._retire_at = now + horizon
        seen = self._seen = set()
        return seen

    def deliver_frame(self, frame: PacketFrame) -> bool:
        """Terminal delivery stage: metrics + ``deliver`` probe.

        The ordering-off path keeps this logic inlined in
        :meth:`on_frame` (the historical hot block); delivery pipelines
        call it when a held or passthrough frame is finally released.
        Returns whether this was the first delivery of its
        (message, subscriber) pair.
        """
        first = self._metrics.record_delivery(
            frame.msg_id,
            self.node,
            self._sim._now,
            len(frame.routing_path),
        )
        if first:
            self.local_deliveries += 1
            probe = _probes.on_deliver
            if probe is not None:
                probe(self._sim._now, self.node, frame)
        return first

    def _decodable(self, frame: PacketFrame) -> bool:
        """Whether the message is complete once *frame* has arrived."""
        if frame.fragments_needed <= 0:
            return True
        seen = self._fragments.get(frame.msg_id)
        if seen is None:
            seen = set()
            self._fragments[frame.msg_id] = seen
            self._fragment_order.append(frame.msg_id)
            if len(self._fragment_order) > DEDUP_CAPACITY:
                self._fragments.pop(self._fragment_order.popleft(), None)
        seen.add(frame.fragment_index)
        return len(seen) >= frame.fragments_needed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BrokerRuntime(node={self.node}, topics={sorted(self.local_topics)})"
