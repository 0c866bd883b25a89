"""FrameTracer: opt-in hop-by-hop lifecycle tracing for the data plane.

The paper's whole argument (Theorem 1, §III) is about *where delay accrues
per hop* — ACK timeouts, failovers to the next sending-list candidate,
upstream bounces — yet aggregate metrics only show end-to-end totals. This
module records the full per-frame journey so any delivered (message,
subscriber) pair can be decomposed hop by hop.

The design follows :mod:`repro.sanity` exactly:

* The tracer is a plain observer of the :mod:`repro.probes` bus —
  attach it there, or hand it to :class:`repro.stack.observed`. Hook
  sites read the bus's compiled per-family
  slots, ``None`` when nothing subscribes — one module-attribute load and
  one identity comparison per hook when off, so disabled runs stay
  bit-identical to the untraced fast path (the fingerprint suite pins
  this).
* All hooks are **observation-only**: the tracer consumes no randomness
  and schedules no events, so an enabled run executes the identical event
  sequence — only ``trace.*`` perf counters differ in the summary.

Recorded event kinds (one :class:`TraceEvent` each, ring-buffered):

==============  =========================================================
kind            meaning
==============  =========================================================
publish         a root copy of a message was created at its origin
transmit        a copy was handed to a link direction (per attempt)
link_drop       a copy was lost — at departure (link failure, random
                loss, sender/receiver down) or at arrival (receiver
                crashed mid-flight, no handler attached)
enqueue         a copy had to wait on a busy finite-capacity link
arrive          a copy reached the receiving broker's handler
dedup_discard   a broker suppressed an already-seen transfer
deliver         a broker delivered the first copy to a local subscriber
ack             the sender matched a hop-by-hop ACK to an outstanding copy
ack_timeout     an ACK timer fired (info says whether a retry follows)
failover        DCRD marked a next hop failed and re-dispatched
bounce          a copy was sent back to its upstream broker (§III-D)
expire          the EDF overload policy discarded a queued copy
abandon         the strategy gave a destination up
custody         the persistency store took a pair into custody or forked
                a fresh redelivery copy from the stored frame
order_hold      a delivery pipeline buffered a frame behind an ordering
                gap (info: guarantee level)
order_release   a pipeline released a frame to the terminal delivery
                stage (info: level, reason, hold-back latency)
order_stall     the hold-back watchdog skipped a gap / flagged a
                straggler (info: level plus pipeline-specific facts)
==============  =========================================================

On top of the raw stream, :meth:`FrameTracer.journey` reconstructs the
hop chain of any delivered pair (via the parent lineage recorded when
:meth:`~repro.pubsub.messages.PacketFrame.forwarded` forks a copy),
:meth:`FrameTracer.delay_breakdown` splits its end-to-end delay into
timeout-wait / retransmission / queueing / transmission components that
sum *exactly* to the recorded delivery delay, and
:meth:`FrameTracer.retransmission_tree` renders the copy tree of one
message. :meth:`FrameTracer.export_jsonl` /
:func:`load_jsonl` round-trip the stream, and every query works on a
loaded trace (transmit events embed their parent transfer id).

The module imports only :mod:`repro.util.errors`, so the sanitizer (and
any other layer) can import it without cycles; a
:class:`~repro.sanity.InvariantViolation` raised while a tracer is on the
bus embeds that tracer's :meth:`FrameTracer.excerpt`.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.util.errors import ReproError

# Event kinds.
PUBLISH = "publish"
TRANSMIT = "transmit"
LINK_DROP = "link_drop"
ENQUEUE = "enqueue"
ARRIVE = "arrive"
DEDUP_DISCARD = "dedup_discard"
DELIVER = "deliver"
ACK = "ack"
ACK_TIMEOUT = "ack_timeout"
FAILOVER = "failover"
BOUNCE = "bounce"
EXPIRE = "expire"
ABANDON = "abandon"
CUSTODY = "custody"
ORDER_HOLD = "order_hold"
ORDER_RELEASE = "order_release"
ORDER_STALL = "order_stall"

#: Default ring-buffer capacity (events). Large enough for every test and
#: CLI-scale run; overflowing runs keep the newest events and count the
#: evicted ones in ``trace.events_dropped``.
DEFAULT_CAPACITY = 1 << 20

#: JSONL schema version written to the meta line.
JSONL_VERSION = 1


class TraceError(ReproError):
    """A trace query could not be answered from the recorded events."""


class TraceEvent:
    """One recorded lifecycle event.

    ``peer`` is the other end of the interaction (the receiving broker of
    a transmit, the acking neighbour of an ack, the failed hop of a
    failover, ...) or ``-1`` when there is none. ``info`` carries
    kind-specific extras (see docs/OBSERVABILITY.md for the schema).
    """

    __slots__ = ("seq", "t", "kind", "msg", "transfer", "node", "peer", "info")

    def __init__(
        self,
        seq: int,
        t: float,
        kind: str,
        msg: int,
        transfer: int,
        node: int,
        peer: int = -1,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.seq = seq
        self.t = t
        self.kind = kind
        self.msg = msg
        self.transfer = transfer
        self.node = node
        self.peer = peer
        self.info = info

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable flat view (the JSONL line payload)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "msg": self.msg,
            "transfer": self.transfer,
            "node": self.node,
            "peer": self.peer,
        }
        if self.info:
            record["info"] = self.info
        return record

    def format(self) -> str:
        """One human-readable line (used by trace excerpts)."""
        parts = [
            f"t={self.t:.6f}",
            f"{self.kind:<13}",
            f"node={self.node}",
        ]
        if self.peer >= 0:
            parts.append(f"peer={self.peer}")
        parts.append(f"msg={self.msg}")
        if self.transfer >= 0:
            parts.append(f"transfer={self.transfer}")
        if self.info:
            extras = " ".join(f"{k}={self.info[k]!r}" for k in sorted(self.info))
            parts.append(extras)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.format()})"


@dataclass(frozen=True)
class Hop:
    """One hop of a reconstructed journey (one transfer = one copy).

    ``first_tx``/``last_tx`` bracket every link attempt of the copy;
    ``send_tx`` is the attempt that actually produced the first arrival
    (the first attempt that survived the departure hazards), so
    ``send_tx - first_tx`` is pure retransmission wait. ``queueing`` is
    the time the arriving attempt spent waiting on a busy link.
    """

    src: int
    dst: int
    transfer: int
    first_tx: float
    last_tx: float
    send_tx: float
    arrival: float
    attempts: int
    prop: float
    queueing: float


@dataclass(frozen=True)
class Journey:
    """The reconstructed hop chain of one delivered (msg, subscriber) pair.

    ``chain`` lists the brokers the delivering copy's lineage traversed,
    in order — upstream bounces legitimately revisit brokers, so entries
    may repeat. ``complete`` is ``False`` when the chain does not start at
    the message origin (e.g. a persistency-mode redelivery that re-enters
    Algorithm 2 at the storing broker).
    """

    msg: int
    subscriber: int
    origin: int
    chain: Tuple[int, ...]
    hops: Tuple[Hop, ...]
    publish_time: float
    delivery_time: float
    complete: bool

    @property
    def total_delay(self) -> float:
        """End-to-end delay of the delivering copy chain."""
        return self.delivery_time - self.publish_time


@dataclass(frozen=True)
class DelayBreakdown:
    """End-to-end delay split into its per-hop mechanisms.

    ``transmission`` is computed as the correctly-rounded remainder
    ``total - timeout_wait - retransmission - queueing``, so
    :meth:`components_sum` — the correctly-rounded (``math.fsum``) sum
    of the four components — equals ``total`` *exactly* (``==``, no
    float residue); it equals the accumulated propagation plus
    serialisation time of the delivering attempts.
    """

    total: float
    transmission: float
    queueing: float
    timeout_wait: float
    retransmission: float

    def components_sum(self) -> float:
        """Correctly-rounded sum of the four components (== ``total``)."""
        return math.fsum(
            (self.transmission, self.queueing, self.timeout_wait, self.retransmission)
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "transmission": self.transmission,
            "queueing": self.queueing,
            "timeout_wait": self.timeout_wait,
            "retransmission": self.retransmission,
        }


def _nudge_remainder(
    total: float, queueing: float, timeout_wait: float, retransmission: float
) -> Tuple[float, bool]:
    """Correctly-rounded remainder, nudged until ``fsum`` lands on *total*.

    The remainder is the correctly-rounded value of the exact difference,
    so ``math.fsum`` over the four components usually lands back on
    ``total`` exactly: the representation error of the remainder is below
    half an ulp of ``total``, inside fsum's final rounding. (Plain
    left-to-right ``+`` cannot guarantee this — its rounding granularity
    can straddle ``total`` without ever hitting it.) Returns the remainder
    and whether exactness was reached.
    """
    transmission = math.fsum((total, -queueing, -timeout_wait, -retransmission))
    for _ in range(4):
        residual = total - math.fsum(
            (transmission, queueing, timeout_wait, retransmission)
        )
        if residual == 0.0:
            return transmission, True
        transmission = math.nextafter(
            transmission, math.inf if residual > 0.0 else -math.inf
        )
    return transmission, False


def _exact_components(
    total: float, queueing: float, timeout_wait: float, retransmission: float
) -> Tuple[float, float, float, float]:
    """Components ``(transmission, queueing, timeout_wait, retransmission)``
    whose ``math.fsum`` equals *total* exactly.

    ``transmission`` is solved as the correctly-rounded remainder. In rare
    worlds the exact sum sits precisely on a round-half-to-even tie between
    two doubles straddling ``total``: stepping the remainder by one ulp
    then jumps the rounded sum *over* ``total`` without ever hitting it.
    When that happens the tie is broken by moving the smallest-magnitude
    nonzero measured component one ulp: that component is at most
    ``total / 2``, so its ulp is at most half of ``total``'s and the
    shifted sum rounds exactly. All adjustments are ≤ 1 ulp — far below
    the simulation's timing granularity.
    """
    transmission, exact = _nudge_remainder(
        total, queueing, timeout_wait, retransmission
    )
    if not exact:
        measured = [queueing, timeout_wait, retransmission]
        nonzero = [i for i, v in enumerate(measured) if v != 0.0]
        if nonzero:
            smallest = min(nonzero, key=lambda i: abs(measured[i]))
            for direction in (-math.inf, math.inf):
                trial = list(measured)
                trial[smallest] = math.nextafter(measured[smallest], direction)
                transmission, exact = _nudge_remainder(total, *trial)
                if exact:
                    queueing, timeout_wait, retransmission = trial
                    break
    return transmission, queueing, timeout_wait, retransmission


class FrameTracer:
    """Structured per-frame lifecycle recorder, a probe-bus observer.

    All hooks are observation-only (no RNG draws, no scheduling). Events
    live in a bounded ring buffer (``capacity``); parent lineage
    (transfer -> parent transfer) is a plain dict and is never evicted —
    it is two ints per copy and journeys need the full ancestry.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise TraceError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = itertools.count()
        #: transfer_id -> parent transfer_id (fed by PacketFrame.forwarded).
        self._parents: Dict[int, int] = {}
        # Aggregate counters surfaced as trace.* perf entries.
        self.events_recorded = 0
        self.events_dropped = 0
        self.kind_counts: Dict[str, int] = {}
        #: Kernel events popped while this tracer was attached.
        self.sim_events = 0
        # Query index caches, invalidated on every new record.
        self._index_stamp = -1
        self._publish_by_msg: Dict[int, TraceEvent] = {}
        self._deliver_by_pair: Dict[Tuple[int, int], TraceEvent] = {}
        self._tx_by_transfer: Dict[int, List[TraceEvent]] = {}
        self._fate_by_transfer: Dict[int, List[TraceEvent]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self,
        t: float,
        kind: str,
        msg: int,
        transfer: int,
        node: int,
        peer: int = -1,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.events_dropped += 1
        self.events_recorded += 1
        counts = self.kind_counts
        counts[kind] = counts.get(kind, 0) + 1
        events.append(
            TraceEvent(next(self._seq), t, kind, msg, transfer, node, peer, info)
        )

    # -- kernel (sim/engine.py) -----------------------------------------
    def on_event_pop(self, t: float, now: float) -> None:
        """The kernel popped an event (counted, not buffered)."""
        self.sim_events += 1

    # -- frame constructors (pubsub/messages.py) ------------------------
    def on_publish(self, frame: Any) -> None:
        """A root copy was created at the origin (PacketFrame.fresh)."""
        info: Dict[str, Any] = {
            "topic": frame.topic,
            "dests": sorted(frame.destinations),
        }
        if frame.fragments_needed > 0:
            info["fragment"] = frame.fragment_index
        self._record(
            frame.publish_time,
            PUBLISH,
            frame.msg_id,
            frame.transfer_id,
            frame.origin,
            info=info,
        )

    def on_fork(self, parent_transfer: int, child_transfer: int) -> None:
        """A copy was forked for the next hop (PacketFrame.forwarded)."""
        self._parents[child_transfer] = parent_transfer

    # -- overlay links (overlay/links.py) -------------------------------
    def on_transmit(
        self,
        t: float,
        src: int,
        dst: int,
        frame: Any,
        survived: bool,
        cause: Optional[str],
        prop: float,
        queue: Optional[float],
    ) -> None:
        """A DATA frame was handed to the (src, dst) link direction.

        ``queue`` is the time the copy will wait on the busy direction
        before its serialisation starts (0.0 for infinite-capacity links;
        ``None`` when the EDF server decides later). A departure-time loss
        additionally records a ``link_drop`` event with its cause.
        """
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return  # tests transmit bare objects; nothing to track
        info: Dict[str, Any] = {
            "parent": self._parents.get(transfer, -1),
            "prop": prop,
        }
        if queue is not None:
            info["queue"] = queue
        if not survived:
            info["cause"] = cause
        self._record(t, TRANSMIT, frame.msg_id, transfer, src, dst, info)
        if not survived:
            self._record(
                t, LINK_DROP, frame.msg_id, transfer, src, dst, {"cause": cause}
            )

    def on_enqueue(
        self, t: float, src: int, dst: int, frame: Any, wait: Optional[float],
        qlen: Optional[int] = None,
    ) -> None:
        """A DATA frame had to wait on a busy finite-capacity direction."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        info: Dict[str, Any] = {}
        if wait is not None:
            info["wait"] = wait
        if qlen is not None:
            info["qlen"] = qlen
        self._record(t, ENQUEUE, frame.msg_id, transfer, src, dst, info or None)

    def on_arrive(self, t: float, src: int, dst: int, frame: Any) -> None:
        """A DATA frame reached the receiving broker's handler."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        self._record(t, ARRIVE, frame.msg_id, transfer, dst, src)

    def on_arrival_drop(
        self, t: float, src: int, dst: int, frame: Any, cause: str
    ) -> None:
        """A DATA frame was dropped at arrival (receiver down, no handler)."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        self._record(
            t, LINK_DROP, frame.msg_id, transfer, dst, src,
            {"cause": cause, "at": "arrival"},
        )

    def on_expire(self, t: float, src: int, dst: int, frame: Any) -> None:
        """The EDF overload policy discarded a queued DATA frame."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        self._record(t, EXPIRE, frame.msg_id, transfer, src, dst)

    # -- broker runtime (pubsub/broker.py) ------------------------------
    def on_dedup_discard(self, t: float, node: int, sender: int, frame: Any) -> None:
        """A broker suppressed an already-seen transfer (lost-ACK echo)."""
        self._record(t, DEDUP_DISCARD, frame.msg_id, frame.transfer_id, node, sender)

    def on_deliver(self, t: float, node: int, frame: Any) -> None:
        """The first copy of a (msg, subscriber) pair was delivered locally."""
        self._record(
            t, DELIVER, frame.msg_id, frame.transfer_id, node,
            info={"hops": len(frame.routing_path)},
        )

    # -- ARQ (routing/arq.py) -------------------------------------------
    def on_ack(self, t: float, node: int, sender: int, frame: Any) -> None:
        """The sender matched a hop-by-hop ACK to an outstanding copy."""
        self._record(t, ACK, frame.msg_id, frame.transfer_id, node, sender)

    def on_ack_timeout(
        self, t: float, src: int, dst: int, frame: Any, attempts: int,
        will_retry: bool,
    ) -> None:
        """An ACK timer fired; ``will_retry`` says if a retransmit follows."""
        self._record(
            t, ACK_TIMEOUT, frame.msg_id, frame.transfer_id, src, dst,
            {"attempts": attempts, "will_retry": will_retry},
        )

    # -- DCRD forwarding (core/forwarding.py) ---------------------------
    def on_failover(self, t: float, node: int, failed_hop: int, frame: Any) -> None:
        """A hop exhausted its m-transmission budget; re-dispatching."""
        self._record(t, FAILOVER, frame.msg_id, frame.transfer_id, node, failed_hop)

    def on_bounce(self, t: float, node: int, upstream: int, copy: Any) -> None:
        """A copy is being sent back to its upstream broker (§III-D)."""
        self._record(t, BOUNCE, copy.msg_id, copy.transfer_id, node, upstream)

    def on_abandon(self, t: float, node: int, frame: Any, subscriber: int) -> None:
        """The strategy gave up on one destination of a copy."""
        self._record(
            t, ABANDON, frame.msg_id, frame.transfer_id, node,
            info={"subscriber": subscriber},
        )

    # -- persistency custody (extensions/persistence.py) ----------------
    def on_custody(
        self,
        t: float,
        node: int,
        frame: Any,
        subscriber: int,
        action: str,
        fresh_transfer: int = -1,
    ) -> None:
        """The persistency store took custody of (or redelivered) a pair.

        ``action`` is ``"stored"`` when the strategy persisted the frame
        instead of giving the subscriber up, ``"redelivered"`` when a
        fresh copy (``fresh_transfer``) was forked from the stored frame
        for a retry. The fresh copy is linked into the parent lineage so
        :meth:`journey` can walk a redelivered pair's chain back through
        the storing broker to the original publish.
        """
        info: Dict[str, Any] = {"subscriber": subscriber, "action": action}
        if fresh_transfer >= 0:
            info["fresh"] = fresh_transfer
            self._parents[fresh_transfer] = frame.transfer_id
        self._record(
            t, CUSTODY, frame.msg_id, frame.transfer_id, node, info=info
        )

    # -- ordering pipelines (ordering/pipeline.py) ----------------------
    def on_order_hold(self, t: float, node: int, frame: Any, level: str) -> None:
        """A delivery pipeline buffered a frame behind an ordering gap."""
        self._record(
            t, ORDER_HOLD, frame.msg_id, frame.transfer_id, node,
            info={"level": level},
        )

    def on_order_release(
        self,
        t: float,
        node: int,
        frame: Any,
        level: str,
        reason: str,
        held_for: float,
    ) -> None:
        """A pipeline released a frame to the terminal delivery stage.

        ``held`` (recorded only when the frame actually waited) is the
        hold-back latency — the tracer's visibility into what the
        guarantee cost this delivery; :meth:`holdback_latencies`
        aggregates it per delivered pair.
        """
        info: Dict[str, Any] = {"level": level, "reason": reason}
        if held_for > 0.0:
            info["held"] = held_for
        self._record(
            t, ORDER_RELEASE, frame.msg_id, frame.transfer_id, node, info=info
        )

    def on_order_stall(
        self, t: float, node: int, level: str, info: Any
    ) -> None:
        """The hold-back watchdog skipped a gap or flagged a straggler."""
        payload: Dict[str, Any] = {"level": level}
        if info:
            payload.update(info)
        self._record(t, ORDER_STALL, -1, -1, node, info=payload)

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._events)

    def events_for(
        self,
        msg_id: Optional[int] = None,
        transfer_id: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Buffered events filtered by message and/or transfer id."""
        return [
            e
            for e in self._events
            if (msg_id is None or e.msg == msg_id)
            and (transfer_id is None or e.transfer == transfer_id)
        ]

    def parent(self, transfer_id: int) -> int:
        """The transfer this copy was forked from (-1 for root copies)."""
        return self._parents.get(transfer_id, -1)

    # ------------------------------------------------------------------
    # Query index
    # ------------------------------------------------------------------
    def _index(self) -> None:
        """(Re)build the query caches when the buffer changed."""
        stamp = self.events_recorded
        if stamp == self._index_stamp:
            return
        self._index_stamp = stamp
        publish: Dict[int, TraceEvent] = {}
        deliver: Dict[Tuple[int, int], TraceEvent] = {}
        tx: Dict[int, List[TraceEvent]] = {}
        fate: Dict[int, List[TraceEvent]] = {}
        for event in self._events:
            kind = event.kind
            if kind == TRANSMIT:
                tx.setdefault(event.transfer, []).append(event)
            elif kind == ARRIVE or kind == EXPIRE:
                fate.setdefault(event.transfer, []).append(event)
            elif kind == LINK_DROP:
                if event.info is not None and event.info.get("at") == "arrival":
                    fate.setdefault(event.transfer, []).append(event)
            elif kind == PUBLISH:
                publish.setdefault(event.msg, event)
            elif kind == DELIVER:
                deliver.setdefault((event.msg, event.node), event)
        self._publish_by_msg = publish
        self._deliver_by_pair = deliver
        self._tx_by_transfer = tx
        self._fate_by_transfer = fate

    def _hop(self, transfer: int) -> Hop:
        """Resolve one chain copy into a :class:`Hop` record."""
        attempts = self._tx_by_transfer[transfer]
        src = attempts[0].node
        dst = attempts[0].peer
        surviving = [
            e for e in attempts if e.info is None or "cause" not in e.info
        ]
        fates = self._fate_by_transfer.get(transfer, [])
        arrival_index = -1
        arrival: Optional[TraceEvent] = None
        for index, event in enumerate(fates):
            if event.kind == ARRIVE:
                arrival_index = index
                arrival = event
                break
        if arrival is None:
            raise TraceError(
                f"transfer {transfer} has no recorded arrival — the ring "
                f"buffer may have evicted it (capacity={self.capacity}, "
                f"dropped={self.events_dropped})"
            )
        if arrival_index >= len(surviving):
            raise TraceError(
                f"transfer {transfer}: arrival outcomes do not match "
                f"surviving attempts (trace incomplete?)"
            )
        send = surviving[arrival_index]
        info = send.info or {}
        prop = float(info.get("prop", 0.0))
        queue = info.get("queue")
        if queue is None:
            # EDF-queued attempt: the wait is not known at transmit time;
            # derive it from the arrival instant (clamped — pure float
            # noise must not surface as negative queueing).
            queue = arrival.t - send.t - prop
            if queue < 0.0:
                queue = 0.0
        return Hop(
            src=src,
            dst=dst,
            transfer=transfer,
            first_tx=attempts[0].t,
            last_tx=attempts[-1].t,
            send_tx=send.t,
            arrival=arrival.t,
            attempts=len(attempts),
            prop=prop,
            queueing=float(queue),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def journey(self, msg_id: int, subscriber: int) -> Journey:
        """Reconstruct the hop chain that delivered *msg_id* to *subscriber*.

        Walks the delivering copy's parent lineage back to the root and
        resolves each ancestor into a :class:`Hop`. Raises
        :class:`TraceError` when the pair has no recorded delivery or the
        chain cannot be resolved (e.g. evicted by the ring buffer).
        """
        self._index()
        deliver = self._deliver_by_pair.get((msg_id, subscriber))
        if deliver is None:
            publish = self._publish_by_msg.get(msg_id)
            if publish is not None and publish.node == subscriber:
                # Publisher-local delivery: the message never became a
                # frame for this subscriber.
                return Journey(
                    msg=msg_id,
                    subscriber=subscriber,
                    origin=publish.node,
                    chain=(subscriber,),
                    hops=(),
                    publish_time=publish.t,
                    delivery_time=publish.t,
                    complete=True,
                )
            raise TraceError(
                f"no delivery of msg {msg_id} to subscriber {subscriber} "
                f"in the trace"
            )
        chain_transfers: List[int] = []
        transfer = deliver.transfer
        tx = self._tx_by_transfer
        parents = self._parents
        # Walk the full ancestry; ancestors without transmit events (the
        # virtual root copy, a stored frame redelivered in place) are
        # skipped rather than terminating the walk, so custody
        # redeliveries chain back through the storing broker to the
        # origin. Parent transfer ids strictly decrease, so this
        # terminates.
        while transfer >= 0:
            if transfer in tx:
                chain_transfers.append(transfer)
            transfer = parents.get(transfer, -1)
        if not chain_transfers:
            raise TraceError(
                f"delivering transfer {deliver.transfer} of msg {msg_id} "
                f"has no transmit events in the trace"
            )
        chain_transfers.reverse()
        hops = tuple(self._hop(t) for t in chain_transfers)
        for previous, current in zip(hops, hops[1:]):
            if previous.dst != current.src:
                raise TraceError(
                    f"journey of msg {msg_id} -> {subscriber} is not "
                    f"contiguous: hop into {previous.dst} followed by hop "
                    f"out of {current.src}"
                )
        if hops[-1].dst != subscriber:
            raise TraceError(
                f"journey of msg {msg_id} ends at broker {hops[-1].dst}, "
                f"not at subscriber {subscriber}"
            )
        chain = (hops[0].src,) + tuple(hop.dst for hop in hops)
        publish = self._publish_by_msg.get(msg_id)
        if publish is not None:
            origin = publish.node
            publish_time = publish.t
        else:
            origin = hops[0].src
            publish_time = hops[0].first_tx
        return Journey(
            msg=msg_id,
            subscriber=subscriber,
            origin=origin,
            chain=chain,
            hops=hops,
            publish_time=publish_time,
            delivery_time=deliver.t,
            complete=chain[0] == origin,
        )

    def delay_breakdown(self, msg_id: int, subscriber: int) -> DelayBreakdown:
        """Split the pair's end-to-end delay into its mechanisms.

        Per hop ``i`` with parent-arrival ``r`` (publish time for the
        first hop), first attempt ``f``, arriving attempt ``s`` and
        arrival ``a``:

        * ``timeout_wait``  += ``f - r`` — broker think/wait time before
          the copy's first transmission (failed-sibling ACK-timeout
          cycles, persistency retry backoff);
        * ``retransmission`` += ``s - f`` — attempts lost on this very
          link before the surviving one;
        * ``queueing``      += the arriving attempt's wait on the busy
          direction (exact for FIFO, derived for EDF);
        * ``transmission``   = the remainder — propagation plus
          serialisation of the delivering attempts.

        The remainder construction makes the four components sum to
        ``total`` exactly (the property suite asserts ``==``, not
        ``approx``).
        """
        journey = self.journey(msg_id, subscriber)
        total = journey.delivery_time - journey.publish_time
        timeout_wait = 0.0
        retransmission = 0.0
        queueing = 0.0
        reached = journey.publish_time
        for hop in journey.hops:
            timeout_wait += hop.first_tx - reached
            retransmission += hop.send_tx - hop.first_tx
            queueing += hop.queueing
            reached = hop.arrival
        transmission, queueing, timeout_wait, retransmission = _exact_components(
            total, queueing, timeout_wait, retransmission
        )
        return DelayBreakdown(
            total=total,
            transmission=transmission,
            queueing=queueing,
            timeout_wait=timeout_wait,
            retransmission=retransmission,
        )

    def holdback_latencies(self) -> Dict[Tuple[int, int], float]:
        """Hold-back wait per released (msg, node) pair, in virtual time.

        Zero-wait releases (frames that were immediately deliverable)
        appear with ``0.0``, so the mapping doubles as the set of
        pipeline-released pairs; pairs delivered outside a pipeline
        (ordering off, uncovered topics) are absent.
        """
        latencies: Dict[Tuple[int, int], float] = {}
        for event in self._events:
            if event.kind != ORDER_RELEASE:
                continue
            info = event.info or {}
            pair = (event.msg, event.node)
            if pair not in latencies:
                latencies[pair] = float(info.get("held", 0.0))
        return latencies

    def retransmission_tree(self, msg_id: int) -> List[Dict[str, Any]]:
        """The copy tree of one message, as nested dicts.

        Each node describes one transmitted transfer: its link, attempt
        count and fate, with the copies forked from it as ``children``.
        Roots are the copies whose parent was never transmitted (the
        virtual root frame created at publish) or is unknown.
        """
        self._index()
        tx = self._tx_by_transfer
        transfers = sorted(t for t in tx if tx[t][0].msg == msg_id)
        transfer_set = set(transfers)
        children: Dict[int, List[int]] = {}
        roots: List[int] = []
        for transfer in transfers:
            parent = self._parents.get(transfer, -1)
            if parent in transfer_set:
                children.setdefault(parent, []).append(transfer)
            else:
                roots.append(transfer)

        def build(transfer: int) -> Dict[str, Any]:
            attempts = tx[transfer]
            fates = self._fate_by_transfer.get(transfer, [])
            if any(f.kind == ARRIVE for f in fates):
                fate = "arrived"
            elif any(f.kind == EXPIRE for f in fates):
                fate = "expired"
            else:
                fate = "lost"
            return {
                "transfer": transfer,
                "src": attempts[0].node,
                "dst": attempts[0].peer,
                "first_tx": attempts[0].t,
                "attempts": len(attempts),
                "fate": fate,
                "children": [build(child) for child in children.get(transfer, [])],
            }

        return [build(root) for root in roots]

    def format_retransmission_tree(self, msg_id: int) -> str:
        """Human-readable rendering of :meth:`retransmission_tree`."""
        lines = [f"msg {msg_id}"]

        def render(node: Dict[str, Any], depth: int) -> None:
            lines.append(
                "  " * depth
                + f"#{node['transfer']} {node['src']}->{node['dst']} "
                f"t={node['first_tx']:.6f} attempts={node['attempts']} "
                f"{node['fate']}"
            )
            for child in node["children"]:
                render(child, depth + 1)

        for root in self.retransmission_tree(msg_id):
            render(root, 1)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Excerpts (sanitizer reports)
    # ------------------------------------------------------------------
    def excerpt(
        self,
        frames: Tuple[Any, ...] = (),
        msg_ids: Iterable[int] = (),
        transfer_ids: Iterable[int] = (),
        limit: int = 40,
    ) -> Tuple[str, ...]:
        """Formatted trace lines relevant to *frames* (newest ``limit``).

        With no ids to match (e.g. an event-order violation that carries
        no frame), the tail of the whole stream is returned instead —
        still the most useful context for "what just happened".
        """
        msgs = set(msg_ids)
        transfers = set(transfer_ids)
        for frame in frames:
            msg = getattr(frame, "msg_id", None)
            if msg is not None:
                msgs.add(msg)
            transfer = getattr(frame, "transfer_id", None)
            if transfer is not None:
                transfers.add(transfer)
        if msgs or transfers:
            selected = [
                e for e in self._events if e.msg in msgs or e.transfer in transfers
            ]
        else:
            selected = list(self._events)
        return tuple(e.format() for e in selected[-limit:])

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def export_jsonl(self, target: Union[str, IO[str]]) -> None:
        """Write the buffered stream as JSON Lines.

        The first line is a ``meta`` record (schema version, capacity,
        recorded/dropped counts); every further line is one event. Keys
        are sorted so identical traces export byte-identically.
        """
        meta = {
            "kind": "meta",
            "version": JSONL_VERSION,
            "capacity": self.capacity,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
        }
        if hasattr(target, "write"):
            self._write_jsonl(target, meta)  # type: ignore[arg-type]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                self._write_jsonl(handle, meta)

    def _write_jsonl(self, handle: IO[str], meta: Dict[str, Any]) -> None:
        dumps = json.dumps
        handle.write(dumps(meta, sort_keys=True) + "\n")
        for event in self._events:
            handle.write(dumps(event.as_dict(), sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def perf_counters(self) -> Dict[str, float]:
        """The ``trace.*`` entries merged into ``MetricsSummary.perf``."""
        perf = {
            "trace.events_recorded": float(self.events_recorded),
            "trace.events_dropped": float(self.events_dropped),
            "trace.sim_events": float(self.sim_events),
            "trace.forks": float(len(self._parents)),
        }
        for kind, count in self.kind_counts.items():
            perf[f"trace.{kind}"] = float(count)
        return perf


def load_jsonl(source: Union[str, IO[str]]) -> FrameTracer:
    """Rebuild a :class:`FrameTracer` from an exported JSONL stream.

    The full query API (journeys, breakdowns, trees) works on the loaded
    tracer: parent lineage is recovered from the ``parent`` field each
    transmit event embeds.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    tracer: Optional[FrameTracer] = None
    events: List[TraceEvent] = []
    dropped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") == "meta":
            version = record.get("version")
            if version != JSONL_VERSION:
                raise TraceError(
                    f"unsupported trace schema version {version!r} "
                    f"(expected {JSONL_VERSION})"
                )
            tracer = FrameTracer(capacity=record.get("capacity", DEFAULT_CAPACITY))
            dropped = int(record.get("events_dropped", 0))
            continue
        if tracer is None:
            raise TraceError(
                "trace stream has no meta line (not a repro trace?)"
            )
        events.append(
            TraceEvent(
                record["seq"],
                record["t"],
                record["kind"],
                record["msg"],
                record["transfer"],
                record["node"],
                record.get("peer", -1),
                record.get("info"),
            )
        )
    if tracer is None:
        raise TraceError("trace stream has no meta line (not a repro trace?)")
    for event in events:
        tracer._events.append(event)
        tracer.events_recorded += 1
        tracer.kind_counts[event.kind] = tracer.kind_counts.get(event.kind, 0) + 1
        if event.kind == TRANSMIT and event.info is not None:
            parent = event.info.get("parent", -1)
            if parent >= 0:
                tracer._parents[event.transfer] = parent
        elif event.kind == CUSTODY and event.info is not None:
            # Custody redeliveries embed the fresh copy's transfer id, so
            # stored->redelivered lineage survives the JSONL round-trip.
            fresh = event.info.get("fresh", -1)
            if fresh >= 0:
                tracer._parents[fresh] = event.transfer
    tracer.events_dropped = dropped
    return tracer
