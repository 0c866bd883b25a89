"""RunRecord: the one probe observer of a run, over one per-transfer ledger.

The paper's argument (Theorem 1, §III) is about *where delay and loss
accrue per hop* — ACK timeouts, failovers down the sending list, upstream
bounces. A :class:`RunRecord` watches exactly that, as a plain observer
of the :mod:`repro.probes` bus with one handler per event family, in up
to two modes at once:

* ``sanitize`` (``ExperimentConfig.sanitize`` / CLI ``--sanitize``) —
  the record enforces the invariants of :mod:`repro.sanity` live, raising
  an :class:`~repro.sanity.InvariantViolation` at the offending event,
  and runs the end-of-run checks in :meth:`RunRecord.finish`;
* ``trace`` (``ExperimentConfig.trace`` / CLI ``--trace``) — the record
  keeps the lifecycle events in a ring of ``capacity`` events (newest
  kept; evictions counted in ``trace.events_dropped``) for the queries
  and the JSONL export of :mod:`repro.trace`.

Both modes share one ledger: one :class:`Transfer` per frame copy, whose
link counters feed conservation, ``TIMER_BEFORE_WIRE`` and the fleet
merge (:meth:`RunRecord.export_partition`, :func:`check_merged`), and
whose buffered events feed the
journey, delay-breakdown and retransmission-tree queries. A sanitize-only
run keeps no event ring; in a trace-only run a ledger entry lives only as
long as the ring holds one of its events, so the ring stays the memory
bound (the parent lineage — two ints per copy — is kept whole).

The record only **observes**: it draws no randomness and schedules no
events, so an observed run pops the exact event sequence of an
unobserved one — only ``sanity.*`` / ``trace.*`` perf counters differ.
No protocol layer imports this module: a composition root
(:class:`repro.stack.observed`) attaches the record for a run.

Recorded event kinds (one :class:`TraceEvent` each):

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
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from repro import probes as _probes
from repro import sanity as _sanity
from repro.util.errors import ConfigurationError

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

#: Default ring capacity (events). Large enough for every test and
#: CLI-scale run.
DEFAULT_CAPACITY = 1 << 20

#: The families each mode subscribes; a record doing both subscribes the
#: union. ``ack`` and the ``timer_*`` families keep every ACK arrival
#: queued (see :mod:`repro.routing.arq`), so neither set may grow.
SANITIZE_FAMILIES = frozenset(
    {
        "event_pop", "transmit", "arrive", "arrival_drop", "expire", "wire",
        "broker_accept", "timer_started", "timer_cancelled", "timer_fired",
        "table_solved", "custody", "order_hold", "order_release",
        "order_stall",
    }
)
TRACE_FAMILIES = frozenset(
    {
        "event_pop", "publish", "fork", "transmit", "enqueue", "arrive",
        "arrival_drop", "expire", "dedup_discard", "deliver", "ack",
        "ack_timeout", "failover", "bounce", "abandon", "custody",
        "order_hold", "order_release", "order_stall",
    }
)


class TraceEvent(NamedTuple):
    """One recorded lifecycle event.

    ``peer`` is the other end of the interaction (the receiving broker of
    a transmit, the acking neighbour of an ack, the failed hop of a
    failover, ...) or ``-1`` when there is none. ``info`` carries
    kind-specific extras (see docs/OBSERVABILITY.md for the schema).
    """

    seq: int
    t: float
    kind: str
    msg: int
    transfer: int
    node: int
    peer: int = -1
    info: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable flat view (the JSONL line payload)."""
        fields = self._asdict()
        if not self.info:
            del fields["info"]
        return fields

    def format(self) -> str:
        """One human-readable line (used by trace excerpts)."""
        parts = [f"t={self.t:.6f}", f"{self.kind:<13}", f"node={self.node}"]
        if self.peer >= 0:
            parts.append(f"peer={self.peer}")
        parts.append(f"msg={self.msg}")
        if self.transfer >= 0:
            parts.append(f"transfer={self.transfer}")
        if self.info:
            parts.append(" ".join(f"{k}={self.info[k]!r}" for k in sorted(self.info)))
        return " ".join(parts)


class Transfer:
    """The ledger entry of one transfer (= one frame copy).

    The link counters are what conservation and the fleet merge need;
    ``wire_clear`` / ``armed`` hold, for the copy handed over last,
    whichever came first of the instant the link said its last bit
    leaves the sender and the deadline of the ACK timer armed for it
    (``TIMER_BEFORE_WIRE`` compares the two). ``events`` are the buffered
    ``transmit`` / ``arrive`` / ``expire`` / arrival ``link_drop`` events
    of the copy, oldest first (tracing only).
    """

    __slots__ = (
        "msg_id", "destinations", "sent", "delivered", "lost", "expired",
        "wire_clear", "armed", "events",
    )

    def __init__(self, msg_id: int, destinations: Any) -> None:
        self.msg_id = msg_id
        self.destinations = destinations
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.expired = 0
        self.wire_clear: Optional[float] = None
        self.armed: Optional[float] = None
        self.events: List[TraceEvent] = []

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.lost - self.expired


class RunRecord(_probes.ProbeObserver):
    """The run's record: invariant checks and lifecycle tracing.

    ``partitioned=True`` adapts the checks to one process of a
    multi-process live deployment, where a node observes only its own
    partition's events: a frame transmitted by a *remote* broker
    legitimately arrives here without a local ``transmit``, so the
    unknown-arrival and over-settle conservation checks are relaxed (a
    ledger entry is opened on first sight instead), and conservation is
    re-proved over the fleet's merged exports at the coordinator.
    """

    def __init__(
        self, sanitize: bool = False, trace: bool = False,
        capacity: int = DEFAULT_CAPACITY, partitioned: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.sanitize = sanitize
        self.trace = trace
        self.capacity = capacity
        self.partitioned = partitioned
        #: transfer id -> its ledger entry.
        self.ledger: Dict[int, Transfer] = {}
        #: transfer id -> the transfer it was forked from (tracing only).
        self.parents: Dict[int, int] = {}
        #: Kernel events popped while attached.
        self.events_popped = 0
        self.losses_by_cause: Counter[str] = Counter()
        self.violations = 0
        self.accepts_checked = 0
        self.timers_started = 0
        self.timers_settled = 0
        self.tables_checked = 0
        # ARQ timer token (kernel event seq) -> [deadline, state, frame],
        # the state "pending" until the timer is "cancelled" or "fired".
        self._timers: Dict[int, List[Any]] = {}
        # (node, transfer) pairs that passed a broker's dedup filter.
        self._accepted: Set[Tuple[int, int]] = set()
        #: (msg, subscriber) pairs a strategy took into explicit custody
        #: (the persistency store) instead of giving up on.
        self.custody: Set[Tuple[int, int]] = set()
        self.order = _sanity.OrderChecks(self._violate)
        #: End-of-run conservation partition, filled by finish().
        self.pair_counts: Dict[str, int] = {}
        self._events: Optional[Deque[TraceEvent]] = (
            deque(maxlen=capacity) if trace else None
        )
        self._seq = itertools.count()
        self.events_recorded = 0
        self.events_dropped = 0
        self.kind_counts: Counter[str] = Counter()
        #: msg -> its oldest buffered publish; (msg, node) -> oldest deliver.
        self.publishes: Dict[int, TraceEvent] = {}
        self.deliveries: Dict[Tuple[int, int], TraceEvent] = {}

    def probe_handlers(self) -> Dict[str, Callable[..., Any]]:
        families = (SANITIZE_FAMILIES if self.sanitize else frozenset()) | (
            TRACE_FAMILIES if self.trace else frozenset()
        )
        return {family: getattr(self, "on_" + family) for family in sorted(families)}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        """Buffer *event* and index it: the one path every event takes,
        from a live hook or from a JSONL replay."""
        events = self._events
        if len(events) == self.capacity:
            self.events_dropped += 1
            self._forget(events[0])
        events.append(event)
        self.events_recorded += 1
        kind = event.kind
        self.kind_counts[kind] += 1
        if kind == TRANSMIT:
            entry = self.ledger.get(event.transfer)
            if entry is None:
                entry = self.ledger[event.transfer] = Transfer(event.msg, ())
            entry.events.append(event)
            parent = (event.info or {}).get("parent", -1)
            if parent >= 0:
                self.parents[event.transfer] = parent
        elif kind in (ARRIVE, EXPIRE) or (
            kind == LINK_DROP and event.info and event.info.get("at") == "arrival"
        ):
            entry = self.ledger.get(event.transfer)
            if entry is not None:
                entry.events.append(event)
        elif kind == PUBLISH:
            self.publishes.setdefault(event.msg, event)
        elif kind == DELIVER:
            self.deliveries.setdefault((event.msg, event.node), event)
        elif kind == CUSTODY and event.info and event.info.get("fresh", -1) >= 0:
            # A custody redelivery's fresh copy descends from the stored one.
            self.parents[event.info["fresh"]] = event.transfer

    def _forget(self, event: TraceEvent) -> None:
        """Unindex an event the ring is about to evict."""
        if event.kind == PUBLISH:
            if self.publishes.get(event.msg) is event:
                del self.publishes[event.msg]
        elif event.kind == DELIVER:
            if self.deliveries.get((event.msg, event.node)) is event:
                del self.deliveries[(event.msg, event.node)]
        else:
            entry = self.ledger.get(event.transfer)
            if entry is not None and entry.events and entry.events[0] is event:
                del entry.events[0]
                if not entry.events and not self.sanitize:
                    del self.ledger[event.transfer]

    def _record(
        self, t: float, kind: str, msg: int, transfer: int, node: int,
        peer: int = -1, info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.append(TraceEvent(next(self._seq), t, kind, msg, transfer, node, peer, info))

    def _violate(
        self, kind: str, message: str, frames: Tuple[Any, ...] = (), **details: Any
    ) -> None:
        self.violations += 1
        excerpt = self.excerpt(frames) if self._events is not None else ()
        raise _sanity.InvariantViolation(kind, message, frames, details, excerpt)

    # -- kernel (sim/engine.py) -----------------------------------------
    def on_event_pop(self, time: float, now: float) -> None:
        """The kernel is about to execute an event dated *time*."""
        self.events_popped += 1
        if time < now and self.sanitize:
            self._violate(
                _sanity.EVENT_ORDER,
                f"event dated t={time!r} popped at now={now!r}",
                time=time,
                now=now,
            )

    # -- frame constructors (pubsub/messages.py) ------------------------
    def on_publish(self, frame: Any) -> None:
        """A root copy was created at the origin (PacketFrame.fresh)."""
        info: Dict[str, Any] = {"topic": frame.topic, "dests": sorted(frame.destinations)}
        if frame.fragments_needed > 0:
            info["fragment"] = frame.fragment_index
        self._record(
            frame.publish_time, PUBLISH, frame.msg_id, frame.transfer_id,
            frame.origin, info=info,
        )

    def on_fork(self, parent_transfer: int, child_transfer: int) -> None:
        """A copy was forked for the next hop (PacketFrame.forwarded)."""
        self.parents[child_transfer] = parent_transfer

    # -- overlay links (overlay/links.py) -------------------------------
    def on_transmit(
        self, t: float, src: int, dst: int, frame: Any, survived: bool,
        cause: Optional[str], prop: float, queue: Optional[float],
    ) -> None:
        """A DATA frame was handed to the (src, dst) link direction.

        ``queue`` is the time the copy will wait on the busy direction
        before its serialisation starts (0.0 for infinite-capacity links;
        ``None`` when the EDF server decides later). A departure-time loss
        is also recorded as a ``link_drop`` with its cause.
        """
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return  # tests send stand-in frames; nothing to track
        entry = self.ledger.get(transfer)
        if entry is None:
            entry = self.ledger[transfer] = Transfer(frame.msg_id, frame.destinations)
        entry.sent += 1
        entry.wire_clear = entry.armed = None  # a new copy, a new clock
        if not survived:
            entry.lost += 1
            self.losses_by_cause[cause or "unknown"] += 1
        if self._events is not None:
            info: Dict[str, Any] = {"parent": self.parents.get(transfer, -1), "prop": prop}
            if queue is not None:
                info["queue"] = queue
            if not survived:
                info["cause"] = cause
            self._record(t, TRANSMIT, frame.msg_id, transfer, src, dst, info)
            if not survived:
                drop = {"cause": cause}
                self._record(t, LINK_DROP, frame.msg_id, transfer, src, dst, drop)

    def on_enqueue(
        self, t: float, src: int, dst: int, frame: Any, wait: Optional[float],
        qlen: Optional[int] = None,
    ) -> None:
        """A DATA frame had to wait on a busy finite-capacity direction."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        info = {k: v for k, v in (("wait", wait), ("qlen", qlen)) if v is not None}
        self._record(t, ENQUEUE, frame.msg_id, transfer, src, dst, info or None)

    def on_arrive(self, t: float, src: int, dst: int, frame: Any) -> None:
        """A DATA frame reached the receiving broker's handler."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        checked = self.sanitize and not self.partitioned
        entry = self.ledger.get(transfer)
        if entry is None:
            if checked:
                self._violate(
                    _sanity.CONSERVATION,
                    f"transfer {transfer} delivered but never transmitted",
                    (frame,),
                    transfer_id=transfer,
                )
            # The transmit happened in another process (or goes unchecked):
            # open the entry so the merged fleet-wide tally sees the arrival.
            entry = self.ledger[transfer] = Transfer(frame.msg_id, frame.destinations)
        entry.delivered += 1
        if checked and entry.delivered + entry.lost + entry.expired > entry.sent:
            self._violate(
                _sanity.CONSERVATION,
                f"transfer {transfer} settled more often than it was sent",
                (frame,),
                sent=entry.sent,
                delivered=entry.delivered,
                lost=entry.lost,
                expired=entry.expired,
            )
        if self._events is not None:
            self._record(t, ARRIVE, frame.msg_id, transfer, dst, src)

    def on_arrival_drop(
        self, t: float, src: int, dst: int, frame: Any, cause: str
    ) -> None:
        """A DATA frame was dropped at arrival (receiver down, no handler)."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        entry = self.ledger.get(transfer)
        if entry is not None:
            entry.lost += 1
        self.losses_by_cause[cause] += 1
        if self._events is not None:
            self._record(
                t, LINK_DROP, frame.msg_id, transfer, dst, src,
                {"cause": cause, "at": "arrival"},
            )

    def on_expire(self, t: float, src: int, dst: int, frame: Any) -> None:
        """The EDF overload policy discarded a queued DATA frame."""
        transfer = getattr(frame, "transfer_id", None)
        if transfer is None:
            return
        entry = self.ledger.get(transfer)
        if entry is not None:
            entry.expired += 1
        self.losses_by_cause["edf_expired"] += 1
        if self._events is not None:
            self._record(t, EXPIRE, frame.msg_id, transfer, src, dst)

    def on_wire(
        self, t: float, src: int, dst: int, frame: Any, wait: Optional[float]
    ) -> None:
        """The link reported when a copy's last bit leaves its sender."""
        entry = self.ledger.get(getattr(frame, "transfer_id", None))
        if entry is None or wait is None:
            return
        clear = t + wait
        if entry.armed is None:
            entry.wire_clear = clear  # the timer is yet to be armed
        elif entry.armed < clear:
            self._timer_before_wire(frame, entry.armed, clear)

    def _timer_before_wire(self, frame: Any, deadline: float, clear: float) -> None:
        self._violate(
            _sanity.TIMER_BEFORE_WIRE,
            f"ARQ timer of transfer {frame.transfer_id} is due t={deadline!r}, "
            f"before the copy's last bit leaves its sender at t={clear!r}",
            (frame,),
            deadline=deadline,
            wire_clear=clear,
        )

    # -- broker runtime (pubsub/broker.py) ------------------------------
    def on_dedup_discard(self, t: float, node: int, sender: int, frame: Any) -> None:
        """A broker suppressed an already-seen transfer (lost-ACK echo)."""
        self._record(t, DEDUP_DISCARD, frame.msg_id, frame.transfer_id, node, sender)

    def on_broker_accept(self, node: int, sender: int, frame: Any) -> None:
        """A DATA frame from *sender* passed broker *node*'s dedup."""
        self.accepts_checked += 1
        _sanity.check_accept(node, sender, frame, self._accepted, self._violate)

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

    def on_timer_started(self, token: int, deadline: float, frame: Any = None) -> None:
        """An ACK-timeout event was pushed into the calendar queue.

        ``frame`` (the outstanding copy the timer guards) is optional and
        only used to name the copy in timer violations.
        """
        self.timers_started += 1
        self._timers[token] = [deadline, "pending", frame]
        entry = self.ledger.get(getattr(frame, "transfer_id", None))
        if entry is None:
            return
        if entry.wire_clear is None:
            entry.armed = deadline  # the link may still report (EDF)
        elif deadline < entry.wire_clear:
            self._timer_before_wire(frame, deadline, entry.wire_clear)

    def on_timer_cancelled(self, token: int) -> None:
        """The ACK arrived first; the timer was cancelled."""
        self._settle(token, "cancelled")

    def on_timer_fired(self, token: int) -> None:
        """The timeout fired and was acted on (retransmit or fail)."""
        self._settle(token, "fired")

    def _settle(self, token: int, state: str) -> None:
        entry = self._timers.get(token)
        if entry is None:
            self._violate(
                _sanity.TIMER_UNKNOWN,
                f"ARQ timer {token} settled but was never started",
                token=token,
            )
        if entry[1] != "pending":
            self._violate(
                _sanity.TIMER_DOUBLE_SETTLE,
                f"ARQ timer {token} settled twice ({entry[1]}, then {state})",
                token=token,
                first=entry[1],
                second=state,
            )
        entry[1] = state
        self.timers_settled += 1

    # -- DCRD (core/forwarding.py) --------------------------------------
    def on_table_solved(self, table: Any) -> None:
        """A raw solver output, as the strategy publishes it."""
        self.tables_checked += 1
        _sanity.check_sending_lists(table, self._violate)

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
        self, t: float, node: int, frame: Any, subscriber: int, action: str,
        fresh_transfer: int = -1,
    ) -> None:
        """The persistency store took custody of (or redelivered) a pair.

        ``action`` is ``"stored"`` when the strategy persisted the frame
        instead of giving the subscriber up, ``"redelivered"`` when a
        fresh copy (``fresh_transfer``) was forked from the stored frame
        for a retry; the fresh copy joins the parent lineage, so a
        redelivered pair's journey walks back through the storing broker
        to the original publish.
        """
        if action == "stored":
            self.custody.add((frame.msg_id, subscriber))
        if self._events is not None:
            info: Dict[str, Any] = {"subscriber": subscriber, "action": action}
            if fresh_transfer >= 0:
                info["fresh"] = fresh_transfer
            self._record(t, CUSTODY, frame.msg_id, frame.transfer_id, node, info=info)

    # -- ordering pipelines (ordering/pipeline.py) ----------------------
    def on_order_hold(self, t: float, node: int, frame: Any, level: str) -> None:
        """A delivery pipeline buffered a frame behind an ordering gap."""
        if self.sanitize:
            self.order.hold(node, frame, level)
        if self._events is not None:
            self._record(
                t, ORDER_HOLD, frame.msg_id, frame.transfer_id, node,
                info={"level": level},
            )

    def on_order_release(
        self, t: float, node: int, frame: Any, level: str, reason: str,
        held_for: float,
    ) -> None:
        """A pipeline released a frame to the terminal delivery stage;
        ``held`` (recorded only when the frame waited) is its hold-back
        latency."""
        if self.sanitize:
            self.order.release(node, frame, level, reason)
        if self._events is not None:
            info: Dict[str, Any] = {"level": level, "reason": reason}
            if held_for > 0.0:
                info["held"] = held_for
            self._record(
                t, ORDER_RELEASE, frame.msg_id, frame.transfer_id, node, info=info
            )

    def on_order_stall(self, t: float, node: int, level: str, info: Any) -> None:
        """The hold-back watchdog skipped a gap or flagged a straggler."""
        self.order.stalls += 1
        if self._events is not None:
            payload = {"level": level, **(info or {})}
            self._record(t, ORDER_STALL, -1, -1, node, info=payload)

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._events or ())

    def events_for(
        self, msg_id: Optional[int] = None, transfer_id: Optional[int] = None
    ) -> List[TraceEvent]:
        """Buffered events filtered by message and/or transfer id."""
        return [
            e
            for e in self._events or ()
            if (msg_id is None or e.msg == msg_id)
            and (transfer_id is None or e.transfer == transfer_id)
        ]

    def parent(self, transfer_id: int) -> int:
        """The transfer this copy was forked from (-1 for root copies)."""
        return self.parents.get(transfer_id, -1)

    def excerpt(self, frames: Tuple[Any, ...] = (), limit: int = 40) -> Tuple[str, ...]:
        """Formatted buffered lines about *frames* (newest ``limit``).

        With no frame to match (a violation that names none), the tail of
        the whole stream is returned instead — still the most useful
        context for "what just happened".
        """
        msgs = {getattr(f, "msg_id", None) for f in frames} - {None}
        transfers = {getattr(f, "transfer_id", None) for f in frames} - {None}
        selected = [
            e
            for e in self._events or ()
            if not (msgs or transfers) or e.msg in msgs or e.transfer in transfers
        ]
        return tuple(e.format() for e in selected[-limit:])

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finish(self, metrics: Any, now: float) -> None:
        """Run the end-of-drain checks; raises on the first violation.

        Orphan timers are only flagged when due by *now* (later ones were
        legitimately cut off by the end of the run). A partitioned record
        runs what is sound within one partition — timer settlement is
        purely local, and so is the prefix agreement between its own
        subscribers — and leaves conservation (and the cross-partition
        prefix comparison) to the coordinator's merged checks.
        """
        if not self.sanitize:
            return
        orphans = [
            (token, entry)
            for token, entry in self._timers.items()
            if entry[1] == "pending" and entry[0] <= now
        ]
        if orphans:
            token, (deadline, _, frame) = orphans[0]
            self._violate(
                _sanity.TIMER_ORPHAN,
                f"{len(orphans)} ARQ timer(s) due by t={now!r} were neither "
                f"cancelled nor fired (first: token {token}, due t={deadline!r})",
                (frame,) if frame is not None else (),
                orphans=len(orphans),
                first_token=token,
                first_deadline=deadline,
                now=now,
            )
        if not self.partitioned:
            self.check_conservation(
                (o.msg_id, o.subscriber, o.delivered, o.gave_up)
                for o in metrics.outcomes()
            )
        self.order.finish()

    def check_conservation(self, outcomes: Iterable[Tuple[int, int, bool, bool]]) -> None:
        """Conservation of *outcomes* — one ``(msg_id, subscriber,
        delivered, gave_up)`` row per expected pair — over the ledger."""
        self.pair_counts = _sanity.check_conservation(
            self.ledger.values(), self.custody, outcomes, self.losses_by_cause,
            self._violate,
        )

    def export_partition(self) -> Dict[str, Any]:
        """JSON-safe snapshot of this partition's ledger, for the merge."""
        return {
            "transfers": [
                [tid, e.msg_id, sorted(e.destinations), e.sent, e.delivered, e.lost, e.expired]
                for tid, e in sorted(self.ledger.items())
            ],
            "custody": sorted(list(pair) for pair in self.custody),
            "losses_by_cause": dict(self.losses_by_cause),
            "order_prefixes": self.order.export(),
        }

    def absorb(self, export: Dict[str, Any]) -> None:
        """Add one partition's :meth:`export_partition` to this ledger:
        a copy sent in one process and received in another contributes
        ``sent`` from the sender's export, ``delivered`` from the
        receiver's."""
        for tid, msg_id, dests, sent, delivered, lost, expired in export["transfers"]:
            entry = self.ledger.get(tid)
            if entry is None:
                entry = self.ledger[tid] = Transfer(msg_id, frozenset(dests))
            else:
                entry.destinations = frozenset(entry.destinations) | frozenset(dests)
            entry.sent += sent
            entry.delivered += delivered
            entry.lost += lost
            entry.expired += expired
        self.custody.update((msg, sub) for msg, sub in export.get("custody", ()))
        self.losses_by_cause.update(export.get("losses_by_cause", {}))
        for topic, node, rows in export.get("order_prefixes", ()):
            self.order.prefixes.setdefault(topic, {})[node] = [
                (tuple(row[:3]), row[3]) for row in rows
            ]

    def perf_counters(self) -> Dict[str, float]:
        """The ``sanity.*`` / ``trace.*`` entries of ``MetricsSummary.perf``."""
        perf: Dict[str, float] = {}
        if self.sanitize:
            perf.update(
                {
                    "sanity.events_checked": self.events_popped,
                    "sanity.frames_tracked": len(self.ledger),
                    "sanity.accepts_checked": self.accepts_checked,
                    "sanity.timers_started": self.timers_started,
                    "sanity.timers_settled": self.timers_settled,
                    "sanity.tables_checked": self.tables_checked,
                    "sanity.order_releases": self.order.releases,
                    "sanity.order_stalls": self.order.stalls,
                    "sanity.violations": self.violations,
                }
            )
            perf.update((f"sanity.pairs_{c}", n) for c, n in self.pair_counts.items())
        if self.trace:
            perf.update(
                {
                    "trace.events_recorded": self.events_recorded,
                    "trace.events_dropped": self.events_dropped,
                    "trace.sim_events": self.events_popped,
                    "trace.forks": len(self.parents),
                }
            )
            perf.update((f"trace.{kind}", n) for kind, n in self.kind_counts.items())
        return {name: float(value) for name, value in perf.items()}


def check_merged(
    partitions: Iterable[Dict[str, Any]],
    expected: Iterable[Tuple[int, int]],
    delivered: Iterable[Tuple[int, int]],
    gave_up: Iterable[Tuple[int, int]],
) -> Dict[str, int]:
    """The coordinator's fleet-wide checks over merged partition exports.

    Absorbs every partition's ledger into one record, re-runs the exact
    single-process conservation argument over the fleet's expected
    ``(msg_id, subscriber)`` pairs, then total-order prefix agreement
    across every partition's subscribers (each node's ready sequence
    lives wholly in the partition hosting it). Raises
    :class:`~repro.sanity.InvariantViolation` (with no excerpt: the
    merged record buffers no events); returns the itemised pair counts
    otherwise.
    """
    merged = RunRecord(sanitize=True)
    for part in partitions:
        merged.absorb(part)
    done, dropped = set(delivered), set(gave_up)
    merged.check_conservation(
        (msg, sub, (msg, sub) in done, (msg, sub) in dropped)
        for msg, sub in sorted(expected)
    )
    merged.order.finish()
    return dict(merged.pair_counts)
