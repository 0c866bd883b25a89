"""SimSanitizer: opt-in runtime invariant checking for the data plane.

Two consecutive performance PRs rewrote the kernel heap, the frame copy
helpers, and the ARQ hot paths; the correctness claims they must preserve
(Theorem 1 sending-list order, loop-free path-carried routing, at-most-once
delivery after dedup, exactly-once ACK-timer settlement, end-of-run frame
conservation) were only visible indirectly through aggregate metrics. This
module watches them *live*, sanitizer-style:

* The hook sites in :mod:`repro.sim.engine`, :mod:`repro.overlay.links`,
  :mod:`repro.pubsub.broker`, :mod:`repro.routing.arq` and
  :mod:`repro.core.forwarding` all go through the :mod:`repro.probes`
  bus — one compiled slot per event family, ``None`` when no observer
  subscribes it — so disabled runs (the default) stay bit-identical to
  the fast path, and the fingerprint suite keeps passing unchanged.
  A :class:`Sanitizer` is a plain bus observer: its ``on_<family>``
  handlers take the bus payloads as they are.
* When a :class:`Sanitizer` is attached (``ExperimentConfig.sanitize`` /
  CLI ``--sanitize``), every hook feeds a per-frame lifecycle ledger and a
  per-timer settlement table, and violations raise a structured
  :class:`InvariantViolation` *at the offending event*, carrying the frame
  trace that produced it.
* The sanitizer only **observes**: it consumes no randomness and schedules
  no events, so a sanitized run pops the exact event sequence of the
  unsanitized run (``tests/integration/test_fuzz_invariants.py`` pins
  this).

Checked invariants (fail-fast unless noted):

====================  ====================================================
kind                  meaning
====================  ====================================================
EVENT_ORDER           the kernel popped an event dated before ``now``
PATH_CYCLE            a frame re-entered a visited broker and the move was
                      not a legal DCRD upstream bounce
PATH_DESYNC           ``frame.path_set`` drifted from ``routing_path``
DUPLICATE_DELIVERY    one transfer id passed a broker's dedup twice
TIMER_UNKNOWN         an ARQ timer settled that was never started
TIMER_DOUBLE_SETTLE   an ARQ timer cancelled/fired more than once
TIMER_ORPHAN          a due ARQ timer never settled (end-of-run check)
TIMER_BEFORE_WIRE     an ARQ timer was armed to fire, or fired, before its
                      copy's last bit left its sender (finite-capacity
                      links: silence must not count while the copy is
                      still in its sender's own output queue)
SENDING_LIST_ORDER    a solved sending list violates Theorem 1 d/r order
CONSERVATION          published != delivered + dropped + expired +
                      stranded (end-of-run check, itemised)
ORDER_FIFO_GAP        a ``fifo`` pipeline ready-released out of
                      per-publisher sequence at one subscriber
ORDER_CAUSAL_PRECEDENCE  a ``causal`` ready release preceded a message it
                      causally depends on (own-stream gap or an
                      undelivered known-stream dependency)
ORDER_TOTAL_INVERSION a ``total`` ready release went backwards in the
                      agreed ``(ts, origin, seq)`` key order at one node
ORDER_TOTAL_PREFIX    two subscribers of one topic ready-released their
                      *common* messages in different orders or under
                      different agreement keys (end-of-run check; holes
                      from stalls/give-ups are legitimate)
ORDER_HOLD_LEAK       a hold-back pipeline buffered a frame and never
                      released it — a silently swallowed delivery
                      (end-of-run check, after the runners' flush)
ORDER_KEY_BEHIND_CLOCK  a ``total`` tag's key time (``ts`` microseconds)
                      lies more than 1 us before its frame's publish
                      time — a key that does not follow time, so an idle
                      publisher sorts into the agreed past (checked when
                      a pipeline first holds or releases the frame)
====================  ====================================================

The ordering checks consume the ``order_release`` probe family emitted by
the delivery pipelines (:mod:`repro.ordering.pipeline`). Only
``reason == "ready"`` releases are held to the guarantee; ``stall`` and
``flush`` releases re-baseline the per-node expectation instead — the
watchdog explicitly took those frames out of the guaranteed flow.

The end-of-run checks run in :meth:`Sanitizer.finish`; totals surface as
``sanity.*`` perf counters through ``MetricsSummary.perf``.

No protocol layer imports this module: a composition root
(:class:`repro.stack.observed`) attaches the sanitizer for a run. Its
teeth are shown from outside — ``tests/mutations.py`` patches the one
production method each fault corrupts, and the mutation suites assert
the matching violation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import probes as _probes
from repro import trace as _trace
from repro.core.sending_list import theorem1_key
from repro.util.errors import ReproError

# Violation kinds.
EVENT_ORDER = "event_order"
PATH_CYCLE = "path_cycle"
PATH_DESYNC = "path_desync"
DUPLICATE_DELIVERY = "duplicate_delivery"
TIMER_UNKNOWN = "timer_unknown"
TIMER_DOUBLE_SETTLE = "timer_double_settle"
TIMER_ORPHAN = "timer_orphan"
TIMER_BEFORE_WIRE = "timer_before_wire"
SENDING_LIST_ORDER = "sending_list_order"
CONSERVATION = "conservation"
ORDER_FIFO_GAP = "order_fifo_gap"
ORDER_CAUSAL_PRECEDENCE = "order_causal_precedence"
ORDER_TOTAL_INVERSION = "order_total_inversion"
ORDER_TOTAL_PREFIX = "order_total_prefix"
ORDER_HOLD_LEAK = "order_hold_leak"
ORDER_KEY_BEHIND_CLOCK = "order_key_behind_clock"

# Timer settlement states.
_PENDING = 0
_CANCELLED = 1
_FIRED = 2
_STATE_NAMES = {_PENDING: "pending", _CANCELLED: "cancelled", _FIRED: "fired"}

#: One expected pair's end state: ``(msg_id, subscriber, delivered, gave_up)``.
_Outcome = Tuple[int, int, bool, bool]


class InvariantViolation(ReproError):
    """A runtime invariant failed; carries the offending frame trace.

    Attributes
    ----------
    kind:
        One of the module-level kind constants (``EVENT_ORDER``, ...).
    details:
        Structured facts about the violation (times, nodes, counts, ...).
    frames:
        The frame(s) involved, when the invariant concerns frames.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        frames: Tuple[Any, ...] = (),
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.details = details or {}
        self.frames = frames
        # When a FrameTracer is on the bus alongside the sanitizer, snapshot
        # the offending frames' lifecycle excerpt at raise time (the tracer
        # ring buffer keeps rotating afterwards).
        self.trace_excerpt: Tuple[str, ...] = ()
        for observer in _probes.observers():
            if isinstance(observer, _trace.FrameTracer):
                self.trace_excerpt = observer.excerpt(frames=frames)
                break
        super().__init__(f"[{kind}] {message}")

    def report(self) -> str:
        """Multi-line human-readable report (see docs/TESTING.md)."""
        lines = [f"InvariantViolation: {self.args[0]}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]!r}")
        for frame in self.frames:
            lines.append(f"  frame: {_describe_frame(frame)}")
        if self.trace_excerpt:
            lines.append("  trace excerpt:")
            for line in self.trace_excerpt:
                lines.append(f"    {line}")
        return "\n".join(lines)


def _describe_frame(frame: Any) -> str:
    tid = getattr(frame, "transfer_id", None)
    if tid is None:
        return repr(frame)
    return (
        f"transfer={tid} msg={frame.msg_id} topic={frame.topic} "
        f"origin={frame.origin} dests={sorted(frame.destinations)} "
        f"path={frame.routing_path}"
    )


class _TransferRecord:
    """Link-level lifecycle counters of one transfer (= one frame copy)."""

    __slots__ = (
        "msg_id",
        "destinations",
        "sent",
        "delivered",
        "lost",
        "expired",
        "wire_clear",
        "armed",
    )

    def __init__(self, msg_id: int, destinations: Any) -> None:
        self.msg_id = msg_id
        self.destinations = destinations
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.expired = 0
        # Of the copy handed over last, whichever came first: the instant
        # the link said its last bit leaves the sender, or the deadline of
        # the ACK timer armed for it (TIMER_BEFORE_WIRE compares the two).
        self.wire_clear: Optional[float] = None
        self.armed: Optional[float] = None

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.lost - self.expired


class Sanitizer(_probes.ProbeObserver):
    """Live invariant checker, a :mod:`repro.probes` bus observer.

    All hooks are observation-only (no RNG draws, no scheduling), so an
    enabled run executes the identical event sequence as a disabled one.
    State grows with the run (one record per transfer, one per ARQ timer);
    the class is meant for tests and debugging sessions, not for the
    full-scale benchmark sweeps.

    ``partitioned=True`` adapts the checker to one process of a
    multi-process live deployment, where a node observes only its own
    partition's events: a frame transmitted by a *remote* broker
    legitimately arrives here without a local ``transmit`` record, so the
    unknown-arrival and over-settle conservation checks are relaxed (a
    record is opened on first sight instead). The per-partition ledgers
    are exported via :meth:`export_partition` and the full conservation
    argument is re-run over the merged fleet by
    :func:`check_merged_conservation` at the coordinator.
    """

    def __init__(self, partitioned: bool = False) -> None:
        #: Whether this sanitizer sees only one partition of the fleet.
        self.partitioned = partitioned
        # Aggregate counters surfaced as sanity.* perf entries.
        self.events_checked = 0
        self.timers_started = 0
        self.timers_settled = 0
        self.tables_checked = 0
        self.accepts_checked = 0
        self.violations = 0
        # transfer_id -> lifecycle record.
        self._transfers: Dict[int, _TransferRecord] = {}
        # Loss itemisation across all transfers, by cause.
        self.losses_by_cause: Dict[str, int] = {}
        # ARQ timer token (kernel event seq) -> [deadline, state].
        self._timers: Dict[int, List[Any]] = {}
        # (node, transfer_id) pairs that passed a broker's dedup filter.
        self._accepted: Set[Tuple[int, int]] = set()
        # (msg_id, subscriber) pairs a strategy took into explicit custody
        # (e.g. the persistency store) instead of giving up on.
        self._custody: Set[Tuple[int, int]] = set()
        # Ordering-guarantee state (fed by the order_hold/order_release
        # families).
        self.order_releases = 0
        self.order_stalls = 0
        # (node, msg) pairs currently buffered by a hold-back pipeline;
        # anything still here after the end-of-run flush is a release
        # that was silently swallowed (ORDER_HOLD_LEAK).
        self._order_held: Dict[Tuple[int, int], Any] = {}
        # (node, topic, origin) -> next expected fifo sequence.
        self._order_fifo_next: Dict[Tuple[int, int, int], int] = {}
        # node -> {(topic, origin) stream: last delivered seq} (causal).
        self._order_causal: Dict[int, Dict[Tuple[int, int], int]] = {}
        # (node, topic) -> last ready-released total-order key.
        self._order_total_last: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        # topic -> node -> ready-released (total-order key, msg) sequence.
        self._order_prefix: Dict[
            int, Dict[int, List[Tuple[Tuple[int, int, int], int]]]
        ] = {}
        # End-of-run conservation partition, filled by finish().
        self.pair_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _violate(
        self,
        kind: str,
        message: str,
        frames: Tuple[Any, ...] = (),
        **details: Any,
    ) -> None:
        self.violations += 1
        raise InvariantViolation(kind, message, frames=frames, details=details)

    # ------------------------------------------------------------------
    # Kernel (sim/engine.py)
    # ------------------------------------------------------------------
    def on_event_pop(self, time: float, now: float) -> None:
        """The kernel is about to execute an event dated *time*."""
        self.events_checked += 1
        if time < now:
            self._violate(
                EVENT_ORDER,
                f"event dated t={time!r} popped at now={now!r}",
                time=time,
                now=now,
            )

    # ------------------------------------------------------------------
    # Overlay links (overlay/links.py)
    # ------------------------------------------------------------------
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
        """A DATA frame was handed to the (src, dst) link direction."""
        transfer_id = getattr(frame, "transfer_id", None)
        if transfer_id is None:
            return  # tests transmit bare objects; nothing to track
        record = self._transfers.get(transfer_id)
        if record is None:
            record = _TransferRecord(frame.msg_id, frame.destinations)
            self._transfers[transfer_id] = record
        record.sent += 1
        record.wire_clear = record.armed = None  # a new copy, a new clock
        if not survived:
            record.lost += 1
            cause = cause or "unknown"
            self.losses_by_cause[cause] = self.losses_by_cause.get(cause, 0) + 1

    def on_arrive(self, t: float, src: int, dst: int, frame: Any) -> None:
        """A DATA frame reached its receiver's handler."""
        transfer_id = getattr(frame, "transfer_id", None)
        if transfer_id is None:
            return
        record = self._transfers.get(transfer_id)
        if record is None:
            if not self.partitioned:
                self._violate(
                    CONSERVATION,
                    f"transfer {transfer_id} delivered but never transmitted",
                    frames=(frame,),
                    transfer_id=transfer_id,
                )
            # Partitioned mode: the transmit happened in another process;
            # open the record so the merged fleet-wide tally still sees
            # the arrival (sent stays 0 here, >0 at the sender's export).
            record = _TransferRecord(frame.msg_id, frame.destinations)
            self._transfers[transfer_id] = record
        record.delivered += 1
        if not self.partitioned and (
            record.delivered + record.lost + record.expired > record.sent
        ):
            self._violate(
                CONSERVATION,
                f"transfer {transfer_id} settled more often than it was sent",
                frames=(frame,),
                sent=record.sent,
                delivered=record.delivered,
                lost=record.lost,
                expired=record.expired,
            )

    def on_arrival_drop(
        self, t: float, src: int, dst: int, frame: Any, cause: str
    ) -> None:
        """A DATA frame was dropped after transmission (arrival hazards)."""
        transfer_id = getattr(frame, "transfer_id", None)
        if transfer_id is None:
            return
        record = self._transfers.get(transfer_id)
        if record is not None:
            record.lost += 1
        self.losses_by_cause[cause] = self.losses_by_cause.get(cause, 0) + 1

    def on_expire(self, t: float, src: int, dst: int, frame: Any) -> None:
        """The EDF overload policy discarded a queued DATA frame."""
        transfer_id = getattr(frame, "transfer_id", None)
        if transfer_id is None:
            return
        record = self._transfers.get(transfer_id)
        if record is not None:
            record.expired += 1
        self.losses_by_cause["edf_expired"] = (
            self.losses_by_cause.get("edf_expired", 0) + 1
        )

    def on_wire(
        self, t: float, src: int, dst: int, frame: Any, wait: Optional[float]
    ) -> None:
        """The link reported when a copy's last bit leaves its sender."""
        record = self._transfers.get(getattr(frame, "transfer_id", None))
        if record is None or wait is None:
            return
        clear = t + wait
        if record.armed is None:
            record.wire_clear = clear  # the timer is yet to be armed
        elif record.armed < clear:
            self._timer_before_wire(frame, record.armed, clear)

    def _timer_before_wire(self, frame: Any, deadline: float, clear: float) -> None:
        self._violate(
            TIMER_BEFORE_WIRE,
            f"ARQ timer of transfer {frame.transfer_id} is due t={deadline!r}, "
            f"before the copy's last bit leaves its sender at t={clear!r}",
            frames=(frame,),
            deadline=deadline,
            wire_clear=clear,
        )

    # ------------------------------------------------------------------
    # Broker runtime (pubsub/broker.py)
    # ------------------------------------------------------------------
    def on_broker_accept(self, node: int, sender: int, frame: Any) -> None:
        """A DATA frame from *sender* passed broker *node*'s dedup.

        Loop freedom: the routing path may legitimately revisit brokers —
        DCRD *bounces* stuck copies back upstream (§III, Algorithm 2 lines
        10–12) — but a revisit is only legal when *node* is exactly the
        upstream the sender read from its carried path. Any other arrival
        at an already-visited broker is a forwarding loop.
        """
        self.accepts_checked += 1
        path = frame.routing_path
        if frozenset(path) != frame.path_set:
            self._violate(
                PATH_DESYNC,
                f"frame at broker {node} has path_set out of sync with "
                f"routing_path={path}",
                frames=(frame,),
                node=node,
                routing_path=path,
                path_set=sorted(frame.path_set),
            )
        if path and path[-1] != sender:
            self._violate(
                PATH_DESYNC,
                f"frame arrived at broker {node} from {sender} but its "
                f"routing path ends in {path[-1]}",
                frames=(frame,),
                node=node,
                sender=sender,
                routing_path=path,
            )
        if node in frame.path_set:
            # The path the sender's task held is everything before the
            # sender's own appended entry; its upstream is the entry just
            # before the sender's first appearance there (or the last
            # sender when it had not forwarded this copy before) — the
            # exact rule of PacketFrame.upstream_of.
            prefix = path[:-1]
            if sender in prefix:
                index = prefix.index(sender)
                expected = prefix[index - 1] if index > 0 else -1
            else:
                expected = prefix[-1] if prefix else -1
            if node != expected:
                self._violate(
                    PATH_CYCLE,
                    f"frame re-entered already-visited broker {node} from "
                    f"{sender} (not a legal upstream bounce, which would "
                    f"go to {expected}): path={path}",
                    frames=(frame,),
                    node=node,
                    sender=sender,
                    routing_path=path,
                )
        key = (node, frame.transfer_id)
        if key in self._accepted:
            self._violate(
                DUPLICATE_DELIVERY,
                f"transfer {frame.transfer_id} passed dedup twice at "
                f"broker {node}",
                frames=(frame,),
                node=node,
                transfer_id=frame.transfer_id,
            )
        self._accepted.add(key)

    # ------------------------------------------------------------------
    # ARQ (routing/arq.py)
    # ------------------------------------------------------------------
    def on_timer_started(
        self, token: int, deadline: float, frame: Any = None
    ) -> None:
        """An ACK-timeout event was pushed into the calendar queue.

        ``frame`` (the outstanding copy the timer guards) is optional and
        only used to attach a trace excerpt to orphan-timer violations.
        """
        self.timers_started += 1
        self._timers[token] = [deadline, _PENDING, frame]
        record = self._transfers.get(getattr(frame, "transfer_id", None))
        if record is None:
            return
        if record.wire_clear is None:
            record.armed = deadline  # the link may still report (EDF)
        elif deadline < record.wire_clear:
            self._timer_before_wire(frame, deadline, record.wire_clear)

    def on_timer_cancelled(self, token: int) -> None:
        """The ACK arrived first; the timer was cancelled."""
        self._settle(token, _CANCELLED)

    def on_timer_fired(self, token: int) -> None:
        """The timeout fired and was acted on (retransmit or fail)."""
        self._settle(token, _FIRED)

    def _settle(self, token: int, state: int) -> None:
        entry = self._timers.get(token)
        if entry is None:
            self._violate(
                TIMER_UNKNOWN,
                f"ARQ timer {token} settled but was never started",
                token=token,
            )
        if entry[1] != _PENDING:
            self._violate(
                TIMER_DOUBLE_SETTLE,
                f"ARQ timer {token} settled twice "
                f"({_STATE_NAMES[entry[1]]}, then {_STATE_NAMES[state]})",
                token=token,
                first=_STATE_NAMES[entry[1]],
                second=_STATE_NAMES[state],
            )
        entry[1] = state
        self.timers_settled += 1

    # ------------------------------------------------------------------
    # DCRD control plane (core/forwarding.py)
    # ------------------------------------------------------------------
    def on_table_solved(self, table: Any) -> None:
        """Every sending list must be in Theorem-1 ``d/r`` order.

        Called on every raw solver output as the strategy publishes it —
        deliberately *before* post-processing ablations like the
        naive-order strategy reorder their copies, which are allowed to
        violate Theorem 1 by design.
        """
        self.tables_checked += 1
        for node, state in table.states.items():
            previous = None
            for via in state.sending_list:
                key = (theorem1_key(via.d_via, via.r_via), via.neighbor)
                if previous is not None and key < previous:
                    self._violate(
                        SENDING_LIST_ORDER,
                        f"sending list of broker {node} for pair "
                        f"({table.publisher} -> {table.subscriber}) is out "
                        f"of Theorem-1 d/r order",
                        node=node,
                        publisher=table.publisher,
                        subscriber=table.subscriber,
                        sending_list=[
                            (v.neighbor, v.d_via, v.r_via)
                            for v in state.sending_list
                        ],
                    )
                previous = key

    # ------------------------------------------------------------------
    # Ordering pipelines (ordering/pipeline.py)
    # ------------------------------------------------------------------
    def on_order_hold(
        self, t: float, node: int, frame: Any, level: str
    ) -> None:
        """A delivery pipeline buffered *frame* at *node*."""
        self._order_held[(node, frame.msg_id)] = frame
        if level == "total":
            self._check_order_key_clock(node, frame, frame.order_tag)

    def on_order_release(
        self,
        t: float,
        node: int,
        frame: Any,
        level: str,
        reason: str,
        held_for: float,
    ) -> None:
        """A delivery pipeline released *frame* at *node*."""
        self.order_releases += 1
        held = self._order_held.pop((node, frame.msg_id), None)
        tag = getattr(frame, "order_tag", None)
        if tag is None:
            return
        if level == "fifo":
            self._check_order_fifo(node, frame, tag, reason)
        elif level == "causal":
            self._check_order_causal(node, frame, tag, reason)
        elif level == "total":
            if held is None:
                # Never held: this release is the first sight of the frame.
                self._check_order_key_clock(node, frame, tag)
            self._check_order_total(node, frame, tag, reason)

    def on_order_stall(
        self, t: float, node: int, level: str, info: Any
    ) -> None:
        self.order_stalls += 1

    def _check_order_fifo(
        self, node: int, frame: Any, tag: Any, reason: str
    ) -> None:
        """Gap-freedom: ready releases walk the publisher sequence 1-by-1.

        The first release of a stream at a node adopts its sequence as
        the baseline (mid-stream joiners own no history); ``stall`` and
        ``flush`` releases re-baseline instead of being checked.
        """
        key = (node, frame.topic, tag.origin)
        expected = self._order_fifo_next.get(key)
        if reason == "ready":
            if expected is not None and tag.seq != expected:
                self._violate(
                    ORDER_FIFO_GAP,
                    f"fifo release at broker {node} jumped to seq {tag.seq} "
                    f"of stream (topic={frame.topic}, origin={tag.origin}); "
                    f"expected seq {expected}",
                    frames=(frame,),
                    node=node,
                    topic=frame.topic,
                    origin=tag.origin,
                    seq=tag.seq,
                    expected=expected,
                )
            self._order_fifo_next[key] = tag.seq + 1
        elif expected is None or tag.seq + 1 > expected:
            self._order_fifo_next[key] = tag.seq + 1

    def _check_order_causal(
        self, node: int, frame: Any, tag: Any, reason: str
    ) -> None:
        """Precedence-respected: no ready release before its causes.

        Mirrors the pipeline's dynamic-join semantics exactly: a
        dependency on a stream this node has never delivered from is
        waived, and the first release of a stream adopts the baseline.
        """
        stream = (frame.topic, tag.origin)
        delivered = self._order_causal.setdefault(node, {})
        have = delivered.get(stream)
        if reason == "ready":
            if have is not None and tag.seq != have + 1:
                self._violate(
                    ORDER_CAUSAL_PRECEDENCE,
                    f"causal release at broker {node} delivered seq "
                    f"{tag.seq} of stream (topic={frame.topic}, "
                    f"origin={tag.origin}) after seq {have}",
                    frames=(frame,),
                    node=node,
                    topic=frame.topic,
                    origin=tag.origin,
                    seq=tag.seq,
                    last_delivered=have,
                )
            if tag.vc:
                for dep, need in tag.vc.items():
                    if dep == stream:
                        continue
                    seen = delivered.get(dep)
                    if seen is not None and seen < need:
                        self._violate(
                            ORDER_CAUSAL_PRECEDENCE,
                            f"causal release at broker {node} depends on "
                            f"seq {need} of stream {dep} but only "
                            f"{seen} was delivered",
                            frames=(frame,),
                            node=node,
                            dependency_stream=dep,
                            needed=need,
                            seen=seen,
                        )
        if have is None or tag.seq > have:
            delivered[stream] = tag.seq

    def _check_order_key_clock(self, node: int, frame: Any, tag: Any) -> None:
        """Keys follow time: ``tag.ts`` microseconds is never more than
        1 us behind the publish instant (it may run ahead — the hybrid
        clock's logical part — but a key in the past re-opens prefixes
        the subscribers already agreed on)."""
        if tag.ts + 1 < frame.publish_time * 1e6:
            self._violate(
                ORDER_KEY_BEHIND_CLOCK,
                f"total-order key of msg {frame.msg_id} (origin "
                f"{tag.origin}) reads {tag.ts} us but the frame was "
                f"published at {frame.publish_time:.6f} s",
                frames=(frame,),
                node=node,
                msg=frame.msg_id,
                origin=tag.origin,
                ts=tag.ts,
                publish_time=frame.publish_time,
            )

    def _check_order_total(
        self, node: int, frame: Any, tag: Any, reason: str
    ) -> None:
        """Agreed-sequence monotonicity plus the per-topic prefix ledger.

        ``stall``/``flush`` releases left the agreed order on purpose;
        they neither advance the node's key watermark nor enter its
        prefix — the end-of-run prefix comparison is over ready releases
        only.
        """
        if reason != "ready":
            return
        key = (tag.ts, tag.origin, tag.seq)
        watermark = (node, frame.topic)
        last = self._order_total_last.get(watermark)
        if last is not None and key <= last:
            self._violate(
                ORDER_TOTAL_INVERSION,
                f"total-order release at broker {node} went backwards: "
                f"key {key} after {last} on topic {frame.topic}",
                frames=(frame,),
                node=node,
                topic=frame.topic,
                key=key,
                previous=last,
            )
        self._order_total_last[watermark] = key
        self._order_prefix.setdefault(frame.topic, {}).setdefault(
            node, []
        ).append((key, frame.msg_id))

    def _check_order_prefixes(self) -> None:
        """Subscribers agree on order and keys of common ready releases."""
        _compare_prefix_map(self._order_prefix, self._violate)

    def _check_order_hold_leaks(self) -> None:
        """Hold/release pairing: runners flush pipelines before the
        end-of-run checks, so every buffered frame must have released by
        now (``ready``, ``stall`` or ``flush``) — a leftover hold is a
        delivery the pipeline silently swallowed."""
        if self._order_held:
            (node, msg), frame = sorted(self._order_held.items())[0]
            self._violate(
                ORDER_HOLD_LEAK,
                f"{len(self._order_held)} hold-back frame(s) were never "
                f"released; first: msg {msg} held at broker {node}",
                frames=(frame,),
                leaked=len(self._order_held),
                node=node,
                msg=msg,
            )

    # ------------------------------------------------------------------
    # Strategy custody (extensions/persistence.py)
    # ------------------------------------------------------------------
    def on_custody(
        self,
        t: float,
        node: int,
        frame: Any,
        subscriber: int,
        action: str,
        fresh_transfer: int = -1,
    ) -> None:
        """A strategy persisted (msg, subscriber) instead of giving up
        (``stored``); a redelivery's fresh copy is tracked as a transfer."""
        if action == "stored":
            self._custody.add((frame.msg_id, subscriber))

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finish(self, metrics: Any, now: float) -> None:
        """Run the end-of-drain checks; raises on the first violation.

        Parameters
        ----------
        metrics:
            The run's :class:`~repro.metrics.collector.MetricsCollector`.
        now:
            Final virtual time (orphan timers are only flagged when their
            deadline is in the executed past — later ones were legitimately
            cut off by the end of the run).
        """
        self._check_timer_orphans(now)
        self._check_conservation(
            (o.msg_id, o.subscriber, o.delivered, o.gave_up)
            for o in metrics.outcomes()
        )
        self._check_order_prefixes()
        self._check_order_hold_leaks()

    def finish_partition(self, now: float) -> None:
        """End-of-run checks that are sound within one partition.

        Timer settlement is purely local (every ARQ timer starts and
        settles in the process that armed it), so the orphan check runs
        here, as does the total-order prefix agreement between this
        partition's own subscribers; conservation (and the cross-
        partition prefix comparison) needs the whole fleet's ledgers and
        is deferred to :func:`check_merged_conservation` /
        :func:`check_merged_order_prefixes` at the coordinator.
        """
        self._check_timer_orphans(now)
        self._check_order_prefixes()
        self._check_order_hold_leaks()

    def export_partition(self) -> Dict[str, Any]:
        """JSON-safe snapshot of this partition's conservation ledgers.

        The coordinator sums these across processes (transfer records by
        ``transfer_id``, custody pairs, loss itemisation) and re-runs the
        full conservation argument via :func:`check_merged_conservation`.
        """
        return {
            "transfers": [
                [
                    tid,
                    record.msg_id,
                    sorted(record.destinations),
                    record.sent,
                    record.delivered,
                    record.lost,
                    record.expired,
                ]
                for tid, record in sorted(self._transfers.items())
            ],
            "custody": sorted(list(pair) for pair in self._custody),
            "losses_by_cause": dict(self.losses_by_cause),
            # Ready-release total-order sequences, flattened to
            # [ts, origin, seq, msg] rows so the snapshot survives a
            # JSON control-channel round trip.
            "order_prefixes": [
                [topic, node, [[*key, msg] for key, msg in entries]]
                for topic, by_node in sorted(self._order_prefix.items())
                for node, entries in sorted(by_node.items())
            ],
        }

    def _check_timer_orphans(self, now: float) -> None:
        orphans = [
            (token, entry[0])
            for token, entry in self._timers.items()
            if entry[1] == _PENDING and entry[0] <= now
        ]
        if orphans:
            token, deadline = orphans[0]
            frame = self._timers[token][2]
            self._violate(
                TIMER_ORPHAN,
                f"{len(orphans)} ARQ timer(s) due by t={now!r} were neither "
                f"cancelled nor fired (first: token {token}, due "
                f"t={deadline!r})",
                frames=(frame,) if frame is not None else (),
                orphans=len(orphans),
                first_token=token,
                first_deadline=deadline,
                now=now,
            )

    def _check_conservation(self, outcomes: Iterable[_Outcome]) -> None:
        """published = delivered + dropped + expired + stranded, itemised.

        *outcomes* holds one ``(msg_id, subscriber, delivered, gave_up)``
        row per expected pair. Every such pair must end the run in a
        provable state: delivered, given up (dropped), or stranded with a
        link-level explanation — a carrying copy lost, expired, still in
        flight, delivered-but-unusable at a broker (e.g. an undecodable
        FEC fragment subset), or in explicit strategy custody. A pair
        *no copy ever carried* and no strategy accounted for is leaked
        protocol state.
        """
        by_msg: Dict[int, List[_TransferRecord]] = {}
        for record in self._transfers.values():
            by_msg.setdefault(record.msg_id, []).append(record)

        counts = {
            "delivered": 0,
            "dropped": 0,
            "expired": 0,
            "stranded_in_flight": 0,
            "stranded_lost": 0,
            "stranded_arrived": 0,
            "stranded_custody": 0,
            "leaked": 0,
        }
        leaked: List[Tuple[int, int]] = []
        for outcome in outcomes:
            counts[self._classify(outcome, by_msg, leaked)] += 1
        self.pair_counts = counts
        if counts["leaked"]:
            self._violate(
                CONSERVATION,
                f"{counts['leaked']} expected pair(s) vanished: never "
                f"given up, never carried by any transmitted copy "
                f"(first: msg {leaked[0][0]} -> subscriber {leaked[0][1]})",
                pair_counts=dict(counts),
                leaked_pairs=leaked[:10],
                losses_by_cause=dict(self.losses_by_cause),
            )

    def _classify(
        self,
        outcome: _Outcome,
        by_msg: Dict[int, List[_TransferRecord]],
        leaked: List[Tuple[int, int]],
    ) -> str:
        msg_id, subscriber, delivered, gave_up = outcome
        if delivered:
            return "delivered"
        if gave_up:
            return "dropped"
        pair = (msg_id, subscriber)
        if pair in self._custody:
            return "stranded_custody"
        in_flight = lost = expired = carried = 0
        for record in by_msg.get(msg_id, ()):
            if subscriber not in record.destinations:
                continue
            carried += 1
            in_flight += record.in_flight
            lost += record.lost
            expired += record.expired
        if in_flight:
            return "stranded_in_flight"
        if expired:
            return "expired"
        if lost:
            return "stranded_lost"
        if carried:
            # Every carrying copy arrived somewhere, yet the pair was not
            # delivered: the copies stopped being useful at a broker (an
            # undecodable FEC fragment subset, a dedup-suppressed bounce).
            return "stranded_arrived"
        leaked.append(pair)
        return "leaked"

    # ------------------------------------------------------------------
    def perf_counters(self) -> Dict[str, float]:
        """The ``sanity.*`` entries merged into ``MetricsSummary.perf``."""
        perf = {
            "sanity.events_checked": float(self.events_checked),
            "sanity.frames_tracked": float(len(self._transfers)),
            "sanity.accepts_checked": float(self.accepts_checked),
            "sanity.timers_started": float(self.timers_started),
            "sanity.timers_settled": float(self.timers_settled),
            "sanity.tables_checked": float(self.tables_checked),
            "sanity.order_releases": float(self.order_releases),
            "sanity.order_stalls": float(self.order_stalls),
            "sanity.violations": float(self.violations),
        }
        for category, count in self.pair_counts.items():
            perf[f"sanity.pairs_{category}"] = float(count)
        return perf


def check_merged_conservation(
    partitions: Any,
    expected: Any,
    delivered: Any,
    gave_up: Any,
) -> Dict[str, int]:
    """Fleet-wide conservation over merged per-partition sanitizer exports.

    Each partition of a multi-process run ships its
    :meth:`Sanitizer.export_partition` snapshot to the coordinator; this
    helper sums the transfer lifecycles by ``transfer_id`` (a frame sent
    in one process and received in another contributes ``sent`` from the
    sender's ledger and ``delivered`` from the receiver's), merges the
    custody pairs and loss itemisation, and re-runs the exact
    single-process conservation argument over the fleet's expected
    ``(msg_id, subscriber)`` pairs. Raises :class:`InvariantViolation`
    on a leak; returns the itemised pair counts otherwise.
    """
    merged = Sanitizer()
    for part in partitions:
        for tid, msg_id, dests, sent, deliv, lost, expired in part["transfers"]:
            record = merged._transfers.get(tid)
            if record is None:
                record = _TransferRecord(msg_id, frozenset(dests))
                merged._transfers[tid] = record
            else:
                record.destinations = frozenset(record.destinations) | frozenset(
                    dests
                )
            record.sent += sent
            record.delivered += deliv
            record.lost += lost
            record.expired += expired
        for msg_id, subscriber in part.get("custody", ()):
            merged._custody.add((msg_id, subscriber))
        for cause, count in part.get("losses_by_cause", {}).items():
            merged.losses_by_cause[cause] = (
                merged.losses_by_cause.get(cause, 0) + count
            )
    delivered_set = set(delivered)
    gave_up_set = set(gave_up)
    merged._check_conservation(
        (
            msg_id,
            subscriber,
            (msg_id, subscriber) in delivered_set,
            (msg_id, subscriber) in gave_up_set,
        )
        for msg_id, subscriber in sorted(expected)
    )
    return dict(merged.pair_counts)


def _compare_prefix_map(
    prefix_map: Dict[int, Dict[int, List[Tuple[Tuple[int, int, int], int]]]],
    violate: Any,
) -> None:
    """Pairwise agreement over per-node ready ``(key, msg)`` sequences.

    Restricted to the messages *both* subscribers ready-released: holes
    are legitimate (a stall-released straggler, a given-up pair, an
    end-of-run cutoff never enter a node's ready sequence — and a
    silently swallowed delivery is frame *conservation*'s job to catch),
    but the common messages must carry identical agreement keys and
    appear in the identical relative order on every subscriber.
    """
    for topic, by_node in sorted(prefix_map.items()):
        nodes = sorted(by_node)
        for index, first in enumerate(nodes):
            for second in nodes[index + 1 :]:
                shared = {msg for _, msg in by_node[first]} & {
                    msg for _, msg in by_node[second]
                }
                left = [e for e in by_node[first] if e[1] in shared]
                right = [e for e in by_node[second] if e[1] in shared]
                for position, (a, b) in enumerate(zip(left, right)):
                    if a != b:
                        violate(
                            ORDER_TOTAL_PREFIX,
                            f"total-order sequences diverge on topic "
                            f"{topic}: broker {first} released "
                            f"key={a[0]} msg={a[1]} at common position "
                            f"{position} while broker {second} released "
                            f"key={b[0]} msg={b[1]}",
                            topic=topic,
                            nodes=(first, second),
                            position=position,
                            keys=(a, b),
                        )


def check_merged_order_prefixes(partitions: Any) -> None:
    """Fleet-wide total-order prefix agreement at the coordinator.

    Merges the per-partition ``order_prefixes`` exports (each node's
    ready-release sequence lives wholly in the partition hosting it)
    and re-runs the pairwise common-message comparison across the whole
    fleet. Raises :class:`InvariantViolation` on divergence.
    """
    merged: Dict[int, Dict[int, List[Tuple[Tuple[int, int, int], int]]]] = {}
    for part in partitions:
        for topic, node, rows in part.get("order_prefixes", ()):
            merged.setdefault(topic, {})[node] = [
                (tuple(row[:3]), row[3]) for row in rows
            ]

    def violate(kind: str, message: str, **details: Any) -> None:
        raise InvariantViolation(kind, message, details=details)

    _compare_prefix_map(merged, violate)
