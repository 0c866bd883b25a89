"""Invariant checks for the data plane: the rules the run record enforces.

The correctness claims the kernel heap, the frame copy helpers and the
ARQ hot paths must preserve (Theorem 1 sending-list order, loop-free
path-carried routing, at-most-once delivery after dedup, exactly-once
ACK-timer settlement, end-of-run frame conservation, the ordering
guarantees) are checked *live* by :class:`repro.record.RunRecord` in its
``sanitize`` mode (``ExperimentConfig.sanitize`` / CLI ``--sanitize``).
The record keeps the ledgers and calls the checks of this module on
them; a check that fails calls the ``violate`` callback it was handed,
which raises a structured :class:`InvariantViolation` *at the offending
event*. The record's callback attaches its own trace excerpt when it
also traces; the coordinator's fleet-wide checks
(:func:`repro.record.check_merged`) run on a record that buffers no
events, so they raise without one.

Checked invariants (fail-fast unless noted):

====================  ====================================================
kind                  meaning
====================  ====================================================
EVENT_ORDER           the kernel popped an event dated before ``now``
PATH_CYCLE            a frame re-entered a visited broker and the move was
                      not a legal DCRD upstream bounce
PATH_DESYNC           a frame's ``routing_path`` does not end in the
                      broker it arrived from
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

No protocol layer imports this module. Its teeth are shown from outside:
``tests/mutations.py`` patches the one production method each fault
corrupts, and the mutation suites assert the matching violation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

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

#: ``violate(kind, message, frames=(), **details)``: raises, never returns.
Violate = Callable[..., None]

#: One ready release in a node's total-order sequence: ``(key, msg)``.
_Ready = Tuple[Tuple[int, int, int], int]


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
    trace_excerpt:
        The offending frames' lifecycle lines, snapshot at raise time
        from the record that raised it when that record also traces
        (its ring keeps rotating afterwards); empty otherwise.
    """

    def __init__(
        self, kind: str, message: str, frames: Tuple[Any, ...] = (),
        details: Optional[Dict[str, Any]] = None, excerpt: Tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.details = details or {}
        self.frames = frames
        self.trace_excerpt = excerpt
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


def check_accept(
    node: int, sender: int, frame: Any, accepted: Set[Tuple[int, int]], violate: Violate
) -> None:
    """A DATA frame from *sender* passed broker *node*'s dedup.

    Loop freedom: the routing path may legitimately revisit brokers —
    DCRD *bounces* stuck copies back upstream (§III, Algorithm 2 lines
    10–12) — but a revisit is only legal when *node* is exactly the
    upstream the sender read from its carried path. Any other arrival at
    an already-visited broker is a forwarding loop. *accepted* holds the
    ``(node, transfer)`` pairs that passed dedup before.
    """
    path = frame.routing_path
    if path and path[-1] != sender:
        violate(
            PATH_DESYNC,
            f"frame arrived at broker {node} from {sender} but its "
            f"routing path ends in {path[-1]}",
            (frame,),
            node=node,
            sender=sender,
            routing_path=path,
        )
    if node in path:
        # The path the sender's task held is everything before the
        # sender's own appended entry; its upstream is the entry just
        # before the sender's first appearance there (or the last sender
        # when it had not forwarded this copy before) — the exact rule of
        # PacketFrame.upstream_of.
        prefix = path[:-1]
        if sender in prefix:
            index = prefix.index(sender)
            expected = prefix[index - 1] if index > 0 else -1
        else:
            expected = prefix[-1] if prefix else -1
        if node != expected:
            violate(
                PATH_CYCLE,
                f"frame re-entered already-visited broker {node} from "
                f"{sender} (not a legal upstream bounce, which would go to "
                f"{expected}): path={path}",
                (frame,),
                node=node,
                sender=sender,
                routing_path=path,
            )
    key = (node, frame.transfer_id)
    if key in accepted:
        violate(
            DUPLICATE_DELIVERY,
            f"transfer {frame.transfer_id} passed dedup twice at broker {node}",
            (frame,),
            node=node,
            transfer_id=frame.transfer_id,
        )
    accepted.add(key)


def check_sending_lists(table: Any, violate: Violate) -> None:
    """Every sending list of *table* must be in Theorem-1 ``d/r`` order.

    Checked on every raw solver output as the strategy publishes it —
    deliberately *before* post-processing ablations like the naive-order
    strategy reorder their copies, which may violate Theorem 1 by design.
    """
    for node, state in table.states.items():
        previous = None
        for via in state.sending_list:
            key = (theorem1_key(via.d_via, via.r_via), via.neighbor)
            if previous is not None and key < previous:
                violate(
                    SENDING_LIST_ORDER,
                    f"sending list of broker {node} for pair "
                    f"({table.publisher} -> {table.subscriber}) is out of "
                    f"Theorem-1 d/r order",
                    node=node,
                    publisher=table.publisher,
                    subscriber=table.subscriber,
                    sending_list=[
                        (v.neighbor, v.d_via, v.r_via) for v in state.sending_list
                    ],
                )
            previous = key


def check_conservation(
    ledger: Iterable[Any],
    custody: Set[Tuple[int, int]],
    outcomes: Iterable[Tuple[int, int, bool, bool]],
    losses_by_cause: Dict[str, int],
    violate: Violate,
) -> Dict[str, int]:
    """published = delivered + dropped + expired + stranded, itemised.

    *ledger* holds one entry per transfer (``msg_id``, ``destinations``,
    ``in_flight``, ``lost``, ``expired``); *outcomes* one ``(msg_id,
    subscriber, delivered, gave_up)`` row per expected pair. Every such
    pair must end the run in a provable state: delivered, given up
    (dropped), or stranded with a link-level explanation — a carrying
    copy lost, expired, still in flight, delivered-but-unusable at a
    broker (an undecodable FEC fragment subset, a dedup-suppressed
    bounce), or in explicit strategy custody. A pair *no copy ever
    carried* and no strategy accounted for is leaked protocol state.
    Returns the pair counts per category.
    """
    by_msg: Dict[int, List[Any]] = {}
    for entry in ledger:
        by_msg.setdefault(entry.msg_id, []).append(entry)
    counts = dict.fromkeys(
        (
            "delivered", "dropped", "expired", "stranded_in_flight",
            "stranded_lost", "stranded_arrived", "stranded_custody", "leaked",
        ),
        0,
    )
    leaked: List[Tuple[int, int]] = []
    for msg_id, subscriber, delivered, gave_up in outcomes:
        if delivered:
            category = "delivered"
        elif gave_up:
            category = "dropped"
        elif (msg_id, subscriber) in custody:
            category = "stranded_custody"
        else:
            carriers = [
                e for e in by_msg.get(msg_id, ()) if subscriber in e.destinations
            ]
            if sum(e.in_flight for e in carriers):
                category = "stranded_in_flight"
            elif any(e.expired for e in carriers):
                category = "expired"
            elif any(e.lost for e in carriers):
                category = "stranded_lost"
            elif carriers:
                category = "stranded_arrived"
            else:
                category = "leaked"
                leaked.append((msg_id, subscriber))
        counts[category] += 1
    if leaked:
        violate(
            CONSERVATION,
            f"{len(leaked)} expected pair(s) vanished: never given up, never "
            f"carried by any transmitted copy (first: msg {leaked[0][0]} -> "
            f"subscriber {leaked[0][1]})",
            pair_counts=dict(counts),
            leaked_pairs=leaked[:10],
            losses_by_cause=dict(losses_by_cause),
        )
    return counts


class OrderChecks:
    """The ordering guarantees' expectations at every subscriber.

    Fed with the ``order_hold`` / ``order_release`` families by the
    record; :meth:`finish` runs the end-of-run prefix and hold-leak
    checks, :meth:`export` ships the ready-release sequences to the
    coordinator of a fleet, whose merged record re-runs :meth:`finish`
    across every partition's subscribers.
    """

    def __init__(self, violate: Violate) -> None:
        self._violate = violate
        self.releases = 0
        self.stalls = 0
        # (node, msg) pairs currently buffered by a hold-back pipeline;
        # anything still here after the end-of-run flush is a release
        # that was silently swallowed (ORDER_HOLD_LEAK).
        self._held: Dict[Tuple[int, int], Any] = {}
        # (node, topic, origin) -> next expected fifo sequence.
        self._fifo_next: Dict[Tuple[int, int, int], int] = {}
        # node -> {(topic, origin) stream: last delivered seq} (causal).
        self._causal: Dict[int, Dict[Tuple[int, int], int]] = {}
        # (node, topic) -> last ready-released total-order key.
        self._total_last: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        # topic -> node -> ready-released (total-order key, msg) sequence.
        self.prefixes: Dict[int, Dict[int, List[_Ready]]] = {}

    def hold(self, node: int, frame: Any, level: str) -> None:
        """A delivery pipeline buffered *frame* at *node*."""
        self._held[(node, frame.msg_id)] = frame
        if level == "total":
            self._key_clock(node, frame, frame.order_tag)

    def release(self, node: int, frame: Any, level: str, reason: str) -> None:
        """A delivery pipeline released *frame* at *node*."""
        self.releases += 1
        held = self._held.pop((node, frame.msg_id), None)
        tag = getattr(frame, "order_tag", None)
        if tag is None:
            return
        if level == "fifo":
            self._fifo(node, frame, tag, reason)
        elif level == "causal":
            self._causal_release(node, frame, tag, reason)
        elif level == "total":
            if held is None:
                # Never held: this release is the first sight of the frame.
                self._key_clock(node, frame, tag)
            self._total(node, frame, tag, reason)

    def _fifo(self, node: int, frame: Any, tag: Any, reason: str) -> None:
        """Gap-freedom: ready releases walk the publisher sequence 1-by-1.

        The first release of a stream at a node adopts its sequence as
        the baseline (mid-stream joiners own no history); ``stall`` and
        ``flush`` releases re-baseline instead of being checked.
        """
        key = (node, frame.topic, tag.origin)
        expected = self._fifo_next.get(key)
        if reason == "ready":
            if expected is not None and tag.seq != expected:
                self._violate(
                    ORDER_FIFO_GAP,
                    f"fifo release at broker {node} jumped to seq {tag.seq} "
                    f"of stream (topic={frame.topic}, origin={tag.origin}); "
                    f"expected seq {expected}",
                    (frame,),
                    node=node,
                    topic=frame.topic,
                    origin=tag.origin,
                    seq=tag.seq,
                    expected=expected,
                )
            self._fifo_next[key] = tag.seq + 1
        elif expected is None or tag.seq + 1 > expected:
            self._fifo_next[key] = tag.seq + 1

    def _causal_release(self, node: int, frame: Any, tag: Any, reason: str) -> None:
        """Precedence-respected: no ready release before its causes.

        Mirrors the pipeline's dynamic-join semantics exactly: a
        dependency on a stream this node has never delivered from is
        waived, and the first release of a stream adopts the baseline.
        """
        stream = (frame.topic, tag.origin)
        delivered = self._causal.setdefault(node, {})
        have = delivered.get(stream)
        if reason == "ready":
            if have is not None and tag.seq != have + 1:
                self._violate(
                    ORDER_CAUSAL_PRECEDENCE,
                    f"causal release at broker {node} delivered seq {tag.seq} "
                    f"of stream (topic={frame.topic}, origin={tag.origin}) "
                    f"after seq {have}",
                    (frame,),
                    node=node,
                    topic=frame.topic,
                    origin=tag.origin,
                    seq=tag.seq,
                    last_delivered=have,
                )
            for dep, need in (tag.vc or {}).items():
                seen = delivered.get(dep)
                if dep != stream and seen is not None and seen < need:
                    self._violate(
                        ORDER_CAUSAL_PRECEDENCE,
                        f"causal release at broker {node} depends on seq "
                        f"{need} of stream {dep} but only {seen} was delivered",
                        (frame,),
                        node=node,
                        dependency_stream=dep,
                        needed=need,
                        seen=seen,
                    )
        if have is None or tag.seq > have:
            delivered[stream] = tag.seq

    def _key_clock(self, node: int, frame: Any, tag: Any) -> None:
        """Keys follow time: ``tag.ts`` microseconds is never more than
        1 us behind the publish instant (it may run ahead — the hybrid
        clock's logical part — but a key in the past re-opens prefixes
        the subscribers already agreed on)."""
        if tag.ts + 1 < frame.publish_time * 1e6:
            self._violate(
                ORDER_KEY_BEHIND_CLOCK,
                f"total-order key of msg {frame.msg_id} (origin {tag.origin}) "
                f"reads {tag.ts} us but the frame was published at "
                f"{frame.publish_time:.6f} s",
                (frame,),
                node=node,
                msg=frame.msg_id,
                origin=tag.origin,
                ts=tag.ts,
                publish_time=frame.publish_time,
            )

    def _total(self, node: int, frame: Any, tag: Any, reason: str) -> None:
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
        last = self._total_last.get(watermark)
        if last is not None and key <= last:
            self._violate(
                ORDER_TOTAL_INVERSION,
                f"total-order release at broker {node} went backwards: key "
                f"{key} after {last} on topic {frame.topic}",
                (frame,),
                node=node,
                topic=frame.topic,
                key=key,
                previous=last,
            )
        self._total_last[watermark] = key
        self.prefixes.setdefault(frame.topic, {}).setdefault(node, []).append(
            (key, frame.msg_id)
        )

    def finish(self) -> None:
        """Subscribers agree on their common ready releases, and every
        buffered frame released.

        The prefix comparison is restricted to the messages *both*
        subscribers ready-released: holes are legitimate (a stall-released
        straggler, a given-up pair, an end-of-run cutoff never enter a
        node's ready sequence — and a silently swallowed delivery is frame
        *conservation*'s job to catch), but the common messages must carry
        identical agreement keys and appear in the identical relative
        order on every subscriber. Runners flush pipelines before the
        end-of-run checks, so a leftover hold is a delivery the pipeline
        silently swallowed.
        """
        for topic, by_node in sorted(self.prefixes.items()):
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
                            self._violate(
                                ORDER_TOTAL_PREFIX,
                                f"total-order sequences diverge on topic "
                                f"{topic}: broker {first} released key={a[0]} "
                                f"msg={a[1]} at common position {position} "
                                f"while broker {second} released key={b[0]} "
                                f"msg={b[1]}",
                                topic=topic,
                                nodes=(first, second),
                                position=position,
                                keys=(a, b),
                            )
        if self._held:
            (node, msg), frame = sorted(self._held.items())[0]
            self._violate(
                ORDER_HOLD_LEAK,
                f"{len(self._held)} hold-back frame(s) were never released; "
                f"first: msg {msg} held at broker {node}",
                (frame,),
                leaked=len(self._held),
                node=node,
                msg=msg,
            )

    def export(self) -> List[Any]:
        """Ready-release sequences flattened to ``[ts, origin, seq, msg]``
        rows, so they survive a JSON control-channel round trip."""
        return [
            [topic, node, [[*key, msg] for key, msg in entries]]
            for topic, by_node in sorted(self.prefixes.items())
            for node, entries in sorted(by_node.items())
        ]

