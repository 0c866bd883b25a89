"""Reporting over a run record: journeys, delay breakdowns, JSONL.

Aggregate metrics only show end-to-end totals; a tracing
:class:`repro.record.RunRecord` (``ExperimentConfig.trace`` / CLI
``--trace``) keeps every frame copy's lifecycle, and this module answers
the per-hop questions from it:

* :func:`journey` reconstructs the hop chain of any delivered (message,
  subscriber) pair, walking the parent lineage recorded when
  :meth:`~repro.pubsub.messages.PacketFrame.forwarded` forks a copy;
* :func:`delay_breakdown` splits its end-to-end delay into timeout-wait /
  retransmission / queueing / transmission components that sum *exactly*
  to the recorded delivery delay;
* :func:`retransmission_tree` (and :func:`format_retransmission_tree`)
  renders the copy tree of one message;
* :func:`export_jsonl` / :func:`load_jsonl` round-trip the buffered
  stream; the load replays every line through the record's own
  :meth:`~repro.record.RunRecord.append`, so every query works on a
  loaded record (transmit events embed their parent transfer id).

Every query reads the record's per-transfer ledger: a copy's buffered
``transmit`` attempts and their fates (``arrive``, ``expire``, arrival
``link_drop``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro import record as _record
from repro.util.errors import ReproError

#: JSONL schema version written to the meta line.
JSONL_VERSION = 1


class TraceError(ReproError):
    """A trace query could not be answered from the recorded events."""


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
        return asdict(self)


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


def _attempts(record: _record.RunRecord, transfer: int) -> List[_record.TraceEvent]:
    """The buffered link attempts of one copy, oldest first."""
    entry = record.ledger.get(transfer)
    if entry is None:
        return []
    return [e for e in entry.events if e.kind == _record.TRANSMIT]


def _fates(record: _record.RunRecord, transfer: int) -> List[_record.TraceEvent]:
    """What became of the copy's attempts: arrivals, expiries, drops."""
    return [e for e in record.ledger[transfer].events if e.kind != _record.TRANSMIT]


def _hop(
    record: _record.RunRecord, transfer: int, attempts: List[_record.TraceEvent]
) -> Hop:
    """Resolve one chain copy into a :class:`Hop` record."""
    surviving = [e for e in attempts if e.info is None or "cause" not in e.info]
    fates = _fates(record, transfer)
    arrivals = [i for i, e in enumerate(fates) if e.kind == _record.ARRIVE]
    if not arrivals:
        raise TraceError(
            f"transfer {transfer} has no recorded arrival — the ring buffer "
            f"may have evicted it (capacity={record.capacity}, "
            f"dropped={record.events_dropped})"
        )
    if arrivals[0] >= len(surviving):
        raise TraceError(
            f"transfer {transfer}: arrival outcomes do not match surviving "
            f"attempts (trace incomplete?)"
        )
    arrival = fates[arrivals[0]]
    send = surviving[arrivals[0]]
    info = send.info or {}
    prop = float(info.get("prop", 0.0))
    queue = info.get("queue")
    if queue is None:
        # EDF-queued attempt: the wait is not known at transmit time;
        # derive it from the arrival instant (clamped — pure float noise
        # must not surface as negative queueing).
        queue = max(arrival.t - send.t - prop, 0.0)
    return Hop(
        src=attempts[0].node,
        dst=attempts[0].peer,
        transfer=transfer,
        first_tx=attempts[0].t,
        last_tx=attempts[-1].t,
        send_tx=send.t,
        arrival=arrival.t,
        attempts=len(attempts),
        prop=prop,
        queueing=float(queue),
    )


def journey(record: _record.RunRecord, msg_id: int, subscriber: int) -> Journey:
    """Reconstruct the hop chain that delivered *msg_id* to *subscriber*.

    Walks the delivering copy's parent lineage back to the root and
    resolves each ancestor into a :class:`Hop`. Raises
    :class:`TraceError` when the pair has no recorded delivery or the
    chain cannot be resolved (e.g. evicted by the ring buffer).
    """
    deliver = record.deliveries.get((msg_id, subscriber))
    publish = record.publishes.get(msg_id)
    if deliver is None:
        if publish is not None and publish.node == subscriber:
            # Publisher-local delivery: the message never became a frame
            # for this subscriber.
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
            f"no delivery of msg {msg_id} to subscriber {subscriber} in the trace"
        )
    # Walk the full ancestry; ancestors without transmit events (the
    # virtual root copy, a stored frame redelivered in place) are skipped
    # rather than ending the walk, so custody redeliveries chain back
    # through the storing broker to the origin. Parent transfer ids
    # strictly decrease, so this terminates.
    hops: List[Hop] = []
    transfer = deliver.transfer
    while transfer >= 0:
        attempts = _attempts(record, transfer)
        if attempts:
            hops.append(_hop(record, transfer, attempts))
        transfer = record.parent(transfer)
    if not hops:
        raise TraceError(
            f"delivering transfer {deliver.transfer} of msg {msg_id} has no "
            f"transmit events in the trace"
        )
    hops.reverse()
    for previous, current in zip(hops, hops[1:]):
        if previous.dst != current.src:
            raise TraceError(
                f"journey of msg {msg_id} -> {subscriber} is not contiguous: "
                f"hop into {previous.dst} followed by hop out of {current.src}"
            )
    if hops[-1].dst != subscriber:
        raise TraceError(
            f"journey of msg {msg_id} ends at broker {hops[-1].dst}, not at "
            f"subscriber {subscriber}"
        )
    chain = (hops[0].src,) + tuple(hop.dst for hop in hops)
    if publish is not None:
        origin, publish_time = publish.node, publish.t
    else:
        origin, publish_time = hops[0].src, hops[0].first_tx
    return Journey(
        msg=msg_id,
        subscriber=subscriber,
        origin=origin,
        chain=chain,
        hops=tuple(hops),
        publish_time=publish_time,
        delivery_time=deliver.t,
        complete=chain[0] == origin,
    )


def delay_breakdown(
    record: _record.RunRecord, msg_id: int, subscriber: int
) -> DelayBreakdown:
    """Split the pair's end-to-end delay into its mechanisms.

    Per hop ``i`` with parent-arrival ``r`` (publish time for the first
    hop), first attempt ``f``, arriving attempt ``s`` and arrival ``a``:

    * ``timeout_wait``  += ``f - r`` — broker think/wait time before the
      copy's first transmission (failed-sibling ACK-timeout cycles,
      persistency retry backoff);
    * ``retransmission`` += ``s - f`` — attempts lost on this very link
      before the surviving one;
    * ``queueing``      += the arriving attempt's wait on the busy
      direction (exact for FIFO, derived for EDF);
    * ``transmission``   = the remainder — propagation plus serialisation
      of the delivering attempts.

    The remainder construction makes the four components sum to ``total``
    exactly (the property suite asserts ``==``, not ``approx``).
    """
    path = journey(record, msg_id, subscriber)
    total = path.delivery_time - path.publish_time
    timeout_wait = retransmission = queueing = 0.0
    reached = path.publish_time
    for hop in path.hops:
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


def holdback_latencies(record: _record.RunRecord) -> Dict[Tuple[int, int], float]:
    """Hold-back wait per released (msg, node) pair, in virtual time.

    Zero-wait releases (frames that were immediately deliverable) appear
    with ``0.0``, so the mapping doubles as the set of pipeline-released
    pairs; pairs delivered outside a pipeline (ordering off, uncovered
    topics) are absent.
    """
    latencies: Dict[Tuple[int, int], float] = {}
    for event in record.events():
        if event.kind == _record.ORDER_RELEASE:
            latencies.setdefault(
                (event.msg, event.node), float((event.info or {}).get("held", 0.0))
            )
    return latencies


def retransmission_tree(record: _record.RunRecord, msg_id: int) -> List[Dict[str, Any]]:
    """The copy tree of one message, as nested dicts.

    Each node describes one transmitted transfer: its link, attempt count
    and fate, with the copies forked from it as ``children``. Roots are
    the copies whose parent was never transmitted (the virtual root frame
    created at publish) or is unknown.
    """
    copies = sorted(t for t, entry in record.ledger.items() if entry.msg_id == msg_id)
    tx = {t: attempts for t in copies for attempts in (_attempts(record, t),) if attempts}
    children: Dict[int, List[int]] = {}
    roots: List[int] = []
    for transfer in tx:
        parent = record.parent(transfer)
        if parent in tx:
            children.setdefault(parent, []).append(transfer)
        else:
            roots.append(transfer)

    def build(transfer: int) -> Dict[str, Any]:
        attempts = tx[transfer]
        kinds = {e.kind for e in _fates(record, transfer)}
        if _record.ARRIVE in kinds:
            fate = "arrived"
        elif _record.EXPIRE in kinds:
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


def format_retransmission_tree(record: _record.RunRecord, msg_id: int) -> str:
    """Human-readable rendering of :func:`retransmission_tree`."""
    lines = [f"msg {msg_id}"]

    def render(node: Dict[str, Any], depth: int) -> None:
        lines.append(
            "  " * depth
            + f"#{node['transfer']} {node['src']}->{node['dst']} "
            f"t={node['first_tx']:.6f} attempts={node['attempts']} {node['fate']}"
        )
        for child in node["children"]:
            render(child, depth + 1)

    for root in retransmission_tree(record, msg_id):
        render(root, 1)
    return "\n".join(lines)


def export_jsonl(record: _record.RunRecord, target: Union[str, IO[str]]) -> None:
    """Write the record's buffered stream as JSON Lines.

    The first line is a ``meta`` record (schema version, capacity,
    recorded/dropped counts); every further line is one event. Keys are
    sorted so identical traces export byte-identically.
    """
    meta = {
        "kind": "meta",
        "version": JSONL_VERSION,
        "capacity": record.capacity,
        "events_recorded": record.events_recorded,
        "events_dropped": record.events_dropped,
    }
    lines = [meta] + [event.as_dict() for event in record.events()]
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)


def load_jsonl(source: Union[str, IO[str]]) -> _record.RunRecord:
    """Rebuild a tracing :class:`~repro.record.RunRecord` from an
    exported JSONL stream.

    Every event line is replayed through
    :meth:`~repro.record.RunRecord.append`, the path live recording
    takes, so parent lineage is recovered from the ``parent`` field each
    transmit embeds and the full query API works on the result. The
    ``events_recorded`` / ``events_dropped`` counts come from the meta
    line, so exporting the loaded record reproduces the file byte for
    byte even after the ring overflowed.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    record: Optional[_record.RunRecord] = None
    meta: Dict[str, Any] = {}
    for line in lines:
        if not line.strip():
            continue
        fields = json.loads(line)
        if fields.get("kind") == "meta":
            meta = fields
            if meta.get("version") != JSONL_VERSION:
                raise TraceError(
                    f"unsupported trace schema version {meta.get('version')!r} "
                    f"(expected {JSONL_VERSION})"
                )
            record = _record.RunRecord(
                trace=True, capacity=meta.get("capacity", _record.DEFAULT_CAPACITY)
            )
            continue
        if record is None:
            break
        record.append(_record.TraceEvent(**fields))
    if record is None:
        raise TraceError("trace stream has no meta line (not a repro trace?)")
    record.events_recorded = int(meta.get("events_recorded", record.events_recorded))
    record.events_dropped = int(meta.get("events_dropped", 0))
    return record
