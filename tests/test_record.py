"""The run record as a probe observer: one handler per family, one ledger.

The checks it enforces are pinned in ``tests/test_sanity.py`` and the
reports it feeds in ``tests/test_trace.py``; here the subject is what
the record subscribes, what it keeps, and whose excerpt a violation
carries.
"""

import pytest

from repro import probes, sanity
from repro.record import RunRecord, check_merged
from repro.sanity import InvariantViolation

#: What a sanitizing record checks. ``timer_*`` observers keep every ACK
#: arrival queued, so this set may not silently grow.
SANITIZE = {
    "event_pop", "transmit", "arrive", "arrival_drop", "expire", "wire",
    "broker_accept", "timer_started", "timer_cancelled", "timer_fired",
    "table_solved", "custody", "order_hold", "order_release", "order_stall",
}
#: What a tracing record records (``ack`` keeps ACK arrivals queued too).
TRACE = {
    "event_pop", "publish", "fork", "transmit", "enqueue", "arrive",
    "arrival_drop", "expire", "dedup_discard", "deliver", "ack",
    "ack_timeout", "failover", "bounce", "abandon", "custody",
    "order_hold", "order_release", "order_stall",
}


class Frame:
    """Just enough PacketFrame surface for the link families."""

    def __init__(self, transfer_id, msg_id=10, destinations=frozenset({5})):
        self.transfer_id = transfer_id
        self.msg_id = msg_id
        self.destinations = destinations


@pytest.mark.parametrize(
    "sanitize, trace, families",
    [
        (True, False, SANITIZE),
        (False, True, TRACE),
        (True, True, SANITIZE | TRACE),
    ],
    ids=["sanitize", "trace", "both"],
)
def test_record_subscribes_exactly_its_mode_families(sanitize, trace, families):
    """One observer per run: the bus holds the record alone, and every
    slot it subscribes is its own bound handler, never a fused chain."""
    assert len(SANITIZE) == 15 and len(TRACE) == 19 and len(SANITIZE | TRACE) == 25
    record = RunRecord(sanitize=sanitize, trace=trace)
    assert set(probes.handlers_of(record)) == families
    probes.attach(record)
    try:
        assert probes.observers() == (record,)
        for family in probes.FAMILIES:
            slot = getattr(probes, "on_" + family)
            if family in families:
                assert slot.__self__ is record
                assert slot.__func__ is getattr(RunRecord, "on_" + family)
            else:
                assert slot is None
    finally:
        probes.detach(record)


def _carry(record, transfers):
    """Each transfer: one surviving transmit, then its arrival."""
    for transfer in transfers:
        frame = Frame(transfer)
        record.on_transmit(0.0, 0, 1, frame, True, None, 0.01, 0.0)
        record.on_arrive(0.01, 0, 1, frame)


def test_a_trace_only_ledger_lives_no_longer_than_the_ring():
    record = RunRecord(trace=True, capacity=4)
    _carry(record, range(1, 11))
    assert (record.events_recorded, record.events_dropped) == (20, 16)
    assert len(record.events()) == 4
    assert sorted(record.ledger) == [9, 10]


def test_a_sanitizing_ledger_outlives_the_ring():
    record = RunRecord(sanitize=True, trace=True, capacity=4)
    _carry(record, range(1, 11))
    assert len(record.events()) == 4
    assert len(record.ledger) == 10
    assert record.perf_counters()["sanity.frames_tracked"] == 10.0
    assert [e.kind for e in record.ledger[1].events] == []
    assert [e.kind for e in record.ledger[10].events] == ["transmit", "arrive"]


def test_a_sanitize_only_record_keeps_no_event_ring():
    record = RunRecord(sanitize=True)
    _carry(record, range(1, 4))
    assert record.events() == []
    assert record.events_recorded == 0
    assert all(not entry.events for entry in record.ledger.values())
    assert not any(name.startswith("trace.") for name in record.perf_counters())


def test_merged_conservation_carries_no_excerpt_from_an_attached_record():
    """The coordinator's fleet-wide check names no record: a tracing
    record attached for an unrelated run must not lend it its stream."""
    bystander = RunRecord(trace=True)
    probes.attach(bystander)
    try:
        probes.on_arrive(0.5, 0, 1, Frame(7, msg_id=3))
        with pytest.raises(InvariantViolation) as excinfo:
            check_merged(
                [{"transfers": []}], expected={(10, 5)}, delivered=(), gave_up=()
            )
    finally:
        probes.detach(bystander)
    assert bystander.events_recorded == 1
    assert excinfo.value.kind == sanity.CONSERVATION
    assert excinfo.value.trace_excerpt == ()
    assert "trace excerpt:" not in excinfo.value.report()


def test_merged_conservation_sums_a_copy_across_partitions():
    """Sent in one partition, delivered in the other: one carried pair."""
    sender = RunRecord(sanitize=True, partitioned=True)
    receiver = RunRecord(sanitize=True, partitioned=True)
    frame = Frame(7)
    sender.on_transmit(0.0, 0, 1, frame, True, None, 0.01, 0.0)
    receiver.on_arrive(0.01, 0, 1, frame)
    counts = check_merged(
        [sender.export_partition(), receiver.export_partition()],
        expected={(10, 5)},
        delivered=(),
        gave_up=(),
    )
    assert counts["stranded_arrived"] == 1
    assert counts["leaked"] == 0
