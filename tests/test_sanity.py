"""Unit tests for the invariant checks, through a sanitizing run record.

These drive a :class:`repro.record.RunRecord` in its ``sanitize`` mode
directly with stub frames and tables — no simulation — so each
invariant's trigger condition, violation kind, and report payload is
pinned in isolation. Integration-level
behaviour (hooks wired into real runs) lives in
``tests/integration/test_conformance.py`` and
``tests/integration/test_sanitizer_mutations.py``.
"""

import pytest

from repro import sanity
from repro.core.computation import DrTable, NodeState, ViaNeighbor
from repro.record import RunRecord
from repro.sanity import InvariantViolation
from tests import mutations


class Frame:
    """Minimal stand-in for PacketFrame, as far as the sanitizer looks."""

    def __init__(self, transfer_id=1, msg_id=10, destinations=frozenset({5}),
                 routing_path=(), topic=0, origin=0):
        self.transfer_id = transfer_id
        self.msg_id = msg_id
        self.destinations = destinations
        self.routing_path = tuple(routing_path)
        self.topic = topic
        self.origin = origin


class Outcome:
    """Minimal stand-in for DeliveryOutcome."""

    def __init__(self, msg_id, subscriber, delivered=False, gave_up=False):
        self.msg_id = msg_id
        self.subscriber = subscriber
        self.delivered = delivered
        self.gave_up = gave_up


class Metrics:
    def __init__(self, *outcomes):
        self._outcomes = list(outcomes)

    def outcomes(self):
        return list(self._outcomes)


def sanitizer():
    """A record that only checks."""
    return RunRecord(sanitize=True)


def violation(call, *args, **kwargs):
    with pytest.raises(InvariantViolation) as excinfo:
        call(*args, **kwargs)
    return excinfo.value


# ---------------------------------------------------------------------------
# Kernel event order
# ---------------------------------------------------------------------------
def test_event_pop_in_order_is_clean():
    s = sanitizer()
    s.on_event_pop(1.0, 1.0)
    s.on_event_pop(2.0, 1.0)
    assert s.events_popped == 2
    assert s.violations == 0


def test_event_pop_back_in_time_violates():
    s = sanitizer()
    error = violation(s.on_event_pop, 0.5, 1.0)
    assert error.kind == sanity.EVENT_ORDER
    assert error.details == {"time": 0.5, "now": 1.0}
    assert s.violations == 1


# ---------------------------------------------------------------------------
# Broker accept: dedup, path tail, loop freedom
# ---------------------------------------------------------------------------
def test_duplicate_post_dedup_accept_violates():
    s = sanitizer()
    s.on_broker_accept(3, 2, Frame(transfer_id=7, routing_path=(1, 2)))
    error = violation(
        s.on_broker_accept, 3, 2, Frame(transfer_id=7, routing_path=(1, 2))
    )
    assert error.kind == sanity.DUPLICATE_DELIVERY
    assert error.details["transfer_id"] == 7


def test_path_missing_its_forwarder_violates():
    # Broker 2 forwarded the copy to 3 without appending itself: the path
    # still ends in 1, so 3 would read 1 as its upstream.
    s = sanitizer()
    error = violation(s.on_broker_accept, 3, 2, Frame(routing_path=(1,)))
    assert error.kind == sanity.PATH_DESYNC
    assert error.details == {"node": 3, "sender": 2, "routing_path": (1,)}


def test_path_tail_must_match_sender():
    s = sanitizer()
    frame = Frame(routing_path=(1, 2))
    error = violation(s.on_broker_accept, 3, 9, frame)
    assert error.kind == sanity.PATH_DESYNC
    assert error.details["sender"] == 9


def test_legal_upstream_bounce_is_clean():
    # 1 -> 2 -> 3 got stuck at 3, which bounces the copy back to its
    # upstream 2: path (1, 2, 3), arriving at node 2 from sender 3.
    s = sanitizer()
    s.on_broker_accept(2, 3, Frame(routing_path=(1, 2, 3)))
    assert s.violations == 0


def test_second_hop_bounce_uses_first_occurrence_upstream():
    # Path (1, 2, 3, 2): node 2 already bounced once and forwarded again;
    # its upstream stays 1 (entry before 2's FIRST appearance).
    s = sanitizer()
    s.on_broker_accept(1, 2, Frame(routing_path=(1, 2, 3, 2)))
    assert s.violations == 0


def test_revisit_that_is_not_a_bounce_violates():
    # Arriving at node 1 from sender 3 whose upstream is 2 — a loop.
    s = sanitizer()
    error = violation(s.on_broker_accept, 1, 3, Frame(routing_path=(1, 2, 3)))
    assert error.kind == sanity.PATH_CYCLE
    assert error.details["node"] == 1
    assert error.details["sender"] == 3


def test_fresh_broker_accept_is_clean():
    s = sanitizer()
    s.on_broker_accept(4, 3, Frame(routing_path=(1, 2, 3)))
    assert s.accepts_checked == 1
    assert s.violations == 0


# ---------------------------------------------------------------------------
# ARQ timer lifecycle
# ---------------------------------------------------------------------------
def test_timer_start_then_cancel_settles_once():
    s = sanitizer()
    s.on_timer_started(11, deadline=2.0)
    s.on_timer_cancelled(11)
    assert (s.timers_started, s.timers_settled) == (1, 1)


def test_timer_settle_without_start_violates():
    s = sanitizer()
    assert violation(s.on_timer_fired, 99).kind == sanity.TIMER_UNKNOWN


def test_timer_double_settle_violates():
    s = sanitizer()
    s.on_timer_started(11, deadline=2.0)
    s.on_timer_cancelled(11)
    error = violation(s.on_timer_fired, 11)
    assert error.kind == sanity.TIMER_DOUBLE_SETTLE
    assert error.details == {"token": 11, "first": "cancelled", "second": "fired"}


def test_due_pending_timer_is_an_orphan_at_finish():
    s = sanitizer()
    s.on_timer_started(11, deadline=2.0)
    error = violation(s.finish, Metrics(), now=5.0)
    assert error.kind == sanity.TIMER_ORPHAN
    assert error.details["first_token"] == 11


def test_timer_still_in_the_future_is_not_an_orphan():
    s = sanitizer()
    s.on_timer_started(11, deadline=9.0)
    s.finish(Metrics(), now=5.0)  # run ended before the deadline: fine
    assert s.violations == 0


# ---------------------------------------------------------------------------
# Theorem-1 sending-list order
# ---------------------------------------------------------------------------
def _table(vias):
    states = {0: NodeState(d=1.0, r=0.9, sending_list=tuple(vias))}
    return DrTable(
        publisher=0, subscriber=5, deadline=1.0, states=states,
        budgets={0: 1.0}, rounds=1,
    )


def test_ordered_sending_list_is_clean():
    s = sanitizer()
    s.on_table_solved(_table([
        ViaNeighbor(neighbor=1, d_via=0.1, r_via=0.9),   # key ~0.111
        ViaNeighbor(neighbor=2, d_via=0.2, r_via=0.9),   # key ~0.222
        ViaNeighbor(neighbor=3, d_via=0.2, r_via=0.0),   # key inf, last
    ]))
    assert s.tables_checked == 1
    assert s.violations == 0


def test_missorted_sending_list_violates():
    s = sanitizer()
    error = violation(s.on_table_solved, _table([
        ViaNeighbor(neighbor=2, d_via=0.2, r_via=0.9),
        ViaNeighbor(neighbor=1, d_via=0.1, r_via=0.9),
    ]))
    assert error.kind == sanity.SENDING_LIST_ORDER
    assert error.details["publisher"] == 0
    assert error.details["subscriber"] == 5


def test_tie_on_ratio_breaks_by_neighbor_id():
    s = sanitizer()
    error = violation(s.on_table_solved, _table([
        ViaNeighbor(neighbor=2, d_via=0.1, r_via=0.9),
        ViaNeighbor(neighbor=1, d_via=0.1, r_via=0.9),  # same key, lower id
    ]))
    assert error.kind == sanity.SENDING_LIST_ORDER


def test_missort_mutation_corrupts_a_checked_table():
    s = sanitizer()
    table = _table([
        ViaNeighbor(neighbor=1, d_via=0.1, r_via=0.9),
        ViaNeighbor(neighbor=2, d_via=0.2, r_via=0.9),
    ])
    s.on_table_solved(table)
    missorted = mutations.missort_table(table)
    assert violation(s.on_table_solved, missorted).kind == sanity.SENDING_LIST_ORDER


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------
def _send(s, frame, survived=True, cause=None):
    s.on_transmit(0.0, 0, 1, frame, survived, cause, 0.01, 0.0)


def test_conservation_partitions_every_pair():
    s = sanitizer()
    carried = Frame(transfer_id=1, msg_id=10, destinations=frozenset({5, 6}))
    _send(s, carried)
    s.on_arrive(0.01, 0, 1, carried)
    lost = Frame(transfer_id=2, msg_id=11, destinations=frozenset({7}))
    _send(s, lost, survived=False, cause="random_loss")
    s.finish(
        Metrics(
            Outcome(10, 5, delivered=True),
            Outcome(10, 6),             # copy arrived, never delivered
            Outcome(11, 7),             # only carrying copy was lost
            Outcome(12, 8, gave_up=True),
        ),
        now=1.0,
    )
    assert s.pair_counts["delivered"] == 1
    assert s.pair_counts["stranded_arrived"] == 1
    assert s.pair_counts["stranded_lost"] == 1
    assert s.pair_counts["dropped"] == 1
    assert s.pair_counts["leaked"] == 0
    assert s.losses_by_cause == {"random_loss": 1}


def test_pair_never_carried_is_leaked():
    s = sanitizer()
    error = violation(s.finish, Metrics(Outcome(10, 5)), now=1.0)
    assert error.kind == sanity.CONSERVATION
    assert error.details["leaked_pairs"] == [(10, 5)]


def test_custody_pairs_are_not_leaked():
    s = sanitizer()
    s.on_custody(0.5, 3, Frame(msg_id=10), 5, "stored")
    s.finish(Metrics(Outcome(10, 5)), now=1.0)
    assert s.pair_counts["stranded_custody"] == 1


def test_in_flight_copy_explains_a_stranded_pair():
    s = sanitizer()
    frame = Frame(transfer_id=1, msg_id=10, destinations=frozenset({5}))
    _send(s, frame)  # transmitted, neither delivered nor lost by run end
    s.finish(Metrics(Outcome(10, 5)), now=1.0)
    assert s.pair_counts["stranded_in_flight"] == 1


def test_delivery_without_transmission_violates():
    s = sanitizer()
    error = violation(s.on_arrive, 0.01, 0, 1, Frame(transfer_id=3))
    assert error.kind == sanity.CONSERVATION


# ---------------------------------------------------------------------------
# Reporting, counters, bus subscription
# ---------------------------------------------------------------------------
def test_report_lists_details_and_frames():
    s = sanitizer()
    frame = Frame(transfer_id=7, routing_path=(1, 2))
    s.on_broker_accept(3, 2, frame)
    error = violation(s.on_broker_accept, 3, 2, frame)
    report = error.report()
    assert "duplicate_delivery" in report
    assert "transfer=7" in report
    assert "node: 3" in report


def test_perf_counters_cover_all_dimensions():
    s = sanitizer()
    s.on_event_pop(1.0, 0.5)  # counted even though clean
    s.on_timer_started(1, 2.0)
    s.on_timer_cancelled(1)
    s.finish(Metrics(), now=3.0)
    perf = s.perf_counters()
    assert perf["sanity.events_checked"] == 1.0
    assert perf["sanity.timers_started"] == 1.0
    assert perf["sanity.timers_settled"] == 1.0
    assert perf["sanity.violations"] == 0.0
    assert perf["sanity.pairs_leaked"] == 0.0

