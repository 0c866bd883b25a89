"""Unit tests for the delivery collector."""

import math
import warnings

import pytest

from repro.metrics.collector import MetricsCollector
from repro.util.errors import SimulationError


def test_expect_registers_pairs():
    collector = MetricsCollector()
    collector.expect(1, topic=0, publish_time=0.0, deadlines={2: 0.1, 3: 0.2})
    assert collector.messages_published == 1
    assert collector.expected_deliveries == 2


def test_expect_without_subscribers_rejected():
    collector = MetricsCollector()
    with pytest.raises(SimulationError):
        collector.expect(1, 0, 0.0, {})


def test_duplicate_expectation_rejected():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    with pytest.raises(SimulationError):
        collector.expect(1, 0, 0.0, {2: 0.1})


def test_first_delivery_recorded():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    assert collector.record_delivery(1, 2, 0.05) is True
    outcome = collector.outcome(1, 2)
    assert outcome.delivered
    assert outcome.delay == pytest.approx(0.05)
    assert outcome.on_time


def test_later_copies_counted_as_duplicates():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    collector.record_delivery(1, 2, 0.05)
    assert collector.record_delivery(1, 2, 0.08) is False
    assert collector.outcome(1, 2).duplicates == 1
    assert collector.outcome(1, 2).delay == pytest.approx(0.05)
    assert collector.duplicate_count() == 1


def test_unknown_delivery_ignored():
    collector = MetricsCollector()
    assert collector.record_delivery(99, 2, 0.05) is False


def test_late_delivery_not_on_time():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    collector.record_delivery(1, 2, 0.15)
    outcome = collector.outcome(1, 2)
    assert outcome.delivered and not outcome.on_time


def test_deadline_boundary_is_on_time():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    collector.record_delivery(1, 2, 0.1)
    assert collector.outcome(1, 2).on_time


def test_give_up_marks_only_undelivered():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1, 3: 0.1})
    collector.record_delivery(1, 2, 0.05)
    collector.record_give_up(1, 2)
    collector.record_give_up(1, 3)
    assert not collector.outcome(1, 2).gave_up
    assert collector.outcome(1, 3).gave_up


def test_counts():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1, 3: 0.1})
    collector.expect(2, 0, 1.0, {2: 0.1})
    collector.record_delivery(1, 2, 0.05)
    collector.record_delivery(1, 3, 0.25)
    assert collector.delivered_count() == 2
    assert collector.on_time_count() == 1


def test_late_normalized_delays():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1, 3: 0.1})
    collector.record_delivery(1, 2, 0.05)   # on time: excluded
    collector.record_delivery(1, 3, 0.15)   # late: 1.5x the requirement
    assert collector.late_normalized_delays() == [pytest.approx(1.5)]


def test_late_normalized_delay_past_a_subnormal_deadline_reads_inf():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {3: 5e-324})
    collector.record_delivery(1, 3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert collector.late_normalized_delays() == [math.inf]


def test_delays_list():
    collector = MetricsCollector()
    collector.expect(1, 0, 1.0, {2: 0.1})
    collector.record_delivery(1, 2, 1.07)
    assert collector.delays() == [pytest.approx(0.07)]


def test_publish_time_offsets_delay():
    collector = MetricsCollector()
    collector.expect(5, 0, 10.0, {2: 0.1})
    collector.record_delivery(5, 2, 10.05)
    assert collector.outcome(5, 2).delay == pytest.approx(0.05)
    assert collector.outcome(5, 2).on_time


def test_rejected_expect_registers_nothing():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    with pytest.raises(SimulationError, match=r"duplicate expectation for \(1, 2\)"):
        collector.expect(1, 0, 0.0, {3: 0.1, 2: 0.1})
    assert collector.messages_published == 1
    assert collector.expected_deliveries == 1
    assert collector.record_delivery(1, 3, 0.05) is False
    with pytest.raises(KeyError):
        collector.outcome(1, 3)


def test_message_expected_again_with_other_subscribers():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    collector.expect(1, 5, 1.0, {3: 0.2})
    assert collector.messages_published == 2
    assert collector.record_delivery(1, 3, 1.1, hops=2) is True
    collector.record_give_up(1, 2)
    assert [(o.msg_id, o.subscriber, o.topic, o.delivered, o.gave_up, o.hops)
            for o in collector.outcomes()] == [(1, 2, 0, False, True, None),
                                               (1, 3, 5, True, False, 2)]
    assert collector.published(1) == (0, 0.0)


def test_snapshot_fields_are_read_only():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1})
    outcome = collector.outcome(1, 2)
    with pytest.raises(AttributeError):
        outcome.delivery_time = 0.05
    with pytest.raises(AttributeError):
        outcome.gave_up = True
    assert not hasattr(outcome, "__dict__")
    # A snapshot does not follow later writes to the table.
    collector.record_delivery(1, 2, 0.05)
    assert not outcome.delivered
    assert collector.outcome(1, 2).delivered


def test_outcomes_is_a_lazy_read_only_sequence():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1, 3: 0.2})
    collector.expect(2, 1, 1.0, {2: 0.1})
    rows = collector.outcomes()
    assert not isinstance(rows, list)
    assert len(rows) == 3
    assert [(o.msg_id, o.subscriber) for o in rows] == [(1, 2), (1, 3), (2, 2)]
    assert rows[-1] == collector.outcome(2, 2)
    assert rows[1].subscriber == 3
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    # The length is fixed when the view is taken; values are read live.
    collector.expect(3, 0, 2.0, {2: 0.1})
    collector.record_delivery(1, 3, 0.1)
    assert len(rows) == 3 and len(collector.outcomes()) == 4
    assert rows[1].delivered


def test_hops_recorded_with_first_copy_only():
    collector = MetricsCollector()
    collector.expect(1, 0, 0.0, {2: 0.1, 3: 0.1})
    collector.record_delivery(1, 2, 0.05, hops=0)
    collector.record_delivery(1, 2, 0.06, hops=4)
    collector.record_delivery(1, 3, 0.07)
    assert collector.outcome(1, 2).hops == 0
    assert collector.outcome(1, 3).hops is None


def test_queries_on_an_empty_table():
    collector = MetricsCollector()
    assert collector.delivered_count() == 0
    assert collector.on_time_count() == 0
    assert collector.duplicate_count() == 0
    assert collector.delays() == []
    assert collector.late_normalized_delays() == []
    assert list(collector.outcomes()) == []


def test_equal_maps_share_one_roster():
    collector = MetricsCollector()
    for msg_id in range(1, 5):
        collector.expect(msg_id, 0, float(msg_id), {2: 0.1, 3: 0.2})
    collector.expect(5, 0, 5.0, {3: 0.2, 2: 0.1})  # other order: other rows
    assert len(collector._rosters) == 2
    assert [o.subscriber for o in collector.outcomes()][-2:] == [3, 2]
