"""Unit tests for a tracing run record and its reports (repro.trace).

These drive a :class:`repro.record.RunRecord` in its ``trace`` mode
directly with scripted hook calls — no simulator — so every query path
(journeys, delay breakdowns, retransmission trees, excerpts, JSONL
round-trips) is pinned against hand-computed expectations. The
integration suites cover the hook *sites*; here the subject is the
recorder itself. The one exception is :class:`TestSimulatedDiamond`, which
reconstructs journeys from a real DCRD run over the production
``send_data``/``send_ack`` path.
"""

import io
import math

import pytest

from repro import probes, trace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.record import (
    ARRIVE,
    DEFAULT_CAPACITY,
    LINK_DROP,
    ORDER_RELEASE,
    PUBLISH,
    TRANSMIT,
    RunRecord,
)
from repro.trace import TraceError, load_jsonl
from repro.util.errors import ConfigurationError
from tests.conftest import ScriptedFailures, single_topic_workload
from tests.core.test_forwarding import diamond, run_once


class FakeFrame:
    """Just enough PacketFrame surface for the tracer hooks."""

    def __init__(
        self,
        msg_id,
        transfer_id,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({3}),
        topic=7,
        routing_path=(),
        fragments_needed=0,
        fragment_index=-1,
    ):
        self.msg_id = msg_id
        self.transfer_id = transfer_id
        self.origin = origin
        self.publish_time = publish_time
        self.destinations = destinations
        self.topic = topic
        self.routing_path = routing_path
        self.fragments_needed = fragments_needed
        self.fragment_index = fragment_index


def traced(capacity=DEFAULT_CAPACITY):
    """A record that only traces."""
    return RunRecord(trace=True, capacity=capacity)


def scripted_two_hop_tracer():
    """One message 0 -> 1 -> 2 with a lost first attempt on the second hop.

    Timeline (all hand-picked):

    * t=0.00  publish at node 0 (root transfer 1)
    * t=0.00  transfer 2 (fork of 1) transmitted 0->1, prop 0.01
    * t=0.01  transfer 2 arrives at 1
    * t=0.02  transfer 3 (fork of 2) transmitted 1->2 — LOST
    * t=0.05  transfer 3 retransmitted 1->2, prop 0.01
    * t=0.06  transfer 3 arrives at 2; delivered to the local subscriber
    """
    tracer = traced()
    root = FakeFrame(1, 1)
    tracer.on_publish(root)
    tracer.on_fork(1, 2)
    hop1 = FakeFrame(1, 2, routing_path=(0,))
    tracer.on_transmit(0.00, 0, 1, hop1, True, None, 0.01, 0.0)
    tracer.on_arrive(0.01, 0, 1, hop1)
    tracer.on_fork(2, 3)
    hop2 = FakeFrame(1, 3, routing_path=(0, 1))
    tracer.on_transmit(0.02, 1, 2, hop2, False, "loss", 0.01, 0.0)
    tracer.on_ack_timeout(0.05, 1, 2, hop2, 1, True)
    tracer.on_transmit(0.05, 1, 2, hop2, True, None, 0.01, 0.0)
    tracer.on_arrive(0.06, 1, 2, hop2)
    tracer.on_deliver(0.06, 2, hop2)
    return tracer


class TestRecording:
    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        tracer = traced(capacity=4)
        for msg in range(6):
            tracer.on_publish(FakeFrame(msg, msg + 10, publish_time=float(msg)))
        events = tracer.events()
        assert len(events) == 4
        assert tracer.events_recorded == 6
        assert tracer.events_dropped == 2
        assert [e.msg for e in events] == [2, 3, 4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            traced(capacity=0)

    def test_departure_loss_records_transmit_and_link_drop(self):
        tracer = traced()
        frame = FakeFrame(1, 2)
        tracer.on_transmit(0.5, 0, 1, frame, False, "link_failed", 0.01, 0.0)
        kinds = [e.kind for e in tracer.events()]
        assert kinds == [TRANSMIT, LINK_DROP]
        drop = tracer.events()[-1]
        assert drop.info == {"cause": "link_failed"}

    def test_bare_objects_without_transfer_id_are_ignored(self):
        tracer = traced()
        tracer.on_transmit(0.0, 0, 1, object(), True, None, 0.01, 0.0)
        tracer.on_arrive(0.0, 0, 1, object())
        assert tracer.events() == []

    def test_events_for_filters_by_ids(self):
        tracer = scripted_two_hop_tracer()
        assert all(e.msg == 1 for e in tracer.events_for(msg_id=1))
        assert {e.transfer for e in tracer.events_for(transfer_id=3)} == {3}
        assert tracer.events_for(msg_id=99) == []

    def test_parent_lineage(self):
        tracer = scripted_two_hop_tracer()
        assert tracer.parent(3) == 2
        assert tracer.parent(2) == 1
        assert tracer.parent(1) == -1

    def test_perf_counters(self):
        tracer = scripted_two_hop_tracer()
        perf = tracer.perf_counters()
        assert perf["trace.events_recorded"] == tracer.events_recorded
        assert perf["trace.forks"] == 2.0
        assert perf["trace.transmit"] == 3.0
        assert perf["trace.link_drop"] == 1.0
        assert perf["trace.deliver"] == 1.0


class TestJourney:
    def test_chain_and_hops(self):
        tracer = scripted_two_hop_tracer()
        journey = trace.journey(tracer, 1, 2)
        assert journey.chain == (0, 1, 2)
        assert journey.complete
        assert journey.origin == 0
        assert journey.total_delay == pytest.approx(0.06)
        first, second = journey.hops
        assert (first.src, first.dst, first.attempts) == (0, 1, 1)
        assert (second.src, second.dst, second.attempts) == (1, 2, 2)
        assert second.first_tx == 0.02
        assert second.send_tx == 0.05  # the surviving attempt
        assert second.arrival == 0.06

    def test_publisher_local_delivery_is_a_trivial_journey(self):
        tracer = traced()
        tracer.on_publish(FakeFrame(4, 9, origin=5, publish_time=2.5))
        journey = trace.journey(tracer, 4, 5)
        assert journey.chain == (5,)
        assert journey.hops == ()
        assert journey.total_delay == 0.0
        assert journey.complete

    def test_unknown_pair_raises(self):
        tracer = scripted_two_hop_tracer()
        with pytest.raises(TraceError):
            trace.journey(tracer, 1, 9)
        with pytest.raises(TraceError):
            trace.journey(tracer, 42, 2)

    def test_retransmit_after_arrival_keeps_send_tx_at_first_arrival(self):
        # DATA arrived but its ACK was lost: the sender retransmits a copy
        # that already reached its receiver. The arriving attempt is still
        # the first one — the late retransmit must not inflate the
        # retransmission component.
        tracer = traced()
        tracer.on_publish(FakeFrame(1, 1))
        tracer.on_fork(1, 2)
        frame = FakeFrame(1, 2)
        tracer.on_transmit(0.0, 0, 1, frame, True, None, 0.01, 0.0)
        tracer.on_arrive(0.01, 0, 1, frame)
        tracer.on_deliver(0.01, 1, frame)
        tracer.on_ack_timeout(0.5, 0, 1, frame, 1, True)
        tracer.on_transmit(0.5, 0, 1, frame, True, None, 0.01, 0.0)
        tracer.on_arrive(0.51, 0, 1, frame)
        journey = trace.journey(tracer, 1, 1)
        (hop,) = journey.hops
        assert hop.send_tx == 0.0
        assert hop.arrival == 0.01
        assert hop.attempts == 2
        breakdown = trace.delay_breakdown(tracer, 1, 1)
        assert breakdown.retransmission == 0.0


class TestSimulatedDiamond:
    """One DCRD message 0 -> 3 over the diamond (fast 0-1-3, slow 0-2-3)."""

    @pytest.mark.parametrize(
        "dead, hops, lost",
        [
            ((), [(0, 1), (1, 3)], []),
            (((0, 1),), [(0, 2), (2, 3)], [(0, 1)]),
        ],
        ids=["clean", "dead-0-1"],
    )
    def test_journey_and_lost_copies(self, dead, hops, lost):
        failures = ScriptedFailures({edge: [(0.0, 1e9)] for edge in dead})
        tracer = traced()
        probes.attach(tracer)
        try:
            ctx, _ = run_once(
                diamond(), single_topic_workload(0, [(3, 1.0)]), failures=failures
            )
        finally:
            probes.detach(tracer)
        journey = trace.journey(tracer, 1, 3)
        assert [(hop.src, hop.dst) for hop in journey.hops] == hops
        copies = trace.retransmission_tree(tracer, 1)
        flat = []
        while copies:
            copy = copies.pop()
            flat.append(copy)
            copies.extend(copy["children"])
        assert [(c["src"], c["dst"]) for c in flat if c["fate"] == "lost"] == lost
        assert len(flat) == len(hops) + len(lost)
        assert ctx.network.stats.data_sent() == len(flat)  # one attempt each


class TestHoldbackLatencies:
    """``holdback_latencies`` over traced runs with total order on and off."""

    @staticmethod
    def traced_run(ordering):
        config = ExperimentConfig(
            ordering=ordering, trace=True, failure_probability=0.06, duration=10.0
        )
        env = build_environment(config, "DCRD", 1)
        env.execute()
        return env.record

    def test_each_released_pair_maps_to_its_first_hold(self):
        record = self.traced_run("total")
        first = {}
        for event in record.events():
            if event.kind == ORDER_RELEASE:
                first.setdefault((event.msg, event.node), event.info)
        assert first
        latencies = trace.holdback_latencies(record)
        assert set(latencies) == set(first)
        for pair, info in first.items():
            assert latencies[pair] == info.get("held", 0.0) >= 0.0
        assert any(held > 0.0 for held in latencies.values())

    def test_a_run_without_ordering_has_none(self):
        assert trace.holdback_latencies(self.traced_run(None)) == {}


class TestDelayBreakdown:
    def test_components_match_hand_computation(self):
        tracer = scripted_two_hop_tracer()
        breakdown = trace.delay_breakdown(tracer, 1, 2)
        assert breakdown.total == pytest.approx(0.06)
        # Broker 1 held the frame 0.01s before first transmitting it.
        assert breakdown.timeout_wait == pytest.approx(0.01)
        # The lost attempt at 0.02 was recovered at 0.05.
        assert breakdown.retransmission == pytest.approx(0.03)
        assert breakdown.queueing == 0.0
        assert breakdown.transmission == pytest.approx(0.02)

    def test_components_sum_is_exact(self):
        tracer = scripted_two_hop_tracer()
        breakdown = trace.delay_breakdown(tracer, 1, 2)
        assert breakdown.components_sum() == breakdown.total
        assert math.fsum(
            (
                breakdown.transmission,
                breakdown.queueing,
                breakdown.timeout_wait,
                breakdown.retransmission,
            )
        ) == breakdown.total

    def test_fifo_queue_wait_is_classified_as_queueing(self):
        tracer = traced()
        tracer.on_publish(FakeFrame(1, 1))
        tracer.on_fork(1, 2)
        frame = FakeFrame(1, 2)
        # The link is busy: 0.3s queue wait recorded at transmit time.
        tracer.on_transmit(0.0, 0, 1, frame, True, None, 0.01, 0.3)
        tracer.on_enqueue(0.0, 0, 1, frame, 0.3)
        tracer.on_arrive(0.36, 0, 1, frame)  # 0.3 wait + 0.05 serialise + 0.01 prop
        tracer.on_deliver(0.36, 1, frame)
        breakdown = trace.delay_breakdown(tracer, 1, 1)
        assert breakdown.queueing == pytest.approx(0.3)
        assert breakdown.transmission == pytest.approx(0.06)
        assert breakdown.components_sum() == breakdown.total

    def test_edf_queueing_derived_from_arrival(self):
        tracer = traced()
        tracer.on_publish(FakeFrame(1, 1))
        tracer.on_fork(1, 2)
        frame = FakeFrame(1, 2)
        # EDF: wait unknown at transmit time (queue=None); arrival implies it.
        tracer.on_transmit(0.0, 0, 1, frame, True, None, 0.01, None)
        tracer.on_enqueue(0.0, 0, 1, frame, None, qlen=4)
        tracer.on_arrive(0.21, 0, 1, frame)
        tracer.on_deliver(0.21, 1, frame)
        breakdown = trace.delay_breakdown(tracer, 1, 1)
        assert breakdown.queueing == pytest.approx(0.20)
        assert breakdown.components_sum() == breakdown.total


class TestRetransmissionTree:
    def test_tree_structure_and_fates(self):
        tracer = scripted_two_hop_tracer()
        (root,) = trace.retransmission_tree(tracer, 1)
        assert root["transfer"] == 2
        assert (root["src"], root["dst"]) == (0, 1)
        assert root["fate"] == "arrived"
        (child,) = root["children"]
        assert child["transfer"] == 3
        assert child["attempts"] == 2
        assert child["fate"] == "arrived"

    def test_lost_copy_fate(self):
        tracer = traced()
        tracer.on_publish(FakeFrame(1, 1))
        tracer.on_fork(1, 2)
        frame = FakeFrame(1, 2)
        tracer.on_transmit(0.0, 0, 1, frame, False, "loss", 0.01, 0.0)
        (root,) = trace.retransmission_tree(tracer, 1)
        assert root["fate"] == "lost"

    def test_format_renders_every_copy(self):
        tracer = scripted_two_hop_tracer()
        text = trace.format_retransmission_tree(tracer, 1)
        assert "msg 1" in text
        assert "#2 0->1" in text
        assert "#3 1->2" in text
        assert "attempts=2" in text


class TestExcerpt:
    def test_filters_to_the_given_frame(self):
        tracer = scripted_two_hop_tracer()
        tracer.on_publish(FakeFrame(2, 50))  # unrelated message
        lines = tracer.excerpt(frames=(FakeFrame(1, 3),))
        assert lines
        assert all("msg=1" in line or "transfer=3" in line for line in lines)
        assert not any("msg=2" in line for line in lines)

    def test_falls_back_to_stream_tail(self):
        tracer = scripted_two_hop_tracer()
        lines = tracer.excerpt(limit=3)
        assert len(lines) == 3
        assert "deliver" in lines[-1]

    def test_limit_caps_the_excerpt(self):
        tracer = scripted_two_hop_tracer()
        assert len(tracer.excerpt(frames=(FakeFrame(1, 3),), limit=2)) == 2


class TestJsonlRoundTrip:
    def test_export_then_load_preserves_queries(self):
        tracer = scripted_two_hop_tracer()
        buffer = io.StringIO()
        trace.export_jsonl(tracer, buffer)
        loaded = load_jsonl(io.StringIO(buffer.getvalue()))
        assert loaded.events_recorded == tracer.events_recorded
        assert [e.as_dict() for e in loaded.events()] == [
            e.as_dict() for e in tracer.events()
        ]
        original = trace.journey(tracer, 1, 2)
        recovered = trace.journey(loaded, 1, 2)
        assert recovered.chain == original.chain
        assert recovered.delivery_time == original.delivery_time
        assert (
            trace.delay_breakdown(loaded, 1, 2).as_dict()
            == trace.delay_breakdown(tracer, 1, 2).as_dict()
        )

    def test_export_to_path(self, tmp_path):
        tracer = scripted_two_hop_tracer()
        path = tmp_path / "trace.jsonl"
        trace.export_jsonl(tracer, str(path))
        loaded = load_jsonl(str(path))
        assert trace.journey(loaded, 1, 2).chain == (0, 1, 2)

    def test_meta_line_first_and_versioned(self):
        buffer = io.StringIO()
        trace.export_jsonl(scripted_two_hop_tracer(), buffer)
        import json

        first = json.loads(buffer.getvalue().splitlines()[0])
        assert first["kind"] == "meta"
        assert first["version"] == trace.JSONL_VERSION

    def test_reexport_of_an_overflowed_ring_is_byte_identical(self):
        # The meta line's counts survive the load: five events through a
        # ring of three record 5 and drop 2, not the 3 lines in the file.
        tracer = traced(capacity=3)
        for transfer in range(1, 6):
            tracer.on_arrive(0.1 * transfer, 0, 1, FakeFrame(1, transfer))
        first = io.StringIO()
        trace.export_jsonl(tracer, first)
        loaded = load_jsonl(io.StringIO(first.getvalue()))
        assert (loaded.events_recorded, loaded.events_dropped) == (5, 2)
        second = io.StringIO()
        trace.export_jsonl(loaded, second)
        assert second.getvalue() == first.getvalue()

    def test_missing_meta_line_rejected(self):
        with pytest.raises(TraceError):
            load_jsonl(io.StringIO('{"seq": 0}\n'))

    def test_unknown_version_rejected(self):
        with pytest.raises(TraceError):
            load_jsonl(io.StringIO('{"kind": "meta", "version": 99}\n'))


class TestInstall:
    def test_default_capacity_is_large(self):
        assert RunRecord(trace=True).capacity == DEFAULT_CAPACITY


def test_publish_event_carries_topic_and_destinations():
    tracer = traced()
    tracer.on_publish(
        FakeFrame(1, 1, destinations=frozenset({2, 5}), topic=3, publish_time=1.5)
    )
    (event,) = tracer.events()
    assert event.kind == PUBLISH
    assert event.t == 1.5
    assert event.info == {"topic": 3, "dests": [2, 5]}


def test_arrive_event_names_receiver_and_sender():
    tracer = traced()
    tracer.on_arrive(0.25, 4, 7, FakeFrame(1, 2))
    (event,) = tracer.events()
    assert event.kind == ARRIVE
    assert event.node == 7
    assert event.peer == 4


class TestExactComponents:
    """The breakdown remainder solve lands on ``total`` exactly."""

    def _check(self, total, queueing, timeout_wait, retransmission):
        from repro.trace import _exact_components

        t, q, w, r = _exact_components(total, queueing, timeout_wait, retransmission)
        assert math.fsum((t, q, w, r)) == total
        return t, q, w, r

    def test_plain_remainder(self):
        t, q, w, r = self._check(1.0, 0.25, 0.125, 0.0625)
        assert t == 1.0 - 0.25 - 0.125 - 0.0625
        assert (q, w, r) == (0.25, 0.125, 0.0625)

    def test_all_measured_zero(self):
        t, q, w, r = self._check(0.9859609130136403, 0.0, 0.0, 0.0)
        assert t == 0.9859609130136403

    def test_round_half_even_tie_is_broken(self):
        # Regression: these values (from a fuzzed world) put the exact sum
        # precisely on a round-half-to-even tie — stepping the remainder by
        # one ulp jumps the rounded fsum over ``total`` without hitting it,
        # so the solve must nudge the measured component instead.
        total = 0.9859609130136403
        queueing = 0.4807155120975188
        t, q, w, r = self._check(total, queueing, 0.0, 0.0)
        assert abs(q - queueing) <= math.ulp(queueing)
        assert (w, r) == (0.0, 0.0)
