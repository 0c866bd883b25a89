"""Tests for the embedding façade (repro.system.PubSubSystem)."""

import pytest

from repro import probes
from repro.system import Delivery, PubSubSystem
from repro.util.errors import ConfigurationError


class _PublishedSeqs(probes.ProbeObserver):
    """The order-tag sequence number of every fresh frame, in order."""

    def __init__(self) -> None:
        self.seqs: list = []

    def on_publish(self, frame):
        tag = frame.order_tag
        self.seqs.append(None if tag is None else tag.seq)


@pytest.fixture
def system():
    return PubSubSystem.build(num_nodes=8, seed=7, loss_rate=0.0)


class TestTopics:
    def test_add_topic_and_subscribe(self, system):
        system.add_topic("alerts", publisher=0)
        system.subscribe("alerts", node=3, deadline=0.5)
        assert system.workload.topic(0).subscriber_nodes == (3,)

    def test_duplicate_topic_rejected(self, system):
        system.add_topic("alerts", publisher=0)
        with pytest.raises(ConfigurationError):
            system.add_topic("alerts", publisher=1)

    def test_unknown_publisher_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.add_topic("alerts", publisher=99)

    def test_unsubscribe(self, system):
        system.add_topic("alerts", publisher=0)
        system.subscribe("alerts", node=3, deadline=0.5)
        system.unsubscribe("alerts", node=3)
        assert system.workload.topic(0).subscriber_nodes == ()

    def test_rejected_subscriber_leaves_no_phantom(self):
        system = PubSubSystem.build(num_nodes=6, seed=7, loss_rate=0.0)
        system.add_topic("t", publisher=0)
        system.subscribe("t", node=3, deadline=0.5)
        version = system.workload.version
        with pytest.raises(ConfigurationError, match="no broker 42"):
            system.subscribe("t", node=42, deadline=0.5)
        assert system.workload.topic(0).subscriber_nodes == (3,)
        assert system.workload.version == version
        # Every later publish expects deliveries at the real subscriber only.
        system.publish("t")
        system.run(until=1.0)
        summary = system.summary()
        assert summary.delivered == 1
        assert summary.delivery_ratio == 1.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.subscribe("nope", node=3, deadline=0.5),
            lambda s: s.unsubscribe("nope", node=3),
            lambda s: s.publish("nope"),
            lambda s: s.start_publisher("nope"),
        ],
        ids=["subscribe", "unsubscribe", "publish", "start_publisher"],
    )
    def test_unknown_topic_is_a_configuration_error(self, system, call):
        system.add_topic("alerts", publisher=0)
        with pytest.raises(ConfigurationError, match=r"unknown topic 'nope'.*alerts"):
            call(system)


class TestPublishAndDeliver:
    def test_callback_receives_payload(self, system):
        system.add_topic("tracks", publisher=0)
        received = []
        system.subscribe("tracks", node=5, deadline=0.5, callback=received.append)
        msg_id = system.publish("tracks", payload={"lat": 44.97})
        system.run(until=1.0)
        assert len(received) == 1
        delivery = received[0]
        assert isinstance(delivery, Delivery)
        assert delivery.payload == {"lat": 44.97}
        assert delivery.msg_id == msg_id
        assert delivery.topic == "tracks"
        assert delivery.subscriber == 5
        assert 0.0 < delivery.delay < 0.2

    def test_publish_without_subscribers_rejected(self, system):
        system.add_topic("void", publisher=0)
        with pytest.raises(ConfigurationError):
            system.publish("void")

    def test_multiple_subscribers_each_get_a_copy(self, system):
        system.add_topic("fanout", publisher=0)
        hits = []
        for node in (2, 4, 6):
            system.subscribe(
                "fanout", node=node, deadline=0.5,
                callback=lambda d: hits.append(d.subscriber),
            )
        system.publish("fanout")
        system.run(until=1.0)
        assert sorted(hits) == [2, 4, 6]

    def test_periodic_publisher(self, system):
        system.add_topic("ticks", publisher=1, publish_interval=0.5)
        count = []
        system.subscribe("ticks", node=2, deadline=0.5, callback=count.append)
        system.start_publisher("ticks", stop_time=2.2)
        system.run(until=3.0)
        assert len(count) == 5  # t = 0, 0.5, 1.0, 1.5, 2.0

    def test_summary_reflects_deliveries(self, system):
        system.add_topic("m", publisher=0)
        system.subscribe("m", node=1, deadline=0.5)
        system.publish("m")
        system.run(until=1.0)
        summary = system.summary()
        assert summary.delivered == 1
        assert summary.delivery_ratio == 1.0

    def test_runtime_subscribe_between_publishes(self, system):
        system.add_topic("live", publisher=0)
        early, late = [], []
        system.subscribe("live", node=2, deadline=0.5, callback=early.append)
        system.publish("live", payload="first")
        system.run(until=0.5)
        system.subscribe("live", node=3, deadline=0.5, callback=late.append)
        system.publish("live", payload="second")
        system.run(until=1.0)
        assert [d.payload for d in early] == ["first", "second"]
        assert [d.payload for d in late] == ["second"]


class TestStrategies:
    @pytest.mark.parametrize("name", ["DCRD", "D-Tree", "Multipath", "ORACLE"])
    def test_facade_works_with_every_strategy(self, name):
        system = PubSubSystem.build(num_nodes=6, seed=3, strategy=name, loss_rate=0.0)
        system.add_topic("t", publisher=0)
        got = []
        system.subscribe("t", node=4, deadline=0.5, callback=got.append)
        system.publish("t", payload=name)
        system.run(until=1.0)
        assert [d.payload for d in got] == [name]

    def test_ordered_facade_orders_and_closes_idempotently(self):
        for _ in range(2):  # a second ordered system built after close()
            system = PubSubSystem.build(
                num_nodes=6, seed=3, loss_rate=0.0, ordering="fifo"
            )
            try:
                system.add_topic("t", publisher=0)
                got = []
                system.subscribe("t", node=4, deadline=0.5, callback=got.append)
                for payload in range(3):
                    system.publish("t", payload=payload)
                system.run(until=1.0)
                assert [d.payload for d in got] == [0, 1, 2]
                counters = system.ordering.perf_counters()
                assert counters["ordering.releases"] == counters["ordering.offers"] == 3
            finally:
                system.close()
            system.close()  # idempotent

    def test_two_ordered_systems_stamp_their_own_frames(self):
        first = PubSubSystem.build(num_nodes=6, seed=3, loss_rate=0.0, ordering="fifo")
        second = PubSubSystem.build(num_nodes=6, seed=3, loss_rate=0.0, ordering="fifo")
        seqs = _PublishedSeqs()
        probes.attach(seqs)
        try:
            for system in (first, second):
                system.add_topic("t", publisher=0)
            got = []
            first.subscribe("t", node=4, deadline=0.5, callback=got.append)
            second.subscribe("t", node=4, deadline=0.5)
            second.publish("t")
            first.publish("t", payload=0)  # the other system is open ...
            second.close()
            first.publish("t", payload=1)  # ... and closed
            first.run(until=1.0)
        finally:
            probes.detach(seqs)
            first.close()
            second.close()
        # Each system's stream starts at seq 1, stamped by its own plan.
        assert seqs.seqs == [1, 1, 2]
        assert [d.payload for d in got] == [0, 1]
        counters = first.ordering.perf_counters()
        assert counters["ordering.releases"] == counters["ordering.offers"] == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            PubSubSystem.build(num_nodes=6, strategy="IP-multicast")

    def test_failures_are_survivable(self):
        system = PubSubSystem.build(
            num_nodes=10, degree=4, seed=5, failure_probability=0.2
        )
        system.add_topic("storm", publisher=0)
        got = []
        system.subscribe("storm", node=7, deadline=1.0, callback=got.append)
        for _ in range(10):
            system.publish("storm")
            system.run(until=system.now + 1.0)
        assert len(got) >= 9  # DCRD routes around the failures
