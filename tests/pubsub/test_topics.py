"""Unit tests for topics, subscriptions, and the workload generator."""

import numpy as np
import pytest

from repro.overlay.topology import full_mesh
from repro.pubsub.topics import (
    Subscription,
    TopicSpec,
    Workload,
    generate_workload,
)
from repro.util.errors import ConfigurationError


@pytest.fixture
def topo(rng):
    return full_mesh(20, rng)


class TestTopicSpec:
    def test_subscriber_nodes_order(self):
        spec = TopicSpec(
            topic=0,
            publisher=1,
            subscriptions=(Subscription(3, 0.1), Subscription(5, 0.2)),
        )
        assert spec.subscriber_nodes == (3, 5)

    def test_deadline_lookup(self):
        spec = TopicSpec(
            topic=0,
            publisher=1,
            subscriptions=(Subscription(3, 0.1),),
        )
        assert spec.deadline_of(3) == 0.1
        with pytest.raises(KeyError):
            spec.deadline_of(4)


class TestWorkloadContainer:
    def test_totals(self):
        workload = Workload(
            topics=[
                TopicSpec(0, 1, (Subscription(2, 0.1), Subscription(3, 0.1))),
                TopicSpec(1, 4, (Subscription(5, 0.1),)),
            ]
        )
        assert workload.num_topics == 2
        assert workload.total_subscriptions == 3

    def test_topic_lookup(self):
        workload = Workload(topics=[TopicSpec(7, 1, (Subscription(2, 0.1),))])
        assert workload.topic(7).publisher == 1
        with pytest.raises(KeyError):
            workload.topic(9)

    def test_pairs(self):
        workload = Workload(topics=[TopicSpec(0, 1, (Subscription(2, 0.5),))])
        assert workload.pairs() == [(0, 1, 2, 0.5)]


class TestGenerateWorkload:
    def test_topic_count(self, topo, rng):
        workload = generate_workload(topo, rng, num_topics=10)
        assert workload.num_topics == 10

    def test_publishers_distinct_when_possible(self, topo, rng):
        workload = generate_workload(topo, rng, num_topics=10)
        publishers = [spec.publisher for spec in workload.topics]
        assert len(set(publishers)) == 10

    def test_more_topics_than_nodes_allowed(self, rng):
        topo = full_mesh(4, rng)
        workload = generate_workload(topo, rng, num_topics=6)
        assert workload.num_topics == 6

    def test_every_topic_has_a_subscriber(self, topo):
        for seed in range(10):
            workload = generate_workload(
                topo, np.random.default_rng(seed), ps_range=(0.01, 0.01)
            )
            for spec in workload.topics:
                assert len(spec.subscriptions) >= 1

    def test_no_self_subscription_by_default(self, topo, rng):
        workload = generate_workload(topo, rng, num_topics=10)
        for spec in workload.topics:
            assert spec.publisher not in spec.subscriber_nodes

    def test_self_subscription_opt_in(self, topo):
        found = False
        for seed in range(20):
            workload = generate_workload(
                topo,
                np.random.default_rng(seed),
                num_topics=5,
                ps_range=(0.9, 0.9),
                allow_self_subscription=True,
            )
            for spec in workload.topics:
                if spec.publisher in spec.subscriber_nodes:
                    found = True
        assert found

    def test_deadlines_are_factor_times_shortest_delay(self, topo, rng):
        workload = generate_workload(topo, rng, deadline_factor=3.0)
        for spec in workload.topics:
            for sub in spec.subscriptions:
                expected = 3.0 * topo.shortest_delay(spec.publisher, sub.node)
                assert sub.deadline == pytest.approx(expected)

    def test_subscription_rate_tracks_ps(self, topo):
        counts = []
        for seed in range(30):
            workload = generate_workload(
                topo, np.random.default_rng(seed), num_topics=10, ps_range=(0.5, 0.5)
            )
            counts.extend(len(s.subscriptions) for s in workload.topics)
        mean = float(np.mean(counts))
        assert mean == pytest.approx(0.5 * 19, rel=0.15)

    def test_phase_within_interval(self, topo, rng):
        workload = generate_workload(topo, rng, publish_interval=2.0)
        for spec in workload.topics:
            assert 0.0 <= spec.phase < 2.0

    def test_phase_zero_without_randomization(self, topo, rng):
        workload = generate_workload(topo, rng, randomize_phase=False)
        assert all(spec.phase == 0.0 for spec in workload.topics)

    def test_deterministic_given_rng_seed(self, topo):
        a = generate_workload(topo, np.random.default_rng(3))
        b = generate_workload(topo, np.random.default_rng(3))
        assert [s.publisher for s in a.topics] == [s.publisher for s in b.topics]
        assert [s.subscriber_nodes for s in a.topics] == [
            s.subscriber_nodes for s in b.topics
        ]

    def test_invalid_ps_range_rejected(self, topo, rng):
        with pytest.raises(ConfigurationError):
            generate_workload(topo, rng, ps_range=(0.6, 0.2))

    def test_invalid_deadline_factor_rejected(self, topo, rng):
        with pytest.raises(ConfigurationError):
            generate_workload(topo, rng, deadline_factor=0.5)
